#!/usr/bin/env python3
"""Cross-check the evaluation layer's determinism contract end-to-end.

Runs the shipped arm_power configuration (at a reduced scale) several
times — SerialBackend, ProcessPoolBackend(2), SerialBackend with a
fresh evaluation cache, the same search again over that now-filled
cache, SerialBackend with a static screen, and SerialBackend with
steady-state kernel detection disabled (full cycle-by-cycle
simulation) — and verifies they all produce
identical run histories and bit-identical population binaries.
``--backend batched`` (or ``auto``) swaps the non-reference variants'
executor for the population-vectorized path, checking the batched
render→measure→score pass against the serial loop end-to-end.
The replayed variant checks that a cache only replays measurements:
a search over a filled cache must measure exactly what it would
without one, under every strategy.  The screened variant checks the
one compile path: the screen checks the program the measurement
compiles, the same one the executors and the pruning rankers take,
and must change nothing.  The last variant is the tiling
contract end-to-end: stopping at a recurring scheduler state and
analytically tiling the detected period must be observationally
invisible to the whole GA.  Exits non-zero on any mismatch; CI runs
this after the parallel test leg.

``--strategy`` runs the cross-check under any registered search
strategy (default ``genetic``) — the determinism contract is
backend-independent for every strategy, not just the GA, and CI's
strategy matrix exercises each one.

``--repeats N`` overrides the measurement's ``repeats`` in every
variant.  With detection on, a program's repeats after the first are
re-tiled from its kept schedule segment, while the untiled variant
schedules every repeat afresh, so the untiled comparison checks the
schedule memo end to end.

Usage: PYTHONPATH=src python scripts/check_parallel_determinism.py \
           [--strategy NAME] [--backend NAME] [--repeats N]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.core.config import parse_config_file
from repro.core.engine import GeneticEngine
from repro.core.loader import instantiate, load_class
from repro.core.output import OutputRecorder
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.evaluation import (EvaluationCache, ProcessPoolBackend,
                              SerialBackend)
from repro.evaluation.backends import AutoSelectBackend, BatchedBackend
from repro.measurement.base import Measurement
from repro.search import STRATEGIES
from repro.staticcheck import StaticScreen

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "arm_power" \
    / "config.xml"
GENERATIONS = 4


def run_variant(workdir: Path, name: str, backend, cache,
                steady_state_detection: bool = True,
                strategy: str = "genetic", screened: bool = False,
                repeats=None):
    config = parse_config_file(CONFIG)
    config.ga.generations = GENERATIONS
    config.ga.population_size = 10
    if repeats is not None:
        config.measurement_params = {**config.measurement_params,
                                     "repeats": str(repeats)}
    machine = SimulatedMachine("cortex_a15", seed=config.ga.seed or 0,
                               sim_cycles=600,
                               steady_state_detection=steady_state_detection)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = instantiate(config.measurement_class, Measurement,
                              target, config.measurement_params)
    fitness = load_class(config.fitness_class)()
    recorder = OutputRecorder(workdir / name)
    engine = GeneticEngine(config, measurement, fitness,
                           recorder=recorder, backend=backend, cache=cache,
                           strategy=strategy,
                           screen=StaticScreen() if screened else None)
    history = engine.run()
    return history, recorder


def main() -> int:
    parser = argparse.ArgumentParser(
        description="evaluation-layer determinism cross-check")
    parser.add_argument("--strategy", default="genetic",
                        choices=STRATEGIES.names(),
                        help="search strategy to run the cross-check "
                             "under (default: genetic)")
    parser.add_argument("--backend", default="serial",
                        choices=("serial", "batched", "auto"),
                        help="executor for the non-reference variants "
                             "(default: serial); 'batched' checks the "
                             "population-vectorized pass against the "
                             "serial reference")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override the measurement's repeats in "
                             "every variant (default: the config's)")
    args = parser.parse_args()
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    challenger = {
        "serial": SerialBackend,
        "batched": BatchedBackend,
        "auto": AutoSelectBackend,
    }[args.backend]
    failures = 0
    # One cache object: "cached" fills it, "replayed" runs over it.
    filled = EvaluationCache("cross-check")
    with tempfile.TemporaryDirectory() as raw:
        workdir = Path(raw)
        variants = [
            ("serial", lambda: (SerialBackend(), None), True),
            (args.backend if args.backend != "serial" else "parallel",
             lambda: ((challenger(), None)
                      if args.backend != "serial"
                      else (ProcessPoolBackend(2), None)), True),
            ("cached", lambda: (challenger(), filled), True),
            ("replayed", lambda: (challenger(), filled), True),
            ("screened", lambda: (challenger(), None), True),
            # Full cycle-by-cycle simulation: the steady-state tiling
            # contract says this must be bit-identical to the default.
            ("untiled", lambda: (challenger(), None), False),
        ]
        histories = {}
        recorders = {}
        for name, build, detection in variants:
            backend, cache = build()
            print(f"running {name} variant ({GENERATIONS} generations, "
                  f"{args.strategy} strategy)...", flush=True)
            histories[name], recorders[name] = run_variant(
                workdir, name, backend, cache,
                steady_state_detection=detection,
                strategy=args.strategy, screened=name == "screened",
                repeats=args.repeats)

        reference = histories["serial"]
        for name, _, _ in variants[1:]:
            if histories[name].generations != reference.generations:
                print(f"FAIL: {name} run history differs from serial")
                for serial_g, other_g in zip(reference.generations,
                                             histories[name].generations):
                    if serial_g != other_g:
                        print(f"  first divergence at generation "
                              f"{serial_g.number}:")
                        print(f"    serial: {serial_g}")
                        print(f"    {name}: {other_g}")
                        break
                failures += 1
            else:
                print(f"ok: {name} run history identical to serial")

            serial_files = recorders["serial"].population_files()
            other_files = recorders[name].population_files()
            if len(serial_files) != len(other_files):
                print(f"FAIL: {name} wrote {len(other_files)} population "
                      f"binaries, serial wrote {len(serial_files)}")
                failures += 1
                continue
            mismatched = [
                a.name for a, b in zip(serial_files, other_files)
                if a.read_bytes() != b.read_bytes()
            ]
            if mismatched:
                print(f"FAIL: {name} population binaries differ from "
                      f"serial: {mismatched}")
                failures += 1
            else:
                print(f"ok: {name} population binaries bit-identical "
                      f"({len(serial_files)} files)")

        remeasured = sum(g.measured
                         for g in histories["replayed"].generations)
        if remeasured:
            print(f"FAIL: replayed variant measured {remeasured} "
                  "individuals the filled cache holds")
            failures += 1
        else:
            print("ok: replayed variant measured nothing")

    if failures:
        print(f"\n{failures} determinism check(s) failed")
        return 1
    print("\nall determinism cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
