"""Population-batched evaluation: batched/pool vs serial, full path.

Writes ``BENCH_batched.json`` at the repo root with per-individual
wall-clock for the serial loop, :class:`BatchedBackend`, and a
4-worker :class:`ProcessPoolBackend` dispatching batched sub-batches,
across three regimes of one 64-individual generation:

* steady-state detection on, single measurement (the cheapest serial
  case — with detection on the batched path schedules each row through
  the serial pipeline too, so it wins there only on assembly
  splicing);
* detection off (full cycle-by-cycle simulation, which the batched
  path schedules in lockstep), single measurement;
* detection off with ``repeats=3`` noise-averaged measurements — the
  paper's repeated-measurement methodology, and the regime the batched
  path is built for: the serial loop re-runs the whole deterministic
  simulation per repeat, while the batched path executes once and
  replays only the noise draws.

Every non-serial backend must reproduce the serial results bit for bit
in every round — the speedup is only meaningful if the trajectory is
identical.  Timing is best-of-3 with a fresh job set per round (the
engine's steady state: persistent backend, new generation each time).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from time import perf_counter

from conftest import run_once

from repro.core.config import parse_config_file
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.evaluation import ProcessPoolBackend, SerialBackend
from repro.evaluation.backends import AutoSelectBackend, BatchedBackend
from repro.evaluation.pipeline import EvaluationPipeline
from repro.fitness.default_fitness import DefaultFitness
from repro.measurement.power import PowerMeasurement

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "configs" / "arm_power" / "config.xml"
OUTPUT = REPO_ROOT / "BENCH_batched.json"

#: CI's bench-smoke leg runs at a reduced scale via the environment;
#: the committed BENCH_batched.json is produced at the default 64.
#: The vectorization win amortizes per-generation fixed costs over the
#: population, so the speedup floors relax below 64 individuals.
POPULATION = int(os.environ.get("GEST_BENCH_POPULATION", "64"))
BATCHED_FLOOR = 5.0 if POPULATION >= 64 else 3.0
POOL_FLOOR = 2.0 if POPULATION >= 64 else 1.5
ROUND_SEEDS = (101, 202, 303)


def _build_pipeline(detection: bool, repeats: int):
    config = parse_config_file(CONFIG)
    machine = SimulatedMachine("cortex_a15", seed=config.ga.seed or 0,
                               sim_cycles=600,
                               steady_state_detection=detection)
    target = SimulatedTarget(machine)
    target.connect()
    params = {"duration": "2", "samples": "5"}
    if repeats > 1:
        params["repeats"] = str(repeats)
    measurement = PowerMeasurement(target, params)
    pipeline = EvaluationPipeline(
        template=Template(config.template_text), measurement=measurement,
        fitness=DefaultFitness(), noise_seed=config.ga.seed or 0)
    return config, pipeline


def _make_jobs(config, pipeline, round_seed: int):
    rng = random.Random(round_seed)
    jobs = []
    for uid in range(POPULATION):
        individual = random_individual(config.library,
                                       config.ga.individual_size, rng,
                                       uid=uid)
        jobs.append((individual, pipeline.render(individual)))
    return jobs


def _observables(results):
    return [(r.uid, r.measurements, r.fitness) for r in results]


def _run_regime(detection: bool, repeats: int, include_pool: bool):
    backends = {"serial": SerialBackend(), "batched": BatchedBackend()}
    if include_pool:
        backends["pool_4"] = ProcessPoolBackend(4)
    state = {name: _build_pipeline(detection, repeats)
             for name in backends}
    seconds = {name: [] for name in backends}
    for round_seed in ROUND_SEEDS:
        round_results = {}
        for name, backend in backends.items():
            config, pipeline = state[name]
            jobs = _make_jobs(config, pipeline, round_seed)
            began = perf_counter()
            results = backend.evaluate(pipeline, jobs)
            seconds[name].append(perf_counter() - began)
            round_results[name] = _observables(results)
        for name, observed in round_results.items():
            assert observed == round_results["serial"], (
                f"{name} diverged from serial observables "
                f"(detection={detection}, repeats={repeats}, "
                f"round seed {round_seed})")
    for backend in backends.values():
        backend.close()
    regime = {
        "steady_state_detection": detection,
        "repeats": repeats,
        "bitwise_identical_to_serial": True,
    }
    for name in backends:
        best = min(seconds[name])
        regime[name] = {
            "seconds_best_of_3": round(best, 4),
            "per_individual_ms": round(best / POPULATION * 1000, 4),
        }
    serial_best = regime["serial"]["seconds_best_of_3"]
    for name in backends:
        if name != "serial":
            regime[name]["speedup_vs_serial"] = round(
                serial_best / regime[name]["seconds_best_of_3"], 3)
    return regime


def test_bench_batched(benchmark):
    results = {
        "config": str(CONFIG.relative_to(REPO_ROOT)),
        "population_size": POPULATION,
        "cpu_count": os.cpu_count(),
        "rounds": len(ROUND_SEEDS),
        "regimes": {},
    }

    results["regimes"]["detect_on_repeats_1"] = _run_regime(
        detection=True, repeats=1, include_pool=False)
    results["regimes"]["full_sim_repeats_1"] = _run_regime(
        detection=False, repeats=1, include_pool=False)
    # Headline regime: full simulation, three noise-averaged repeats.
    headline = _run_regime(detection=False, repeats=3, include_pool=True)
    results["regimes"]["full_sim_repeats_3"] = headline

    # What the auto-selector does at this scale, for the record.
    config, pipeline = _build_pipeline(detection=False, repeats=3)
    auto = AutoSelectBackend(pool_workers=os.cpu_count() or 1)
    auto.evaluate(pipeline, _make_jobs(config, pipeline, ROUND_SEEDS[0]))
    results["auto_select"] = {"choice": auto.name, "reason": auto.reason}
    auto.close()

    batched_speedup = headline["batched"]["speedup_vs_serial"]
    pool_speedup = headline["pool_4"]["speedup_vs_serial"]
    assert batched_speedup >= BATCHED_FLOOR, (
        f"batched must beat serial by {BATCHED_FLOOR}x in the "
        f"repeated-measurement regime, got {batched_speedup}x: {headline}")
    assert pool_speedup >= POOL_FLOOR, (
        f"pool_4 (batched sub-batches) must beat serial by {POOL_FLOOR}x "
        f"in the repeated-measurement regime, got {pool_speedup}x: "
        f"{headline}")

    # One pytest-benchmark-timed batched pass for the comparison tables.
    config, pipeline = _build_pipeline(detection=False, repeats=3)
    jobs = _make_jobs(config, pipeline, ROUND_SEEDS[0])
    run_once(benchmark, lambda: BatchedBackend().evaluate(pipeline, jobs))

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}: headline full_sim_repeats_3 "
          f"batched {batched_speedup}x, pool_4 {pool_speedup}x vs serial "
          f"on {POPULATION} individuals, {results['cpu_count']} core(s); "
          f"auto chose {results['auto_select']['choice']}")
