"""Evaluation-layer throughput: serial vs process-pool vs cache.

Writes ``BENCH_evaluation.json`` next to the repo root with
individuals/second for the serial backend and 2- and 4-worker process
pools, plus the cache hit rate of a seeded-population rerun.  Numbers
are measured honestly on whatever hardware runs the benchmark — the
pool backends can only beat serial when ``os.cpu_count()`` grants real
parallelism, so the JSON records the core count alongside the rates.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

from conftest import run_once

from repro.core.config import parse_config_file
from repro.core.engine import GeneticEngine
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.cpu.cache import MemoryHierarchy
from repro.evaluation import (EvaluationCache, ProcessPoolBackend,
                              SerialBackend, backends)
from repro.evaluation.pipeline import EmptyMeasurementError
from repro.fitness.default_fitness import DefaultFitness
from repro.measurement.power import PowerMeasurement

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "configs" / "arm_power" / "config.xml"
OUTPUT = REPO_ROOT / "BENCH_evaluation.json"

POPULATION = 16
GENERATIONS = 4
#: The two dispatch arms are timed best-of-N over alternating rounds.
DISPATCH_ROUNDS = 3


def _run_job(job):
    """Evaluate one job against the worker's forked pipeline replica."""
    individual, source = job
    try:
        return backends._WORKER_PIPELINE.evaluate(individual, source=source)
    except EmptyMeasurementError as exc:
        return exc


class PerJobPoolBackend(ProcessPoolBackend):
    """The pre-chunking dispatch strategy: one IPC round trip per
    individual, each evaluated by the worker's serial pipeline.  Kept
    here as the baseline for the dispatch-overhead comparison — the
    chunked backend replaced it precisely because at simulator
    evaluation rates the round trips dominated the work."""

    def evaluate(self, pipeline, jobs):
        if not jobs:
            return []
        pool = self._ensure_pool(pipeline)
        results = []
        for item in pool.imap(_run_job, list(jobs), chunksize=1):
            results.append(item)
            if isinstance(item, EmptyMeasurementError):
                break
        return results


def _engine(backend=None, cache=None):
    config = parse_config_file(CONFIG)
    config.ga.population_size = POPULATION
    config.ga.generations = GENERATIONS
    # A memory hierarchy makes every evaluation pay the full
    # cycle-by-cycle simulation (striding addresses defeat steady-state
    # tiling) — the honest worst case, and the regime where parallel
    # evaluation matters most.
    machine = SimulatedMachine("cortex_a15", seed=config.ga.seed or 0,
                               sim_cycles=600,
                               hierarchy=MemoryHierarchy())
    target = SimulatedTarget(machine)
    target.connect()
    measurement = PowerMeasurement(target, {"samples": "2"})
    return GeneticEngine(config, measurement, DefaultFitness(),
                         backend=backend, cache=cache)


def _timed_run(backend=None, cache=None):
    engine = _engine(backend=backend, cache=cache)
    began = perf_counter()
    history = engine.run()
    elapsed = perf_counter() - began
    individuals = POPULATION * GENERATIONS
    return {
        "individuals": individuals,
        "seconds": round(elapsed, 4),
        "individuals_per_second": round(individuals / elapsed, 2),
        "best_fitness": history.best_fitness_series()[-1],
    }


def test_bench_evaluation_throughput(benchmark):
    results = {
        "config": str(CONFIG.relative_to(REPO_ROOT)),
        "population_size": POPULATION,
        "generations": GENERATIONS,
        "cpu_count": os.cpu_count(),
        "backends": {},
    }

    results["backends"]["serial"] = _timed_run(SerialBackend())
    results["backends"]["pool_2"] = _timed_run(ProcessPoolBackend(2))
    # The dispatch arms alternate round by round and keep their best.
    dispatch = {"pool_4": ProcessPoolBackend,
                "pool_4_per_job": PerJobPoolBackend}
    for _ in range(DISPATCH_ROUNDS):
        for key, backend_cls in dispatch.items():
            run = _timed_run(backend_cls(4))
            best = results["backends"].get(key)
            if best is None or run["seconds"] < best["seconds"]:
                results["backends"][key] = run

    serial_rate = results["backends"]["serial"]["individuals_per_second"]
    for key in ("pool_2", "pool_4", "pool_4_per_job"):
        pooled = results["backends"][key]
        pooled["speedup_vs_serial"] = round(
            pooled["individuals_per_second"] / serial_rate, 3)

    # Every backend must land on the same search trajectory.
    fitnesses = {v["best_fitness"] for v in results["backends"].values()}
    assert len(fitnesses) == 1, \
        f"backends diverged: {results['backends']}"

    # The dispatch fix itself, measured independently of core count:
    # one round trip per worker chunk must beat one per individual.
    chunked = results["backends"]["pool_4"]["individuals_per_second"]
    per_job = results["backends"]["pool_4_per_job"][
        "individuals_per_second"]
    results["dispatch_speedup_chunked_vs_per_job"] = round(
        chunked / per_job, 3)
    assert chunked >= per_job, (
        f"chunked dispatch ({chunked} ind/s) regressed below per-job "
        f"dispatch ({per_job} ind/s)")

    # True parallel speedup needs real cores; on starved CI boxes the
    # pool can only tie serial, so the wall-clock gate is conditional.
    if (os.cpu_count() or 1) >= 4:
        assert results["backends"]["pool_4"]["speedup_vs_serial"] >= 1.5, \
            f"pool_4 must beat serial by 1.5x: {results['backends']}"

    # Cache hit rate on a seeded-population rerun: the second engine
    # shares the first run's cache and replays the same trajectory, so
    # every individual should hit.
    cache = EvaluationCache("bench")
    _timed_run(cache=cache)
    hits_before, misses_before = cache.hits, cache.misses
    rerun = _timed_run(cache=cache)
    rerun_hits = cache.hits - hits_before
    rerun_misses = cache.misses - misses_before
    results["cache"] = {
        "first_run_hits": hits_before,
        "first_run_misses": misses_before,
        "rerun_hits": rerun_hits,
        "rerun_misses": rerun_misses,
        "rerun_hit_rate": round(
            rerun_hits / max(1, rerun_hits + rerun_misses), 4),
        "rerun_individuals_per_second": rerun["individuals_per_second"],
    }
    assert results["cache"]["rerun_hit_rate"] == 1.0

    # One pytest-benchmark-timed serial run for the comparison tables.
    run_once(benchmark, lambda: _engine(SerialBackend()).run())

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}: "
          f"serial {serial_rate} ind/s, "
          f"pool_2 {results['backends']['pool_2']['individuals_per_second']}"
          f" ind/s, pool_4 "
          f"{results['backends']['pool_4']['individuals_per_second']} ind/s "
          f"on {results['cpu_count']} core(s); "
          f"rerun hit rate {results['cache']['rerun_hit_rate']}")
