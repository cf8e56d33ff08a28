"""Learned surrogate vs plain GA: simulated-evaluation reduction.

The ``surrogate`` strategy (the GA with a learned pruning ranker) only
earns its keep if it reaches the plain GA's best fitness while paying
for far fewer full simulated evaluations.  This benchmark runs the same
search twice — once with the stock genetic strategy, once under
``surrogate`` with its shipped constants — on the identical (platform,
metric, seed), then compares simulated-evaluation counts, wall-clock,
best fitness and the model's per-generation Spearman rank correlation.

Writes ``BENCH_surrogate.json`` at the repo root.

Acceptance gates (the ISSUE's floors):
  * the surrogate arm simulates at most 50% of the plain GA's
    evaluations;
  * its best fitness is no worse than the plain GA's;
  * the ridge model's mean Spearman over generations where it was
    fitted is at least 0.5.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from conftest import run_once

from repro.experiments import GAScale
from repro.experiments.common import make_engine, make_machine
from repro.search import make_strategy

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_surrogate.json"

PLATFORM = "cortex_a15"
METRIC = "power"
SEED = 7
SCALE = GAScale(population_size=10, generations=8, individual_size=20,
                samples=2)


def _run(strategy):
    machine = make_machine(PLATFORM, seed=SEED)
    engine = make_engine(machine, METRIC, SEED, SCALE, strategy=strategy)
    began = perf_counter()
    history = engine.run()
    wall_s = perf_counter() - began
    best = history.best_individual
    return {
        "history": history,
        "wall_s": wall_s,
        "best_fitness": best.fitness if best is not None else 0.0,
        "simulated": sum(g.measured for g in history.generations),
    }


def test_bench_surrogate(benchmark):
    genetic = _run("genetic")
    surrogate = run_once(benchmark,
                         lambda: _run(make_strategy("surrogate")))

    rhos = [g.surrogate["spearman"]
            for g in surrogate["history"].generations
            if g.surrogate and g.surrogate.get("spearman") is not None]
    mean_rho = sum(rhos) / len(rhos) if rhos else 0.0
    reduction = surrogate["simulated"] / genetic["simulated"]

    results = {
        "platform": PLATFORM,
        "metric": METRIC,
        "seed": SEED,
        "scale": {"population_size": SCALE.population_size,
                  "generations": SCALE.generations,
                  "individual_size": SCALE.individual_size,
                  "samples": SCALE.samples},
        "genetic": {
            "simulated_evaluations": genetic["simulated"],
            "best_fitness": round(genetic["best_fitness"], 4),
            "wall_s": round(genetic["wall_s"], 3),
        },
        "surrogate": {
            "simulated_evaluations": surrogate["simulated"],
            "best_fitness": round(surrogate["best_fitness"], 4),
            "wall_s": round(surrogate["wall_s"], 3),
            "mean_spearman": round(mean_rho, 3),
        },
        "simulated_fraction": round(reduction, 3),
        "wall_clock_speedup": round(
            genetic["wall_s"] / surrogate["wall_s"], 2),
    }

    assert surrogate["simulated"] <= 0.5 * genetic["simulated"], \
        (f"surrogate must simulate at most half of the plain GA's "
         f"evaluations: {results}")
    assert surrogate["best_fitness"] >= genetic["best_fitness"] - 1e-9, \
        f"surrogate must not lose fitness vs the plain GA: {results}"
    assert mean_rho >= 0.5, \
        f"ridge model must rank usefully (mean rho >= 0.5): {results}"

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}: surrogate matched best "
          f"fitness {results['surrogate']['best_fitness']} with "
          f"{surrogate['simulated']}/{genetic['simulated']} simulated "
          f"evaluations ({results['simulated_fraction']}x), mean "
          f"Spearman {results['surrogate']['mean_spearman']}")
