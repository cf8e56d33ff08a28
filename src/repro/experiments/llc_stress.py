"""LLC/DRAM stress extension (paper Section VII).

The paper sketches this as the natural next target for the framework:
give the GA strided load/store definitions and optimise toward cache
misses.  This driver evolves an LLC-miss virus on a simulated X-Gene2
with the two-level hierarchy attached, then compares its miss traffic
(and the extra power those misses burn) against:

* an L1-resident loop (the character of the paper's power viruses), and
* a hand-written streaming loop (line-strided walker — the obvious
  manual attempt at a DRAM stressor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.config import RunConfig
from ..core.engine import GeneticEngine, RunHistory
from ..core.individual import Individual
from ..cpu.cache import MemoryHierarchy
from ..cpu.machine import RunResult, SimulatedMachine
from ..cpu.target import SimulatedTarget
from ..fitness.default_fitness import DefaultFitness
from ..isa.catalogs import arm_cache_stress_library, arm_template
from ..measurement.cache_misses import CacheMissMeasurement
from ..workloads.builder import LoopBuilder, build_workload_source
from .common import GAScale

__all__ = ["CACHE_SEED", "LlcStressResult", "cache_machine",
           "evolve_llc_virus", "llc_stress_experiment"]

CACHE_SEED = 41


def cache_machine(seed: int = CACHE_SEED,
                  platform: str = "xgene2") -> SimulatedMachine:
    """An X-Gene2-like machine with the cache hierarchy attached."""
    return SimulatedMachine(platform, environment="os", seed=seed,
                            hierarchy=MemoryHierarchy())


def evolve_llc_virus(seed: int = CACHE_SEED,
                     scale: Optional[GAScale] = None):
    """Evolve a loop maximising LLC misses per kilo-instruction."""
    scale = scale or GAScale(population_size=20, generations=25,
                             individual_size=30)
    config = RunConfig(ga=scale.ga_parameters(seed),
                       library=arm_cache_stress_library(),
                       template_text=arm_template())
    engine = GeneticEngine(
        config,
        CacheMissMeasurement(SimulatedTarget(cache_machine(seed)),
                             {"samples": str(scale.samples)}),
        DefaultFitness())
    history = engine.run()
    return engine, history


def _l1_resident_source() -> str:
    body = (LoopBuilder("arm")
            .load_block(8, stride=16).int_block(6).simd_block(6)
            .store_block(4, stride=16).int_block(6)
            .body())
    return build_workload_source("arm", body)


def _streaming_source() -> str:
    body = (LoopBuilder("arm")
            .stream_block(12, advance=64).int_block(4)
            .stream_block(8, advance=64).int_block(2)
            .body())
    return build_workload_source("arm", body)


@dataclass
class LlcStressResult:
    """Virus vs the two hand-written memory behaviours."""

    virus: Individual
    history: RunHistory
    runs: Dict[str, RunResult] = field(default_factory=dict)

    def llc_misses_per_kinstr(self) -> Dict[str, float]:
        out = {}
        for name, run in self.runs.items():
            instructions = max(1, run.trace.instructions_issued)
            out[name] = run.cache["llc_misses"] / instructions * 1000.0
        return out

    def avg_power_w(self) -> Dict[str, float]:
        return {name: run.avg_power_w for name, run in self.runs.items()}

    def render(self) -> str:
        misses = self.llc_misses_per_kinstr()
        power = self.avg_power_w()
        width = max(len(n) for n in misses)
        lines = [f"{'workload'.ljust(width)}  LLC misses/kinstr  "
                 "L1 miss rate  chip W"]
        for name in sorted(misses, key=lambda n: -misses[n]):
            run = self.runs[name]
            lines.append(
                f"{name.ljust(width)}  {misses[name]:17.2f}  "
                f"{run.cache['l1_miss_rate']:12.3f}  "
                f"{power[name]:6.1f}")
        return "\n".join(lines)


def llc_stress_experiment(seed: int = CACHE_SEED,
                          scale: Optional[GAScale] = None
                          ) -> LlcStressResult:
    """Run the full extension experiment."""
    engine, history = evolve_llc_virus(seed, scale)
    virus = history.best_individual
    result = LlcStressResult(virus=virus, history=history)

    scorer = cache_machine(seed + 10_000)
    cores = 1   # miss counters are per-instance; one core is the clean read
    sources = {
        "llcVirus": engine.render_source(virus),
        "l1_resident": _l1_resident_source(),
        "streaming": _streaming_source(),
    }
    for name, source in sources.items():
        result.runs[name] = scorer.run_source(source, name=name,
                                              cores=cores)
    return result
