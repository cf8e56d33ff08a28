"""Shared-memory multi-core stress extension (paper Section IV).

The paper compares against MAMPO's finding that, on simulated
multi-cores, power viruses accessing shared memory draw significantly
more total power because the network-on-chip is heavily engaged — and
notes that adding this to GeST only needs a shared-memory template plus
shared-access instruction definitions ("This important extension is
beyond the scope of this work").  This driver implements it:

* the *private* search runs the stock template (both base registers in
  core-private memory);
* the *shared* search runs :func:`~repro.isa.catalogs.
  arm_shared_template`, whose second base register points into the
  shared segment, letting the GA route memory traffic over the NoC.

Both viruses are scored with one instance per core on the 8-core
server, where interconnect traffic scales with the instance count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.config import RunConfig
from ..core.engine import GeneticEngine
from ..core.individual import Individual
from ..cpu.machine import RunResult, SimulatedMachine
from ..cpu.target import SimulatedTarget
from ..fitness.default_fitness import DefaultFitness
from ..isa.catalogs import arm_library, arm_shared_template, arm_template
from ..measurement.power import PowerMeasurement
from .common import GAScale

__all__ = ["SHARED_SEED", "SharedMemoryResult", "shared_memory_experiment"]

SHARED_SEED = 51


@dataclass
class SharedMemoryResult:
    """Private-template vs shared-template power viruses."""

    private_virus: Individual
    shared_virus: Individual
    runs: Dict[str, RunResult] = field(default_factory=dict)
    shared_fraction: float = 0.0

    def chip_power_w(self) -> Dict[str, float]:
        return {name: run.avg_power_w for name, run in self.runs.items()}

    def noc_power_w(self) -> Dict[str, float]:
        return {name: run.noc_power_w for name, run in self.runs.items()}

    def render(self) -> str:
        lines = ["shared-memory extension on the 8-core server "
                 "(paper Section IV):"]
        for name, run in sorted(self.runs.items(),
                                key=lambda kv: -kv[1].avg_power_w):
            lines.append(
                f"  {name:16s} chip {run.avg_power_w:6.1f} W "
                f"(NoC {run.noc_power_w:5.1f} W, ipc {run.ipc:.2f})")
        lines.append(f"  shared virus routes "
                     f"{self.shared_fraction * 100:.0f}% of its memory "
                     "instructions through the shared segment")
        return "\n".join(lines)


def _evolve(template_text: str, seed: int,
            scale: GAScale) -> tuple:
    machine = SimulatedMachine("xgene2", environment="os", seed=seed)
    config = RunConfig(ga=scale.ga_parameters(seed), library=arm_library(),
                       template_text=template_text)
    # Power measured with all 8 instances so the GA can feel the NoC
    # contribution (single-core shared traffic barely engages it).
    engine = GeneticEngine(
        config,
        PowerMeasurement(SimulatedTarget(machine),
                         {"samples": str(scale.samples), "cores": "8"}),
        DefaultFitness())
    history = engine.run()
    return engine, history.best_individual


def shared_memory_experiment(seed: int = SHARED_SEED,
                             scale: Optional[GAScale] = None
                             ) -> SharedMemoryResult:
    """Evolve and compare private vs shared-memory power viruses."""
    scale = scale or GAScale(population_size=20, generations=25)
    private_engine, private_virus = _evolve(arm_template(), seed, scale)
    shared_engine, shared_virus = _evolve(arm_shared_template(), seed,
                                          scale)

    scorer = SimulatedMachine("xgene2", environment="os",
                              seed=seed + 10_000)
    result = SharedMemoryResult(private_virus=private_virus,
                                shared_virus=shared_virus)
    sources = {
        "privateVirus": private_engine.render_source(private_virus),
        "sharedVirus": shared_engine.render_source(shared_virus),
    }
    for name, source in sources.items():
        program = scorer.compile(source, name=name)
        result.runs[name] = scorer.run(program,
                                       cores=scorer.arch.core_count)
        if name == "sharedVirus":
            result.shared_fraction = \
                scorer.shared_access_fraction(program)
    return result
