"""Table IV: power virus vs simple power virus vs IPC virus.

The simple power virus is evolved with the paper's Equation 1 fitness —
equal parts temperature score and instruction-stream simplicity — and
should match the plain power virus's temperature/power while using far
fewer unique opcodes (paper: 13 vs 21).

The comparison table reports instruction mixes plus IPC, power and
temperature relative to the power virus, exactly like Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..analysis.instruction_mix import breakdown_table, mix_of_individual
from ..fitness.complex_fitness import TemperatureSimplicityFitness
from .common import GAScale, VirusResult, make_engine, make_machine, \
    evolve_virus
from .temperature_virus import XGENE_IPC_SEED, XGENE_SCALE, XGENE_TEMP_SEED

__all__ = ["Table4Result", "evolve_simple_virus", "table4",
           "XGENE_SIMPLE_SEED"]

XGENE_SIMPLE_SEED = 25


def evolve_simple_virus(seed: int = XGENE_SIMPLE_SEED,
                        scale: Optional[GAScale] = None,
                        platform: str = "xgene2",
                        max_temperature_c: Optional[float] = None
                        ) -> VirusResult:
    """Evolve the Equation-1 virus ("powerVirusSimple").

    Runs "for the same number of populations as the GA that generated
    the power virus" (paper Section V.A).  ``max_temperature_c`` is the
    MAX_T normaliser; the paper obtains it "either from a previous GA
    run or from specifications" — :func:`table4` passes the power
    virus's achieved single-core temperature, the fallback is the
    machine's single-core specification bound.
    """
    scale = scale or XGENE_SCALE
    machine = make_machine(platform, seed=seed)
    if max_temperature_c is None:
        max_temperature_c = machine.max_temperature_c(active_cores=1)
    fitness = TemperatureSimplicityFitness(
        idle_temperature_c=machine.idle_temperature_c(),
        max_temperature_c=max_temperature_c)
    engine = make_engine(machine, "temperature", seed, scale,
                         fitness=fitness)
    history = engine.run()
    best = history.best_individual
    source = engine.render_source(best)
    scorer = make_machine(platform, seed=seed + 10_000)
    run = scorer.run_source(source, cores=scorer.arch.core_count)
    return VirusResult(name="powerVirusSimple", platform=platform,
                       metric="temperature+simplicity", individual=best,
                       source=source, history=history, all_cores_run=run)


@dataclass
class Table4Result:
    """The three viruses and their relative metrics."""

    power_virus: VirusResult
    simple_virus: VirusResult
    ipc_virus: VirusResult
    relative_ipc: Dict[str, float] = field(default_factory=dict)
    relative_power: Dict[str, float] = field(default_factory=dict)
    relative_temperature: Dict[str, float] = field(default_factory=dict)
    unique_instructions: Dict[str, int] = field(default_factory=dict)

    def viruses(self):
        return (self.power_virus, self.simple_virus, self.ipc_virus)

    def render(self) -> str:
        rows = [(v.name, mix_of_individual(v.individual))
                for v in self.viruses()]
        extra = [
            ("Relative IPC", self.relative_ipc),
            ("Relative Power", self.relative_power),
            ("Relative Temp.", self.relative_temperature),
            ("# Unique Instr.", self.unique_instructions),
        ]
        return breakdown_table(rows, extra_columns=extra)


def table4(scale: Optional[GAScale] = None) -> Table4Result:
    """Reproduce Table IV on the simulated X-Gene2."""
    scale = scale or XGENE_SCALE
    power_virus = evolve_virus("xgene2", "temperature", XGENE_TEMP_SEED,
                               scale=scale, name="powerVirus")
    ipc_virus = evolve_virus("xgene2", "ipc", XGENE_IPC_SEED, scale=scale,
                             name="IPCvirus")
    # MAX_T from the previous GA run, as the paper does: the power
    # virus's best single-core temperature measurement.
    max_t = power_virus.individual.measurements[0]
    simple_virus = evolve_simple_virus(XGENE_SIMPLE_SEED, scale=scale,
                                       max_temperature_c=max_t)

    reference = power_virus.all_cores_run
    result = Table4Result(power_virus=power_virus,
                          simple_virus=simple_virus,
                          ipc_virus=ipc_virus)
    for virus in result.viruses():
        run = virus.all_cores_run
        result.relative_ipc[virus.name] = run.ipc / reference.ipc
        result.relative_power[virus.name] = \
            run.avg_power_w / reference.avg_power_w
        result.relative_temperature[virus.name] = \
            run.temperature_c / reference.temperature_c
        result.unique_instructions[virus.name] = \
            virus.individual.unique_instruction_count()
    return result
