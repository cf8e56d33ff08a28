"""Figure 7: X-Gene2 chip temperature.

The power virus is evolved by maximising the i2c chip-temperature
reading; the IPC virus by maximising ``perf`` IPC.  Both run on all 8
cores alongside the Parsec/NAS baselines, and the figure normalises
temperature to bodytrack.

The paper normalises raw sensor readings; ambient offset means relative
differences look small (a 12 °C gap over a 70 °C reading is ~1.17x).
``rise_over_ambient`` is also provided because it is the physically
meaningful comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.reports import bar_chart, figure_rows, normalize
from ..workloads.library import FIGURE_BASELINES
from .common import GAScale, VirusResult, evolve_virus, make_machine, \
    score_baselines

__all__ = ["TemperatureFigureResult", "figure7", "XGENE_TEMP_SEED",
           "XGENE_IPC_SEED", "XGENE_SCALE"]

XGENE_TEMP_SEED = 21
XGENE_IPC_SEED = 22

#: The temperature landscape is noisier (OS environment, quantised
#: sensor), so the stock scale runs more generations there.
XGENE_SCALE = GAScale(population_size=26, generations=45)


@dataclass
class TemperatureFigureResult:
    """Figure 7: chip temperatures with one instance per core."""

    power_virus: VirusResult
    ipc_virus: VirusResult
    temperature_c: Dict[str, float] = field(default_factory=dict)
    ambient_c: float = 30.0
    reference: str = "bodytrack"

    @property
    def normalized(self) -> Dict[str, float]:
        return normalize(self.temperature_c, self.reference)

    @property
    def rise_over_ambient(self) -> Dict[str, float]:
        return {name: temp - self.ambient_c
                for name, temp in self.temperature_c.items()}

    def rows(self) -> List[Tuple[str, float]]:
        return figure_rows(self.temperature_c, reference=self.reference)

    def render(self) -> str:
        return bar_chart(
            self.rows(),
            title="X-Gene2 chip temperature, normalised to bodytrack "
                  "(paper Figure 7)",
            unit="x")


def figure7(scale: Optional[GAScale] = None) -> TemperatureFigureResult:
    """X-Gene2 chip temperature results (paper Figure 7)."""
    scale = scale or XGENE_SCALE
    power_virus = evolve_virus("xgene2", "temperature", XGENE_TEMP_SEED,
                               scale=scale, name="powerVirus")
    ipc_virus = evolve_virus("xgene2", "ipc", XGENE_IPC_SEED,
                             scale=scale, name="IPCvirus")

    machine = make_machine("xgene2", seed=XGENE_TEMP_SEED + 20_000)
    cores = machine.arch.core_count
    temps: Dict[str, float] = {
        "powerVirus": machine.run_source(power_virus.source,
                                         cores=cores).temperature_c,
        "IPCvirus": machine.run_source(ipc_virus.source,
                                       cores=cores).temperature_c,
    }
    baselines = score_baselines(
        "xgene2", FIGURE_BASELINES["fig7_xgene2_temperature"],
        seed=XGENE_TEMP_SEED)
    for name, run in baselines.items():
        temps[name] = run.temperature_c

    return TemperatureFigureResult(
        power_virus=power_virus,
        ipc_virus=ipc_virus,
        temperature_c=temps,
        ambient_c=machine.arch.thermal.t_ambient_c)
