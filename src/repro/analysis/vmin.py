"""V_MIN characterisation (paper Section VI, Figure 9).

"To characterize the V_MIN of a workload we run the workload multiple
times and each time we lower the operating voltage in steps of 12.5mV.
We keep the CPU frequency stable at the nominal value..."  A workload
passes at a supply setting when the die voltage never dips below the
critical timing voltage during the run; V_MIN is the lowest passing
setting.  A workload with a *higher* V_MIN is the better stability
test — it exposes the margin first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.errors import SimulationError
from ..cpu.machine import SimulatedMachine
from ..isa.model import Program

__all__ = ["VMIN_STEP_V", "VminResult", "characterize_vmin", "vmin_table"]

#: The paper's sweep step.
VMIN_STEP_V = 0.0125


@dataclass
class VminResult:
    """Outcome of one workload's V_MIN sweep."""

    workload: str
    vmin_v: float
    nominal_v: float
    #: (supply setting, passed) pairs in sweep order (downwards).
    sweep: List[Tuple[float, bool]] = field(default_factory=list)

    @property
    def guardband_v(self) -> float:
        """Margin between nominal supply and V_MIN."""
        return self.nominal_v - self.vmin_v


def characterize_vmin(machine: SimulatedMachine, program: Program,
                      cores: Optional[int] = None,
                      step_v: float = VMIN_STEP_V,
                      name: Optional[str] = None) -> VminResult:
    """Sweep the supply down from nominal until the workload crashes.

    Returns the lowest passing setting.  The sweep stops two steps
    below the critical voltage, where nothing passes.
    """
    if step_v <= 0:
        raise SimulationError("sweep step must be positive")
    nominal = machine.arch.vdd_nominal
    floor = machine.critical_voltage_v() - 2 * step_v
    cores = cores if cores is not None else machine.arch.core_count

    sweep: List[Tuple[float, bool]] = []
    last_passing: Optional[float] = None
    supply = nominal
    while supply > floor:
        result = machine.run(program, cores=cores, supply_v=supply,
                             power_sample_count=1)
        passed = not result.crashed
        sweep.append((supply, passed))
        if not passed:
            break
        last_passing = supply
        supply = round(supply - step_v, 6)

    if last_passing is None:
        # Crashes even at nominal: V_MIN is above the nominal supply;
        # report nominal + one step to preserve ordering.
        last_passing = nominal + step_v
    return VminResult(workload=name or program.name, vmin_v=last_passing,
                      nominal_v=nominal, sweep=sweep)


def vmin_table(results: List[VminResult]) -> str:
    """Render a Figure 9 style listing, highest V_MIN first."""
    ordered = sorted(results, key=lambda r: r.vmin_v, reverse=True)
    width = max(len(r.workload) for r in ordered)
    lines = [f"{'workload'.ljust(width)}  V_MIN (V)  guardband (mV)"]
    for r in ordered:
        lines.append(f"{r.workload.ljust(width)}  {r.vmin_v:9.4f}  "
                     f"{r.guardband_v * 1000:14.1f}")
    return "\n".join(lines)
