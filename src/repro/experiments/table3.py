"""Table III: instruction breakdown of the Cortex-A15 and Cortex-A7
power viruses.

Reuses the Figure 5/6 viruses (memoised by seed/scale) and classifies
their 50-instruction loops into the paper's five categories.  The
paper's qualitative observations asserted by the benchmark:

* float/SIMD instructions are prominent in both viruses;
* the Cortex-A7 virus uses (many) more branches than the Cortex-A15
  virus — stressing the little in-order core needs branch-unit power;
* both loops total exactly the configured 50 instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.instruction_mix import breakdown_table, mix_of_individual
from .common import GAScale, VirusResult, evolve_virus
from .power_virus import A15_SEED, A7_SEED

__all__ = ["Table3Result", "table3"]


@dataclass
class Table3Result:
    """The two power viruses and their instruction mixes."""

    a15_virus: VirusResult
    a7_virus: VirusResult

    @property
    def a15_mix(self) -> Dict[str, int]:
        return mix_of_individual(self.a15_virus.individual)

    @property
    def a7_mix(self) -> Dict[str, int]:
        return mix_of_individual(self.a7_virus.individual)

    def render(self) -> str:
        rows = [("Cortex-A15", self.a15_mix), ("Cortex-A7", self.a7_mix)]
        return ("Instruction breakdown of power viruses "
                "(paper Table III)\n" + breakdown_table(rows))


def table3(scale: Optional[GAScale] = None) -> Table3Result:
    """Reproduce Table III from the Figure 5/6 viruses."""
    scale = scale or GAScale()
    return Table3Result(
        a15_virus=evolve_virus("cortex_a15", "power", A15_SEED,
                               scale=scale, name="A15powerVirus"),
        a7_virus=evolve_virus("cortex_a7", "power", A7_SEED,
                              scale=scale, name="A7powerVirus"),
    )
