"""Power measurement — the ARM energy probe stand-in (paper Section V).

"The measurement function for this optimization executes each GA
generated binary for few seconds and takes multiple power readings
during the binary execution."  Returned measurements:

``[average_power_w, peak_power_w]``

so the default fitness maximises average power and the output file
names carry both values (the paper's ``1_10_1.30_1.33.txt`` example).
"""

from __future__ import annotations

from typing import List

from ..core.individual import Individual
from ..cpu.machine import RunResult
from .base import Measurement

__all__ = ["PowerMeasurement"]


class PowerMeasurement(Measurement):
    """Average and peak power over multiple samples."""

    metric = "power"

    def measure_from_result(self, result: RunResult,
                            individual: Individual) -> List[float]:
        samples = result.power_samples_w
        average = sum(samples) / len(samples)
        return [average, max(samples)]
