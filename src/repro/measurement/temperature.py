"""Chip-temperature measurement — the i2c sensor stand-in (paper §V).

The X-Gene2 power virus is generated "by optimizing towards maximum
temperature" read over the i2c interface.  Returned measurements:

``[temperature_c, average_power_w, ipc]``

Temperature first (the fitness), with power and IPC recorded for the
Table IV style post-analysis.
"""

from __future__ import annotations

from typing import List

from ..core.individual import Individual
from ..cpu.machine import RunResult
from .base import Measurement

__all__ = ["TemperatureMeasurement"]


class TemperatureMeasurement(Measurement):
    """Quantised chip temperature after the run duration."""

    metric = "temperature"

    def measure_from_result(self, result: RunResult,
                            individual: Individual) -> List[float]:
        return [result.temperature_c, result.avg_power_w, result.ipc]
