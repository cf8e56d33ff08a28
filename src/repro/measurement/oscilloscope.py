"""Voltage-noise measurement — the oscilloscope stand-in (paper §VI).

"During the binary execution the minimum and maximum voltage observed
on the oscilloscope are recorded.  The binaries that achieve the
highest difference between maximum and minimum recorded voltages are
considered the fittest."  Returned measurements:

``[peak_to_peak_v, max_droop_v, v_min, v_max, average_power_w]``
"""

from __future__ import annotations

from typing import List

from ..core.individual import Individual
from ..cpu.machine import RunResult
from .base import Measurement

__all__ = ["OscilloscopeMeasurement"]


class OscilloscopeMeasurement(Measurement):
    """Peak-to-peak die voltage from the PDN waveform."""

    metric = "didt"

    def measure_from_result(self, result: RunResult,
                            individual: Individual) -> List[float]:
        trace = result.voltage
        return [trace.peak_to_peak, trace.max_droop, trace.v_min,
                trace.v_max, result.avg_power_w]
