"""Measurement procedures (paper Section III.C)."""

from typing import Dict

from .base import Measurement
from .cache_misses import CacheMissMeasurement
from .ipc import IPCMeasurement
from .oscilloscope import OscilloscopeMeasurement
from .power import PowerMeasurement
from .temperature import TemperatureMeasurement

__all__ = [
    "CacheMissMeasurement",
    "Measurement",
    "MEASUREMENTS",
    "IPCMeasurement",
    "OscilloscopeMeasurement",
    "PowerMeasurement",
    "TemperatureMeasurement",
]

#: The stock procedure for each metric, keyed by its class's ``metric``.
MEASUREMENTS: Dict[str, type] = {
    cls.metric: cls for cls in (PowerMeasurement, TemperatureMeasurement,
                                IPCMeasurement, OscilloscopeMeasurement)}
