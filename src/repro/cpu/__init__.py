"""CPU substrate: microarchitectures, pipeline, power, thermal, PDN,
cache hierarchy."""

from .cache import (STOCK_L1, STOCK_L2, AccessResult, Cache, CacheConfig,
                    CacheStats, MemoryHierarchy)

from .machine import ENVIRONMENTS, RunResult, SimulatedMachine
from .microarch import (MicroArch, PDNParams, PRESETS, ThermalParams,
                        microarch_for, preset_names)
from .pdn import PDNModel, VoltageTrace
from .pipeline import ExecutionTrace, PipelineSimulator
from .power import PowerModel, value_toggle_activity
from .target import SimulatedTarget
from .thermal import ThermalModel

__all__ = [
    "AccessResult", "Cache", "CacheConfig", "CacheStats",
    "MemoryHierarchy", "STOCK_L1", "STOCK_L2",
    "ENVIRONMENTS", "RunResult", "SimulatedMachine",
    "MicroArch", "PDNParams", "PRESETS", "ThermalParams",
    "microarch_for", "preset_names",
    "PDNModel", "VoltageTrace",
    "ExecutionTrace", "PipelineSimulator",
    "PowerModel", "value_toggle_activity",
    "SimulatedTarget",
    "ThermalModel",
]
