"""Cache-miss measurement — the LLC/DRAM stress extension (paper §VII).

"with GeST is possible to stress LLC or DRAM by instructing the
framework to optimize towards cache-misses".  Requires a target machine
constructed with a :class:`~repro.cpu.cache.MemoryHierarchy`; the
counters mimic what ``perf`` exposes as LLC-load-misses.  Returned
measurements:

``[llc_misses_per_kinstr, l1_miss_rate, l2_miss_rate, avg_power_w, ipc]``
"""

from __future__ import annotations

from typing import List

from ..core.errors import MeasurementError
from ..core.individual import Individual
from ..cpu.machine import RunResult
from .base import Measurement

__all__ = ["CacheMissMeasurement"]


class CacheMissMeasurement(Measurement):
    """LLC misses per thousand instructions (the fitness) plus the
    supporting hierarchy counters."""

    metric = "llc_mpki"

    def measure_from_result(self, result: RunResult,
                            individual: Individual) -> List[float]:
        if result.cache is None:
            raise MeasurementError(
                "cache-miss measurement needs a machine with a "
                "MemoryHierarchy attached (SimulatedMachine(..., "
                "hierarchy=MemoryHierarchy()))")
        cache = result.cache
        instructions = max(1, result.trace.instructions_issued)
        llc_per_kinstr = cache["llc_misses"] / instructions * 1000.0
        return [llc_per_kinstr, cache["l1_miss_rate"],
                cache["l2_miss_rate"], result.avg_power_w, result.ipc]
