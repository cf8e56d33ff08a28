"""Section IV's framework-runtime model.

"the GeST runtime is defined by: a) time to measure each individual,
b) for how many generations the optimization is performed, and c) how
many individuals are measured per generation ... Given 50 individuals
per population and 5 seconds per measurement (which is typical for
power optimization) the runtime is approximately 7 hours."

Note 50 × 100 × 5 s = 6.9 h of pure measurement; the remaining runtime
is per-individual overhead (file transfer, compile, process startup),
modelled here as a constant per measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigError

__all__ = ["RuntimeEstimate", "estimate_runtime"]

#: Per-individual overhead (scp + compile + launch) in seconds.
OVERHEAD_S = 0.35


@dataclass(frozen=True)
class RuntimeEstimate:
    """Breakdown of a GA run's wall-clock time."""

    population_size: int
    generations: int
    measurement_s: float
    overhead_s: float

    @property
    def measurements(self) -> int:
        return self.population_size * self.generations

    @property
    def total_s(self) -> float:
        return self.measurements * (self.measurement_s + self.overhead_s)

    @property
    def total_hours(self) -> float:
        return self.total_s / 3600.0


def estimate_runtime(population_size: int = 50, generations: int = 100,
                     measurement_s: float = 5.0) -> RuntimeEstimate:
    """Estimate a GA run's wall time (defaults = the paper's example)."""
    if population_size < 1 or generations < 1:
        raise ConfigError("population size and generations must be >= 1")
    if measurement_s <= 0:
        raise ConfigError("times must be positive")
    return RuntimeEstimate(population_size=population_size,
                           generations=generations,
                           measurement_s=measurement_s,
                           overhead_s=OVERHEAD_S)
