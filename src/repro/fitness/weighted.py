"""Generic weighted multi-objective fitness.

A reusable building block for "more complicated fitness functions" the
paper motivates (e.g. "maximize voltage droop while keeping average
power low"): a signed, normalised, weighted sum over measurement
indices.  Negative weights penalise; each term is divided by its
normaliser so objectives with different units can be mixed.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..core.errors import ConfigError, MeasurementError
from ..core.individual import Individual
from .default_fitness import DefaultFitness

__all__ = ["WeightedFitness", "DroopOverPowerFitness"]


class WeightedFitness(DefaultFitness):
    """``F = Σ_k weight_k · measurements[index_k] / normaliser_k``."""

    def __init__(self, terms: Sequence[Tuple[int, float, float]]) -> None:
        """``terms`` is a sequence of (measurement_index, weight,
        normaliser) triples."""
        if not terms:
            raise ConfigError("weighted fitness needs at least one term")
        for index, _, normaliser in terms:
            if index < 0:
                raise ConfigError(f"negative measurement index {index}")
            if normaliser == 0:
                raise ConfigError("normaliser cannot be zero")
        self.terms = tuple(terms)

    def get_fitness(self, measurements: Sequence[float],
                    individual: Individual) -> float:
        total = 0.0
        for index, weight, normaliser in self.terms:
            if index >= len(measurements):
                raise MeasurementError(
                    f"fitness term references measurement {index} but only "
                    f"{len(measurements)} were taken")
            total += weight * measurements[index] / normaliser
        return total

    getFitness = get_fitness


class DroopOverPowerFitness(WeightedFitness):
    """Maximise voltage droop while keeping average power low — the
    paper's example of a desirable complex fitness for dI/dt searches.

    Works with :class:`~repro.measurement.oscilloscope.
    OscilloscopeMeasurement` output
    (``[pk-pk, droop, v_min, v_max, avg_power]``).
    """

    #: Weight of normalised average power against normalised droop.
    POWER_PENALTY = 0.25

    def __init__(self, droop_normaliser_v: float,
                 power_normaliser_w: float) -> None:
        if droop_normaliser_v <= 0 or power_normaliser_w <= 0:
            raise ConfigError("normalisers must be positive")
        super().__init__([
            (1, 1.0, droop_normaliser_v),
            (4, -self.POWER_PENALTY, power_normaliser_w),
        ])
