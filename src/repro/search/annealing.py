"""Simulated annealing over the instruction-sequence space.

Like the hill climber it extends, one incumbent proposes
``population_size`` mutated neighbours per generation (a batched random
walk — the evaluation layer measures them all in one pass).  Unlike the
climber, acceptance is the Metropolis criterion: a worse candidate is
accepted with probability ``exp(Δfitness / T)``, and the temperature
``T`` decays geometrically each generation.  Early generations explore
across fitness valleys; late generations behave like hill climbing.

The temperature is genuine strategy state — it cannot be recovered from
the population or the RNG stream — so it rides in every checkpoint via
``state_dict`` and a resumed run cools from exactly where it stopped.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from ..core.errors import ConfigError
from ..core.population import Population
from .base import STRATEGIES
from .hill_climb import HillClimbStrategy

__all__ = ["SimulatedAnnealingStrategy"]


@STRATEGIES.register("simulated_annealing")
class SimulatedAnnealingStrategy(HillClimbStrategy):
    """Metropolis walk with geometric cooling.

    Neighbours are proposed exactly as by :class:`HillClimbStrategy`
    (the ``<ga>`` block's mutation and elitism settings).  Takes no
    parameters; the schedule is three class constants.
    """

    name = "simulated_annealing"
    #: The starting ``T``, near the typical fitness delta between
    #: neighbours so early acceptance of worse moves is likely but not
    #: certain.
    INITIAL_TEMPERATURE = 1.0
    #: Per-generation decay, ``T ← max(MIN_TEMPERATURE, T × COOLING)``.
    COOLING = 0.95
    #: Cooling floor; keeps the acceptance probability well-defined and
    #: leaves a trickle of exploration even in long runs.
    MIN_TEMPERATURE = 1e-3

    def __init__(self) -> None:
        super().__init__()
        self._temperature: float = self.INITIAL_TEMPERATURE

    def observe(self, population: Population) -> None:
        """Metropolis-walk the evaluated candidates in population order,
        then cool once for the generation."""
        for candidate in population:
            if self._current is None:
                self._current = candidate
                continue
            delta = candidate.fitness - self._current.fitness
            if delta >= 0.0:
                self._current = candidate
            elif self.rng.random() < math.exp(delta / self._temperature):
                self._current = candidate
        self._temperature = max(self.MIN_TEMPERATURE,
                                self._temperature * self.COOLING)

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "temperature": self._temperature}

    def load_state(self, state: Dict[str, Any]) -> None:
        super().load_state(state)
        if "temperature" in state:
            temperature = state["temperature"]
            if not isinstance(temperature, (int, float)) or \
                    not temperature > 0.0:
                raise ConfigError(
                    "simulated_annealing checkpoint state has a "
                    f"non-positive temperature {temperature!r}")
            self._temperature = temperature
