"""Random search — the paper's baseline (Section III.A, Figure 5).

Every generation is ``population_size`` fresh random individuals; no
information flows between generations.  The engine still tracks the
best individual seen across the whole run, so a random-search
:class:`~repro.core.engine.RunHistory` is directly comparable to a GA
one — exactly the comparison the paper uses to justify the GA.
"""

from __future__ import annotations

from ..core.population import Population
from .base import STRATEGIES, SearchStrategy

__all__ = ["RandomStrategy"]


@STRATEGIES.register("random")
class RandomStrategy(SearchStrategy):
    """Independent random sampling each generation.

    Stateless beyond the RNG stream (which the engine checkpoints), so
    ``state_dict`` is empty.  Generation 0 honours a configured
    seed-population file like every strategy — the baseline comparison
    stays apples-to-apples when both searches start from the same
    seeds.
    """

    name = "random"

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        return self.random_population(next_number)
