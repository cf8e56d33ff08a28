"""Parallel hill climbing over the instruction-sequence space.

A single incumbent is tracked; every generation proposes
``population_size`` mutated neighbours of it (evaluated as one batch —
the framework's population machinery doubles as a parallel neighbour
sweep), and the incumbent moves only to a strictly better neighbour.
This is the natural "local search" baseline between the paper's random
baseline and the full GA: it exploits locality (good stress kernels are
usually one instruction swap away from good stress kernels) but cannot
cross fitness valleys — exactly the failure mode simulated annealing
(:mod:`repro.search.annealing`) addresses.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.errors import ConfigError
from ..core.individual import Individual
from ..core.population import Population
from .base import STRATEGIES, SearchStrategy
from .operators import mutate

__all__ = ["HillClimbStrategy"]


@STRATEGIES.register("hill_climb")
class HillClimbStrategy(SearchStrategy):
    """Steepest-ascent hill climbing with a batched neighbourhood.

    Takes no parameters.  The neighbour move is the paper's mutation
    at the ``<ga>`` block's ``mutation_rate`` and
    ``operand_mutation_share``, and with ``elitism`` set every
    neighbourhood also re-measures an unchanged copy of the incumbent.

    Every neighbour is measured (pruning is the GA's alone), so the
    incumbent always carries a fitness.  It is strategy state: it
    survives checkpoints via ``state_dict`` so a resumed climb
    continues from the same point in the landscape.  A checkpoint
    written before generation 0 finished holds no incumbent yet;
    ``observe`` sets one before the next neighbourhood is proposed.
    """

    name = "hill_climb"

    def __init__(self) -> None:
        super().__init__()
        self._current: Optional[Individual] = None

    def observe(self, population: Population) -> None:
        fittest = population.fittest()
        if self._current is None or fittest.fitness > self._current.fitness:
            self._current = fittest

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        ga = self.config.ga
        current = self._current
        children = []
        if ga.elitism:
            children.append(current.clone(uid=self.take_uid(),
                                          parent_ids=(current.uid,)))
        while len(children) < ga.population_size:
            mutated = mutate(list(current.instructions),
                             self.config.library, self.rng,
                             ga.mutation_rate, ga.operand_mutation_share)
            children.append(Individual(mutated, uid=self.take_uid(),
                                       parent_ids=(current.uid,)))
        return Population(children, number=next_number)

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {"current": self._current}

    def load_state(self, state: Dict[str, Any]) -> None:
        # The keys this strategy writes are the keys it accepts.
        unexpected = set(state) - set(self.state_dict())
        if unexpected:
            raise ConfigError(
                f"{self.name} checkpoint state has unexpected key(s) "
                f"{', '.join(sorted(unexpected))}; the checkpoint was "
                "written by a different strategy or version")
        current = state.get("current")
        if current is not None and not isinstance(current, Individual):
            raise ConfigError(
                f"{self.name} checkpoint state 'current' is not an "
                "Individual")
        self._current = current
