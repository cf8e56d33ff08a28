"""The paper's genetic algorithm as a pluggable strategy.

This is the same breeding loop ``GeneticEngine`` always ran (paper
Figure 3: elitism, tournament selection, one-point crossover,
mutation) — extracted behind the :class:`SearchStrategy` contract with
selection and crossover resolved by name from the registries.  Under
the default operator set the RNG draw order and uid allocation order
are identical to the pre-refactor engine, so existing configs,
checkpoints and recorded populations reproduce bit-for-bit.
"""

from __future__ import annotations

from typing import List

from ..core.individual import Individual
from ..core.population import Population
from .base import STRATEGIES, SearchStrategy
from .operators import CROSSOVER_OPERATORS, SELECTION_OPERATORS, mutate

__all__ = ["GeneticStrategy"]


@STRATEGIES.register("genetic")
class GeneticStrategy(SearchStrategy):
    """Generational GA: elitism + selection + crossover + mutation.

    Takes no parameters: every setting comes from the ``<ga>`` block
    (``parent_selection_method``, ``crossover_operator``,
    ``mutation_rate``, ``operand_mutation_share``, ``elitism``).  The
    pruning strategies (:mod:`repro.search.pruning`) subclass it.
    """

    name = "genetic"

    def _bound(self) -> None:
        ga = self.config.ga
        self._select = SELECTION_OPERATORS.get(ga.parent_selection_method)
        self._crossover = CROSSOVER_OPERATORS.get(ga.crossover_operator)

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        """Create the next generation (paper Figure 3)."""
        ga = self.config.ga
        children: List[Individual] = []
        if ga.elitism:
            elite = population.fittest()
            children.append(elite.clone(uid=self.take_uid(),
                                        parent_ids=(elite.uid,)))

        while len(children) < ga.population_size:
            parent1 = self._select(population.individuals, self.rng, ga)
            parent2 = self._select(population.individuals, self.rng, ga)
            genome1, genome2 = self._crossover(parent1, parent2, self.rng)
            for genome in (genome1, genome2):
                if len(children) >= ga.population_size:
                    break
                mutated = mutate(genome, self.config.library, self.rng,
                                 ga.mutation_rate,
                                 ga.operand_mutation_share)
                children.append(Individual(
                    mutated, uid=self.take_uid(),
                    parent_ids=(parent1.uid, parent2.uid)))

        return Population(children, number=next_number)
