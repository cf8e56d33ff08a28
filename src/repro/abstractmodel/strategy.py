"""The abstract-workload search as a strategy (paper Section VII).

The MAMPO/SYMPO-style search: the genome is a :class:`WorkloadProfile`
vector, the GA operators act on the vector, and each individual's loop
body is *generated* stochastically from its profile before it is
measured.  :class:`AbstractProfileStrategy` runs on
:class:`~repro.core.engine.GeneticEngine` like the instruction-level
search, so both framework styles share one generation loop, executor,
per-source measurement noise, evaluation cache, recorders and
checkpoints, and a comparison between them holds everything but the
genome constant.

Each individual carries a ``generation_seed`` gene: the code generated
for a profile is deterministic per individual (so fitness is
repeatable) but resamples under mutation — giving the abstract search
its characteristic semi-random relationship between genome and code.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.errors import ConfigError
from ..core.individual import Individual
from ..core.population import Population
from ..core.rng import make_rng
from ..search.base import SearchStrategy
from ..search.operators import SELECTION_OPERATORS
from .generator import generate_loop
from .profile import CATEGORIES, WorkloadProfile

__all__ = ["ProfileIndividual", "AbstractProfileStrategy"]


class ProfileIndividual(Individual):
    """An individual whose genome is a workload profile plus the seed
    its ``loop_size``-instruction body is generated from.

    Its ``instructions`` tuple is empty: the code is generated, not
    evolved, so a fitness plug-in reading the instruction stream (the
    Equation-1 simplicity score) sees no genome of its own.
    """

    __slots__ = ("profile", "generation_seed", "loop_size")

    def __init__(self, profile: WorkloadProfile, generation_seed: int,
                 loop_size: int, uid: int = -1,
                 parent_ids: Tuple[int, ...] = ()) -> None:
        super().__init__((), uid=uid, parent_ids=parent_ids)
        self.profile = profile
        self.generation_seed = generation_seed
        self.loop_size = loop_size

    def render_body(self) -> str:
        return generate_loop(self.profile, self.loop_size,
                             make_rng(self.generation_seed))

    def genome_key(self) -> tuple:
        profile = self.profile
        return (tuple(profile.mix[c] for c in CATEGORIES),
                profile.dependency_distance, profile.fma_fraction,
                profile.mem_stride, self.generation_seed)

    def clone(self, uid: int = -1,
              parent_ids: Tuple[int, ...] = ()) -> "ProfileIndividual":
        return ProfileIndividual(self.profile, self.generation_seed,
                                 self.loop_size, uid=uid,
                                 parent_ids=parent_ids)


class AbstractProfileStrategy(SearchStrategy):
    """Generational GA over workload-profile vectors.

    Takes no parameters: the ``<ga>`` block sets the population size,
    the generated loop's size (``individual_size``), elitism and the
    parent selection; the profile's own blend crossover and Gaussian
    mutation replace the instruction-level operators.  The generator
    emits ARM code, so binding to a non-ARM machine raises
    :class:`ConfigError`.
    """

    name = "abstract_profile"

    def _bound(self) -> None:
        if self.arch.isa != "arm":
            raise ConfigError(
                f"search strategy {self.name!r} generates ARM code; the "
                f"measured machine {self.arch.name!r} is "
                f"{self.arch.isa}")
        self._select = SELECTION_OPERATORS.get(
            self.config.ga.parent_selection_method)

    def _spawn(self, profile: WorkloadProfile,
               parent_ids: Tuple[int, ...] = ()) -> ProfileIndividual:
        return ProfileIndividual(profile, self.rng.getrandbits(32),
                                 self.config.ga.individual_size,
                                 uid=self.take_uid(), parent_ids=parent_ids)

    def initial_population(self) -> Population:
        if self.config.seed_population_file is not None:
            population = super().initial_population()
            if not all(isinstance(individual, ProfileIndividual)
                       for individual in population):
                raise ConfigError(
                    f"seed population {self.config.seed_population_file} "
                    f"holds instruction-level individuals; search "
                    f"strategy {self.name!r} seeds only from workload "
                    "profiles")
            return population
        return Population(
            [self._spawn(WorkloadProfile.random(self.rng))
             for _ in range(self.config.ga.population_size)], number=0)

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        ga = self.config.ga
        children: List[Individual] = []
        if ga.elitism:
            elite = population.fittest()
            children.append(elite.clone(uid=self.take_uid(),
                                        parent_ids=(elite.uid,)))
        while len(children) < ga.population_size:
            parent1 = self._select(population.individuals, self.rng, ga)
            parent2 = self._select(population.individuals, self.rng, ga)
            profile = parent1.profile.crossover(parent2.profile, self.rng)
            children.append(self._spawn(profile.mutate(self.rng),
                                        (parent1.uid, parent2.uid)))
        return Population(children, number=next_number)
