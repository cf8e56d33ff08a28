"""GA over abstract workload profiles (paper Section VII).

The MAMPO/SYMPO-style search loop: the genome is a
:class:`WorkloadProfile` vector, GA operators act on the vector, and
each evaluation stochastically *generates* assembly from the profile
before measuring it.  The measurement/fitness plug-ins are exactly the
ones the instruction-level engine uses, so comparisons between the two
framework styles hold everything else constant.

Each individual carries a ``generation_seed`` gene: the code generated
for a profile is deterministic per individual (so fitness is
repeatable) but resamples under mutation — giving the abstract search
its characteristic semi-random relationship between genome and code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.engine import FitnessProtocol
from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual as _CodeIndividual
from ..core.rng import make_rng
from ..core.template import Template
from ..measurement.base import Measurement
from .generator import generate_loop
from .profile import WorkloadProfile

__all__ = ["AbstractIndividual", "AbstractGenerationStats",
           "AbstractEngine"]


@dataclass
class AbstractIndividual:
    """One abstract genome plus its realisation and evaluation."""

    profile: WorkloadProfile
    generation_seed: int
    uid: int = -1
    loop_body: str = ""
    measurements: List[float] = field(default_factory=list)
    fitness: Optional[float] = None

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None


@dataclass
class AbstractGenerationStats:
    number: int
    best_fitness: float
    mean_fitness: float


class AbstractEngine:
    """Tournament GA over workload-profile vectors."""

    def __init__(self, measurement: Measurement,
                 fitness: FitnessProtocol,
                 template_text: str,
                 loop_size: int = 50,
                 population_size: int = 24,
                 generations: int = 30,
                 tournament_size: int = 5,
                 elitism: bool = True,
                 seed: Optional[int] = None) -> None:
        if population_size < 2 or generations < 1 or loop_size < 1:
            raise ConfigError("invalid abstract GA parameters")
        self.measurement = measurement
        self.fitness = fitness
        self.template = Template(template_text)
        self.loop_size = loop_size
        self.population_size = population_size
        self.generations = generations
        self.tournament_size = tournament_size
        self.elitism = elitism
        self.rng = make_rng(seed)
        self._next_uid = 0
        self.history: List[AbstractGenerationStats] = []
        self.best: Optional[AbstractIndividual] = None

    # -- evaluation --------------------------------------------------------

    def _realise(self, individual: AbstractIndividual) -> str:
        body = generate_loop(individual.profile, self.loop_size,
                             make_rng(individual.generation_seed))
        individual.loop_body = body
        return self.template.instantiate(body)

    def _evaluate(self, individual: AbstractIndividual) -> None:
        if individual.evaluated:
            return
        source = self._realise(individual)
        # The fitness plug-ins inspect the individual's instruction
        # stream for e.g. simplicity scores; hand them a code-level
        # view so the same classes serve both engines.
        try:
            measurements = self.measurement.measure_repeated(source, None)
        except AssemblyError:
            individual.measurements = [0.0]
            individual.fitness = 0.0
            return
        individual.measurements = list(measurements)
        individual.fitness = self.fitness.get_fitness(
            measurements, _CodeIndividual([]))
        if self.best is None or individual.fitness > self.best.fitness:
            self.best = individual

    # -- GA loop --------------------------------------------------------------

    def _spawn(self, profile: WorkloadProfile) -> AbstractIndividual:
        uid = self._next_uid
        self._next_uid += 1
        return AbstractIndividual(profile=profile,
                                  generation_seed=self.rng.getrandbits(32),
                                  uid=uid)

    def _select(self, population: List[AbstractIndividual]
                ) -> AbstractIndividual:
        best = population[self.rng.randrange(len(population))]
        for _ in range(self.tournament_size - 1):
            contender = population[self.rng.randrange(len(population))]
            if contender.fitness > best.fitness:
                best = contender
        return best

    def run(self) -> AbstractIndividual:
        population = [self._spawn(WorkloadProfile.random(self.rng))
                      for _ in range(self.population_size)]
        for number in range(self.generations):
            for individual in population:
                self._evaluate(individual)
            ranked = sorted(population, key=lambda i: i.fitness,
                            reverse=True)
            self.history.append(AbstractGenerationStats(
                number=number,
                best_fitness=ranked[0].fitness,
                mean_fitness=sum(i.fitness for i in population)
                / len(population)))
            if number == self.generations - 1:
                break
            children: List[AbstractIndividual] = []
            if self.elitism:
                elite = AbstractIndividual(
                    profile=ranked[0].profile,
                    generation_seed=ranked[0].generation_seed,
                    uid=self._next_uid)
                self._next_uid += 1
                elite.measurements = list(ranked[0].measurements)
                elite.fitness = ranked[0].fitness
                elite.loop_body = ranked[0].loop_body
                children.append(elite)
            while len(children) < self.population_size:
                parent1 = self._select(population)
                parent2 = self._select(population)
                profile = parent1.profile.crossover(parent2.profile,
                                                    self.rng)
                profile = profile.mutate(self.rng)
                children.append(self._spawn(profile))
            population = children
        return self.best

    def best_fitness_series(self) -> List[float]:
        return [g.best_fitness for g in self.history]
