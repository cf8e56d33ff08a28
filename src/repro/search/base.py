"""The abstract search strategy and the strategy registry.

The paper's framework is a GA, but its evaluation machinery — render a
candidate into the template, assemble, measure, score — is search-
agnostic, and the paper itself argues the GA's worth *by comparison
with random search* (Section III.A).  This module defines the contract
that lets the engine drive any population-based search over the same
evaluation pipeline:

1. :meth:`SearchStrategy.initial_population` proposes generation 0;
2. the engine evaluates it (staged pipeline, any backend, any cache);
3. :meth:`SearchStrategy.observe` lets the strategy update internal
   state from the evaluated population (e.g. the annealer's accept/
   reject walk);
4. :meth:`SearchStrategy.next_population` proposes the next
   generation;
5. repeat.

A strategy is a *pure proposal mechanism*: it owns no evaluation code,
performs no I/O and takes no parameters.  Everything it needs beyond
the evaluated populations arrives through :meth:`bind` — the run
configuration, the run's single RNG stream, the engine's uid
allocator, the :class:`~repro.cpu.microarch.MicroArch` and compile of
the machine the run measures on, and the measurement's metric.  All
randomness must come from that bound RNG; this is what makes runs
reproducible and checkpoints exact (the engine snapshots the RNG
state, so a resumed strategy replays the identical draw sequence).

Strategy-specific state that is *not* recoverable from the population
(the annealer's temperature, the hill-climber's incumbent) is carried
by :meth:`state_dict` / :meth:`load_state`, which the engine embeds in
every checkpoint.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Dict, Optional

from ..core.errors import ConfigError
from ..core.individual import random_individual
from ..core.population import Population, load_population
from ..cpu.microarch import MicroArch
from ..isa.model import Program
from .registry import Registry

__all__ = ["STRATEGIES", "SearchStrategy"]

#: The strategy registry.  ``config.validate()``, the CLI ``--strategy``
#: choices and the SC210 config lint all read this table.
STRATEGIES = Registry("search strategy", diagnostic_code="SC210")


class SearchStrategy:
    """Base class for search strategies.

    Subclasses set :attr:`name` (the registry key).  A strategy takes
    no parameters: a ``<search>`` block names only its strategy, and
    every setting is a class constant, which a test overrides by
    subclassing.
    """

    #: Registry key; subclasses override.
    name: str = ""

    def __init__(self) -> None:
        # Populated by bind().
        self.config = None
        self.rng: Optional[Random] = None
        self._take_uid: Optional[Callable[[], int]] = None
        self.arch: Optional[MicroArch] = None
        self.compile: Optional[Callable[[str], Program]] = None
        self.metric: Optional[str] = None

    # -- engine wiring ------------------------------------------------------

    def bind(self, config, rng: Random, take_uid: Callable[[], int],
             arch: MicroArch, compile: Callable[[str], Program],
             metric: str) -> None:
        """Attach the run context.  Called once by the engine before
        any population is proposed.

        ``arch`` is the microarchitecture of the simulated machine the
        run's measurement drives, ``compile`` the pipeline's compile
        (:meth:`~repro.evaluation.pipeline.EvaluationPipeline.compile`),
        which builds the program the measurement measures, and
        ``metric`` what that measurement measures
        (:attr:`~repro.measurement.base.Measurement.metric`).
        """
        config.validate()
        self.config = config
        self.rng = rng
        self._take_uid = take_uid
        self.arch = arch
        self.compile = compile
        self.metric = metric
        self._bound()

    def _bound(self) -> None:
        """Hook for subclasses to resolve operators and check the
        bound run context."""

    def take_uid(self) -> int:
        if self._take_uid is None:
            raise ConfigError(
                f"search strategy {self.name!r} is not bound to an "
                "engine; call bind() first")
        return self._take_uid()

    # -- the search contract ------------------------------------------------

    def initial_population(self) -> Population:
        """Propose generation 0.

        The default replicates the engine's historical seeding exactly:
        clone a seed-population file when configured (paper III.D), else
        draw ``population_size`` random individuals from the bound RNG.
        """
        ga = self.config.ga
        if self.config.seed_population_file is not None:
            loaded = load_population(self.config.seed_population_file,
                                     expected_size=ga.population_size)
            individuals = []
            for individual in loaded:
                clone = individual.clone(uid=self.take_uid())
                individuals.append(clone)
            return Population(individuals, number=0)
        individuals = [
            random_individual(self.config.library, ga.individual_size,
                              self.rng, uid=self.take_uid())
            for _ in range(ga.population_size)
        ]
        return Population(individuals, number=0)

    def observe(self, population: Population) -> None:
        """Receive the just-evaluated population.  Called once per
        generation, after evaluation and before the engine checkpoints.
        Strategies that keep state beyond the population (incumbents,
        temperatures) update it here."""

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        """Propose generation ``next_number`` from the evaluated
        ``population``."""
        raise NotImplementedError

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Strategy state for checkpoints — everything :meth:`observe`
        accumulates that the population/RNG snapshot does not already
        capture.  Must be picklable and round-trip through
        :meth:`load_state`.  Stateless strategies return ``{}``."""
        return {}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output on resume."""
        if state:
            raise ConfigError(
                f"search strategy {self.name!r} is stateless but the "
                f"checkpoint carries state keys "
                f"{', '.join(sorted(state))}; the checkpoint was "
                "written by a different strategy or version")

    # -- shared helpers -----------------------------------------------------

    def random_population(self, number: int) -> Population:
        """``population_size`` fresh random individuals (the paper's
        random baseline)."""
        ga = self.config.ga
        individuals = [
            random_individual(self.config.library, ga.individual_size,
                              self.rng, uid=self.take_uid())
            for _ in range(ga.population_size)
        ]
        return Population(individuals, number=number)
