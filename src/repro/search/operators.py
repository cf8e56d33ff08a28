"""Operator registries: selection, crossover, mutation, replacement.

The paper fixes one operator set (tournament selection, one-point
crossover, whole-instruction/operand mutation, elitism — Table I) but
motivates each choice by comparison, so the reproduction makes every
slot pluggable and name-addressable:

* **selection** — how breeding parents are picked from an evaluated
  population.  ``tournament`` is the paper's default; ``roulette``
  (fitness-proportional) and ``rank`` (linear ranking) are the classic
  alternatives the GA literature ablates against.
* **crossover** — ``one_point`` (paper default) and ``uniform``,
  re-exported from :mod:`repro.core.operators` where the primitive
  implementations live.
* **mutation** — the paper's mixed whole-instruction/operand mutation
  (``default``) plus single-kind variants for ablations.
* **replacement** — how the next generation starts before children are
  bred into it: ``elitist`` copies the fittest individual unchanged
  (paper default), ``generational`` starts empty.

Uniform call signatures keep strategies operator-agnostic:

* selection: ``op(individuals, rng, ga) -> Individual``
* crossover: ``op(parent1, parent2, rng) -> (genome, genome)``
* mutation:  ``op(genome, library, rng, ga) -> genome``
* replacement: ``op(population, take_uid) -> List[Individual]``

where ``ga`` is the run's :class:`~repro.core.config.GAParameters`.
The registered ``tournament``/``one_point``/``default``/``elitist``
entries delegate to the exact pre-refactor code paths with the exact
pre-refactor RNG draw order — the default-strategy equivalence gate
depends on it.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, Sequence

from ..core.errors import ConfigError
from ..core.individual import Individual, selection_key
from ..core.operators import (mutate, one_point_crossover,
                              tournament_select, uniform_crossover)
from .registry import Registry

__all__ = [
    "SELECTION_OPERATORS", "CROSSOVER_OPERATORS", "MUTATION_OPERATORS",
    "REPLACEMENT_POLICIES",
    "roulette_select", "rank_select",
]

SELECTION_OPERATORS = Registry("parent_selection_method",
                               diagnostic_code="SC209")
CROSSOVER_OPERATORS = Registry("crossover_operator",
                               diagnostic_code="SC209")
MUTATION_OPERATORS = Registry("mutation_operator",
                              diagnostic_code="SC209")
REPLACEMENT_POLICIES = Registry("replacement_policy",
                                diagnostic_code="SC209")


# -- selection --------------------------------------------------------------

@SELECTION_OPERATORS.register("tournament")
def _tournament(individuals: Sequence[Individual], rng: Random,
                ga) -> Individual:
    return tournament_select(individuals, rng, ga.tournament_size)


@SELECTION_OPERATORS.register("roulette")
def roulette_select(individuals: Sequence[Individual], rng: Random,
                    ga=None) -> Individual:
    """Fitness-proportional selection (one spin of the wheel).

    Fitness values in this framework are non-negative (compile and
    screen failures score exactly 0), so the wheel is the plain fitness
    sum.  Pruned individuals have no fitness to weigh and never enter
    the wheel.  A wheel whose total is 0 — every individual failed —
    degrades to a uniform pick so the search can still move.
    """
    if not individuals:
        raise ConfigError("cannot select from an empty population")
    wheel = []
    total = 0.0
    for individual in individuals:
        has_fitness, value = selection_key(individual)
        if not has_fitness:
            continue
        if value < 0:
            raise ConfigError(
                f"roulette selection requires non-negative fitness; "
                f"individual uid={individual.uid} has {value}")
        wheel.append(individual)
        total += value
    if total <= 0.0:
        pool = wheel or individuals
        return pool[rng.randrange(len(pool))]
    pick = rng.random() * total
    accumulated = 0.0
    for individual in wheel:
        accumulated += individual.fitness
        if pick < accumulated:
            return individual
    return wheel[-1]


@SELECTION_OPERATORS.register("rank")
def rank_select(individuals: Sequence[Individual], rng: Random,
                ga=None) -> Individual:
    """Linear-rank selection: weight ∝ rank (worst 1 … best n).

    Rank selection keeps selection pressure constant regardless of the
    fitness scale — useful when the measured metric spans a narrow band
    (e.g. IPC between 1.2 and 1.5) and roulette would be near-uniform.
    Ties keep population order (stable sort), so the draw is fully
    deterministic under a seeded RNG; pruned individuals take the
    lowest ranks, in their ranker's order.
    """
    if not individuals:
        raise ConfigError("cannot select from an empty population")
    n = len(individuals)
    ascending = sorted(individuals, key=selection_key)
    pick = rng.random() * (n * (n + 1) / 2.0)
    accumulated = 0.0
    for rank, individual in enumerate(ascending, start=1):
        accumulated += rank
        if pick < accumulated:
            return individual
    return ascending[-1]


# -- crossover --------------------------------------------------------------

CROSSOVER_OPERATORS.register("one_point", one_point_crossover)
CROSSOVER_OPERATORS.register("uniform", uniform_crossover)


# -- mutation ---------------------------------------------------------------

@MUTATION_OPERATORS.register("default")
def _mutate_default(genome: List, library, rng: Random, ga) -> List:
    """The paper's mixed mutation: whole-instruction or single-operand
    per ``operand_mutation_share``."""
    return mutate(genome, library, rng, ga.mutation_rate,
                  ga.operand_mutation_share)


@MUTATION_OPERATORS.register("operand_only")
def _mutate_operand_only(genome: List, library, rng: Random, ga) -> List:
    """Only operand resampling (operand-less instructions still replace
    wholesale — they have no operand to resample)."""
    return mutate(genome, library, rng, ga.mutation_rate, 1.0)


@MUTATION_OPERATORS.register("instruction_only")
def _mutate_instruction_only(genome: List, library, rng: Random,
                             ga) -> List:
    """Only whole-instruction replacement."""
    return mutate(genome, library, rng, ga.mutation_rate, 0.0)


# -- replacement ------------------------------------------------------------

@REPLACEMENT_POLICIES.register("elitist")
def _elitist(population, take_uid: Callable[[], int]) -> List[Individual]:
    """Seed the next generation with an unchanged copy of the fittest
    individual (paper Figure 3's elitism arrow)."""
    elite = population.fittest()
    return [elite.clone(uid=take_uid(), parent_ids=(elite.uid,))]


@REPLACEMENT_POLICIES.register("generational")
def _generational(population, take_uid: Callable[[], int]
                  ) -> List[Individual]:
    """Full generational replacement: nothing survives unmutated."""
    return []
