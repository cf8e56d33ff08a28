"""Genetic operators (paper Section III.A, Figure 3) and their registries.

The paper's defaults (Table I) are: tournament selection with
tournament size 5, one-point crossover, whole-instruction or
single-operand mutation at a 2–8% per-instruction rate, and elitism
(best individual copied unchanged into the next generation).  The
``<ga>`` block names every one of these settings, and it is the only
place they are named:

* **selection** — ``parent_selection_method`` resolves against
  :data:`SELECTION_OPERATORS`: ``tournament`` (paper default),
  ``roulette`` (fitness-proportional) and ``rank`` (linear ranking),
  the classic alternatives the GA literature ablates against.
* **crossover** — ``crossover_operator`` resolves against
  :data:`CROSSOVER_OPERATORS`: ``one_point`` (paper default) and
  ``uniform``.  Uniform crossover is kept because the paper explicitly
  compares against it ("one-point crossover ... does a better job in
  preserving the instruction-order of strong individuals compared to
  uniform-crossover").
* **mutation** — :func:`mutate` at ``mutation_rate``, with
  ``operand_mutation_share`` splitting operand from whole-instruction
  moves (1.0 is operand-only, 0.0 instruction-only).
* **elitism** — ``elitism`` keeps an unchanged copy of the fittest
  individual; the strategies apply it directly.

Uniform call signatures keep strategies operator-agnostic:

* selection: ``op(individuals, rng, ga) -> Individual``
* crossover: ``op(parent1, parent2, rng) -> (genome, genome)``

where ``ga`` is the run's :class:`~repro.core.config.GAParameters`.
"""

from __future__ import annotations

import warnings
from random import Random
from typing import List, Sequence, Set, Tuple

from ..core.errors import ConfigError
from ..core.individual import Individual, selection_key
from ..core.instruction import InstructionLibrary
from .registry import Registry

__all__ = [
    "SELECTION_OPERATORS", "CROSSOVER_OPERATORS",
    "tournament_select", "roulette_select", "rank_select",
    "one_point_crossover", "uniform_crossover", "mutate",
]

SELECTION_OPERATORS = Registry("parent_selection_method",
                               diagnostic_code="SC209")
CROSSOVER_OPERATORS = Registry("crossover_operator",
                               diagnostic_code="SC209")


# -- selection --------------------------------------------------------------

#: (tournament_size, population_size) pairs already warned about, so a
#: misconfigured run logs the clamp once, not once per selection.
_CLAMP_WARNED: Set[Tuple[int, int]] = set()


def tournament_select(population: Sequence[Individual], rng: Random,
                      tournament_size: int = 5) -> Individual:
    """Pick ``tournament_size`` individuals at random (with replacement,
    matching the paper's "randomly pick five individuals") and return
    the fittest of them under :func:`selection_key`.

    A tournament larger than the population adds no selection pressure
    — the extra draws just re-sample the same individuals — so it is
    clamped to the population size, with a one-time warning naming both
    values (the clamp also keeps the RNG draw count meaningful).
    """
    if not population:
        raise ConfigError("cannot select from an empty population")
    if tournament_size < 1:
        raise ConfigError("tournament size must be >= 1")
    if tournament_size > len(population):
        key = (tournament_size, len(population))
        if key not in _CLAMP_WARNED:
            _CLAMP_WARNED.add(key)
            warnings.warn(
                f"tournament_size {tournament_size} exceeds the "
                f"population size {len(population)}; clamping the "
                f"tournament to {len(population)} draws",
                RuntimeWarning, stacklevel=2)
        tournament_size = len(population)
    best = population[rng.randrange(len(population))]
    for _ in range(tournament_size - 1):
        contender = population[rng.randrange(len(population))]
        if selection_key(contender) > selection_key(best):
            best = contender
    return best


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

@CROSSOVER_OPERATORS.register("one_point")
def one_point_crossover(parent1: Individual, parent2: Individual,
                        rng: Random) -> Tuple[List, List]:
    """Single cut point; children swap halves (paper Figure 3).

    The cut index is drawn from ``1..len-1`` so both children always
    inherit from both parents.  Parents must be the same length — the
    GA uses a fixed individual size (Table I).
    """
    _check_lengths(parent1, parent2)
    n = len(parent1)
    if n < 2:
        return list(parent1.instructions), list(parent2.instructions)
    cut = rng.randrange(1, n)
    child1 = list(parent1.instructions[:cut]) + list(parent2.instructions[cut:])
    child2 = list(parent2.instructions[:cut]) + list(parent1.instructions[cut:])
    return child1, child2


@CROSSOVER_OPERATORS.register("uniform")
def uniform_crossover(parent1: Individual, parent2: Individual,
                      rng: Random) -> Tuple[List, List]:
    """Each instruction slot independently swaps between the parents
    with probability 0.5 — destroys instruction order, kept for the
    crossover ablation."""
    _check_lengths(parent1, parent2)
    child1, child2 = [], []
    for a, b in zip(parent1.instructions, parent2.instructions):
        if rng.random() < 0.5:
            a, b = b, a
        child1.append(a)
        child2.append(b)
    return child1, child2


def _check_lengths(parent1: Individual, parent2: Individual) -> None:
    if len(parent1) != len(parent2):
        raise ConfigError(
            f"crossover requires equal-length parents "
            f"({len(parent1)} vs {len(parent2)})")


# -- mutation ---------------------------------------------------------------

def mutate(instructions: List, library: InstructionLibrary, rng: Random,
           mutation_rate: float,
           operand_mutation_share: float = 0.5) -> List:
    """Apply per-instruction mutation and return a new list.

    Each instruction independently mutates with probability
    ``mutation_rate``.  A mutation is either (paper Figure 3):

    * a **whole-instruction** mutation — the slot is replaced by a
      uniformly random new concrete instruction (like the STR→LSL
      example, with freshly random operands); or
    * an **operand** mutation — one operand slot is resampled from its
      pool (like the SUB's r2→r5 example).

    ``operand_mutation_share`` is the probability that a triggered
    mutation is of the operand kind; operand-less instructions (NOP,
    implicit-target branches) always take the whole-instruction path.
    """
    if not 0.0 <= mutation_rate <= 1.0:
        raise ConfigError(f"mutation rate {mutation_rate} outside [0, 1]")
    if not 0.0 <= operand_mutation_share <= 1.0:
        raise ConfigError(
            f"operand mutation share {operand_mutation_share} outside [0, 1]")

    mutated = []
    for instr in instructions:
        if rng.random() >= mutation_rate:
            mutated.append(instr)
            continue
        num_ops = instr.spec.num_operands
        if num_ops > 0 and rng.random() < operand_mutation_share:
            slot = rng.randrange(num_ops)
            value = library.random_operand_value(instr, slot, rng)
            mutated.append(instr.with_value(slot, value))
        else:
            mutated.append(library.random_instruction(rng))
    return mutated
