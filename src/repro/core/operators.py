"""Genetic operators (paper Section III.A, Figure 3).

The paper's defaults (Table I) are: tournament selection with
tournament size 5, one-point crossover, whole-instruction or
single-operand mutation at a 2–8% per-instruction rate, and elitism
(best individual copied unchanged into the next generation).

Uniform crossover is also implemented because the paper explicitly
compares against it ("one-point crossover ... does a better job in
preserving the instruction-order of strong individuals compared to
uniform-crossover"); the ablation benchmark exercises both.
"""

from __future__ import annotations

import warnings
from random import Random
from typing import List, Sequence, Set, Tuple

from .errors import ConfigError
from .individual import Individual, selection_key
from .instruction import InstructionLibrary

__all__ = [
    "tournament_select",
    "one_point_crossover",
    "uniform_crossover",
    "mutate",
]


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
