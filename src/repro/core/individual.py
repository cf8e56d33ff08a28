"""GA individuals (paper Section III.A).

An **individual** is a sequence of concrete assembly instructions — the
body of the stress-test loop.  Individuals carry their measurement
results, fitness value and parent ids so that the output recorder can
persist the provenance the paper describes (population binaries contain
"the source code, the id, the parent ids and the measurement values of
each individual").

A pruning search strategy may settle an individual without measuring
it; such a *pruned* individual has no fitness and no measurements, only
its position in the pruning ranker's order.  :func:`selection_key` is
the one order every selection operator and population ranking uses.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError
from .instruction import ConcreteInstruction, InstructionLibrary

__all__ = ["Individual", "random_individual", "selection_key"]


class Individual:
    """A candidate stress-test: an ordered list of concrete instructions.

    The instruction list is immutable after construction; GA operators
    build *new* individuals rather than mutating existing ones, so a
    recorded population can never be corrupted retroactively.
    Measurement results and fitness are attached post-construction by
    the engine (they are observations, not genome).
    """

    __slots__ = ("instructions", "uid", "parent_ids", "measurements",
                 "fitness", "generation", "compile_failed", "screen_failed",
                 "_pruned_rank")

    def __init__(self, instructions: Sequence[ConcreteInstruction],
                 uid: int = -1,
                 parent_ids: Tuple[int, ...] = ()) -> None:
        self.instructions: Tuple[ConcreteInstruction, ...] = tuple(instructions)
        self.uid = uid
        self.parent_ids = tuple(parent_ids)
        self.measurements: List[float] = []
        self.fitness: Optional[float] = None
        self.generation: int = -1
        self.compile_failed: bool = False
        self.screen_failed: bool = False

    # -- genome ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def render_body(self) -> str:
        """The loop-body assembly text, one instruction per line."""
        return "\n".join(instr.render() for instr in self.instructions)

    def opcode_sequence(self) -> Tuple[str, ...]:
        return tuple(instr.name for instr in self.instructions)

    def unique_instruction_count(self) -> int:
        """Number of distinct opcodes — the ``U_I`` term of the paper's
        Equation 1 simplicity score."""
        return len(set(self.opcode_sequence()))

    def instruction_mix(self) -> Dict[str, int]:
        """Counts per instruction-type tag (``itype``)."""
        return dict(Counter(instr.itype for instr in self.instructions))

    def genome_key(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """A hashable key identifying the exact genome (opcodes and
        operand values), used for deduplication in analyses."""
        return tuple((i.name, i.values) for i in self.instructions)

    # -- lineage / bookkeeping --------------------------------------------

    def clone(self, uid: int = -1,
              parent_ids: Tuple[int, ...] = ()) -> "Individual":
        """A fresh unevaluated individual with the same genome."""
        return Individual(self.instructions, uid=uid, parent_ids=parent_ids)

    @property
    def pruned_rank(self) -> Optional[int]:
        """Position in the pruning ranker's order (0 = its favourite)
        when a pruning strategy settled this individual unmeasured;
        ``None`` otherwise.  The slot stays unset rather than ``None``
        on unpruned individuals, so they pickle to the same bytes as
        before pruning had a status of its own."""
        return getattr(self, "_pruned_rank", None)

    @property
    def pruned(self) -> bool:
        return self.pruned_rank is not None

    @property
    def evaluated(self) -> bool:
        """True once the individual needs no evaluation: it has a
        fitness, or it was pruned."""
        return self.fitness is not None or self.pruned

    def mark_pruned(self, rank: int) -> None:
        """Settle this individual without measuring it: no fitness, no
        measurements, only its ``rank`` in the pruning ranker's order."""
        self.measurements = []
        self.fitness = None
        self._pruned_rank = rank

    def record_evaluation(self, measurements: Sequence[float],
                          fitness: float,
                          compile_failed: bool = False,
                          screen_failed: bool = False) -> None:
        self.measurements = list(measurements)
        self.fitness = float(fitness)
        self.compile_failed = compile_failed
        self.screen_failed = screen_failed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.fitness is not None:
            fit = f"{self.fitness:.4f}"
        else:
            fit = "pruned" if self.pruned else "unmeasured"
        return (f"Individual(uid={self.uid}, len={len(self)}, "
                f"fitness={fit})")


def selection_key(individual: Individual) -> Tuple[bool, float]:
    """The order of selection and ranking; a larger key is fitter.

    Individuals with a fitness compare by it and all rank above pruned
    ones; pruned individuals keep their ranker's order among
    themselves.  The first element tells the two kinds apart, so
    fitness-weighted operators can leave pruned individuals out.
    """
    if individual.fitness is not None:
        return True, individual.fitness
    if individual.pruned:
        return False, -individual.pruned_rank
    raise ConfigError(
        f"individual uid={individual.uid} has not been evaluated; "
        "selection requires fitness values")


def random_individual(library: InstructionLibrary, size: int,
                      rng: Random, uid: int = -1) -> Individual:
    """A uniformly random individual of ``size`` instructions.

    This is how the random seed population of the GA is built when no
    previous-run population is supplied.
    """
    instructions = [library.random_instruction(rng) for _ in range(size)]
    return Individual(instructions, uid=uid)
