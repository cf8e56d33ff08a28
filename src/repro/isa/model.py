"""SimISA: the decoded instruction model shared by both syntax front-ends.

The paper's framework is ISA-agnostic — instructions are whatever the
user declares in the configuration file, and the target machine's
toolchain gives them meaning.  Our simulated targets understand a small
load/store ISA ("SimISA") with two *syntaxes*: an ARM-flavoured one
(``add x1, x2, x3`` / ``ldr x2, [x10, #8]``) and an x86-flavoured one
(``add rax, rbx`` / ``mov rax, [rbp+8]``).  Both assemble to the same
:class:`DecodedInstruction` form consumed by the pipeline model.

Instruction classes mirror the breakdown used in the paper's Tables III
and IV: short-latency integer, long-latency integer, float/SIMD
(tracked separately so mixes can be reported either way), memory and
branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["InstrClass", "DecodedInstruction", "DependenceSummary",
           "Program", "INT_REGISTER_COUNT", "VEC_REGISTER_COUNT",
           "FLAGS_REGISTER"]

#: Architectural register file sizes shared by both syntaxes.
INT_REGISTER_COUNT = 16
VEC_REGISTER_COUNT = 16

#: Pseudo-register representing the condition flags (set by ``cmp`` /
#: ``subs``, read by conditional branches).
FLAGS_REGISTER = "flags"

#: Sentinel dependence row: the chain through this register was killed
#: by a constant restart (a write whose instruction has no live reads).
_DEAD = (-1, -1, None)


class InstrClass(enum.Enum):
    """Execution classes, each mapping to a functional-unit pool and an
    energy-per-instruction entry in the CPU model."""

    INT_SHORT = "int_short"    # add/sub/logic/shift — 1-cycle ALU ops
    INT_LONG = "int_long"      # mul/div — multi-cycle integer ops
    FLOAT = "float"            # scalar floating point
    SIMD = "simd"              # vector ops (widest datapath, highest EPI)
    MEM_LOAD = "mem_load"
    MEM_STORE = "mem_store"
    BRANCH = "branch"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in (InstrClass.MEM_LOAD, InstrClass.MEM_STORE)

    @property
    def table_category(self) -> str:
        """The five-way grouping of the paper's Table III/IV columns."""
        if self in (InstrClass.FLOAT, InstrClass.SIMD):
            return "Float/SIMD"
        return {
            InstrClass.INT_SHORT: "ShortInt",
            InstrClass.INT_LONG: "LongInt",
            InstrClass.MEM_LOAD: "Mem",
            InstrClass.MEM_STORE: "Mem",
            InstrClass.BRANCH: "Branch",
            InstrClass.NOP: "Nop",
        }[self]


@dataclass
class DecodedInstruction:
    """One assembled instruction, ready for the pipeline model.

    ``reads``/``writes`` name architectural registers (``x3``, ``v2``,
    or the ``flags`` pseudo-register); the pipeline uses them for
    dependency tracking.  Memory operations carry their base register
    and immediate offset so the cache model can compute addresses.
    ``branch_target`` is an instruction index within the program
    (resolved from labels by the assembler); ``None`` marks the
    fall-through "branch to next instruction" used inside GA loops.
    """

    opcode: str
    iclass: InstrClass
    #: Latency/energy group (``alu``, ``mul``, ``div``, ``fadd``, ``fma``,
    #: ``load``...) — a finer key than ``iclass`` used by the CPU model's
    #: latency and EPI tables.  Defaults to the class value.
    group: str = ""
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    immediate: Optional[int] = None
    mem_base: Optional[str] = None
    mem_offset: int = 0
    branch_target: Optional[int] = None
    backward: bool = False
    source_line: int = 0
    text: str = ""

    @property
    def is_load(self) -> bool:
        return self.iclass is InstrClass.MEM_LOAD

    @property
    def is_store(self) -> bool:
        return self.iclass is InstrClass.MEM_STORE

    @property
    def is_branch(self) -> bool:
        return self.iclass is InstrClass.BRANCH


@dataclass(frozen=True)
class DependenceSummary:
    """Arch-independent condensation of a loop body's static structure.

    Built once per :class:`Program`, on first use, and consumed by the
    static cost model's ranking fast path
    (:func:`repro.staticcheck.costmodel.static_score`): pricing the
    body against *any* microarchitecture then touches only the small
    group vocabulary and the cycle family — never the instruction list
    — which is what keeps a static score orders of magnitude cheaper
    than one simulated evaluation.

    ``cycle_counts`` holds the loop-carried dependence cycles found by
    *single-predecessor condensation*: one sequential pass over the
    body tracks, per register, the deepest dependence path from an
    iteration-boundary read (a register read before its first in-body
    write), keeping only the deepest predecessor when paths merge.
    Every recorded cycle is a real dependence cycle of the body, so a
    latency-weighted mean over this family never exceeds the exact
    maximum cycle ratio — the relaxation is *sound* for upper-bound
    IPC estimates (see the cost model's docstring for the ordering).
    """

    #: Distinct ``(group, iclass)`` pricing keys of the loop body.
    group_keys: Tuple[Tuple[str, InstrClass], ...]
    #: Loop-body instruction count per vocabulary entry.
    group_counts: Tuple[int, ...]
    #: Loop-body length (== ``sum(group_counts)``), kept denormalised
    #: so scoring never iterates.
    loop_length: int
    #: Per cycle: instruction count per vocabulary entry along the
    #: cycle's dependence path.
    cycle_counts: Tuple[Tuple[int, ...], ...]
    #: Per cycle: the number of iterations it spans (its edge count in
    #: the boundary-register graph).
    cycle_lengths: Tuple[int, ...]


@dataclass
class Program:
    """An assembled program: init section + loop body.

    The simulated machine executes ``init`` once (establishing register
    data patterns that feed the power model's toggle factor) and then
    repeats ``loop`` until the requested duration elapses.  ``name``
    is the uploaded file name, kept for diagnostics.
    """

    name: str
    init: List[DecodedInstruction] = field(default_factory=list)
    loop: List[DecodedInstruction] = field(default_factory=list)
    #: Initial register values established by the init section, register
    #: name → integer value (used by the power model's toggle factor).
    register_values: Dict[str, int] = field(default_factory=dict)
    labels: Dict[str, int] = field(default_factory=dict)
    #: Cached :class:`DependenceSummary`, built on the first
    #: :meth:`dependence_summary` call.
    _dependence_summary: Optional[DependenceSummary] = field(
        default=None, repr=False, compare=False)
    #: The simulated machine's schedule memo, ``(arch, trace)``: the
    #: loop's last steady-state-detecting schedule on ``arch`` (see
    #: :meth:`repro.cpu.machine.SimulatedMachine._schedule`).
    _schedule_memo: Optional[tuple] = field(
        default=None, repr=False, compare=False)

    @property
    def loop_length(self) -> int:
        return len(self.loop)

    def dependence_summary(self) -> DependenceSummary:
        """The loop body's :class:`DependenceSummary` (cached).

        Dependence edges come from ``reads`` only, mirroring the
        pipeline scheduler's last-writer map (a memory base register
        is an address input, not an issue-time dependence).  A write
        whose instruction has no live read inputs *kills* the chain
        through that register (a constant restart), and a later read
        of it no longer crosses the iteration boundary.
        """
        cached = self._dependence_summary
        if cached is not None:
            return cached
        vocabulary: Dict[Tuple[str, InstrClass], int] = {}
        counts: List[int] = []
        # rows[reg] = (depth, seed, link) — deepest boundary-rooted
        # dependence path ending at reg's last write, where link is a
        # cons-chain of vocabulary ids along the path; _DEAD marks a
        # killed chain.  seeds[i] names the i-th boundary register.
        rows: Dict[str, tuple] = {}
        seeds: List[str] = []
        for instr in self.loop:
            key = (instr.group or instr.iclass.value, instr.iclass)
            gid = vocabulary.get(key)
            if gid is None:
                gid = len(counts)
                vocabulary[key] = gid
                counts.append(0)
            counts[gid] += 1
            best = None
            for reg in instr.reads:
                entry = rows.get(reg)
                if entry is None:
                    entry = (0, len(seeds), None)
                    seeds.append(reg)
                    rows[reg] = entry
                elif entry is _DEAD:
                    continue
                if best is None or entry[0] > best[0]:
                    best = entry
            if instr.writes:
                out = _DEAD if best is None else \
                    (best[0] + 1, best[1], (gid, best[2]))
                for reg in instr.writes:
                    rows[reg] = out
        # Boundary graph: one edge per seed whose register is written
        # by a boundary-rooted chain (dst ← src); an untouched seed is
        # the identity and spans no cycle.
        predecessor: Dict[int, tuple] = {}
        for dst, reg in enumerate(seeds):
            entry = rows[reg]
            if entry is _DEAD or entry[2] is None:
                continue
            predecessor[dst] = (entry[1], entry[2])
        cycle_counts: List[Tuple[int, ...]] = []
        cycle_lengths: List[int] = []
        color = [0] * len(seeds)
        for start in range(len(seeds)):
            if color[start]:
                continue
            trail: List[int] = []
            node = start
            while True:
                color[node] = 1
                trail.append(node)
                edge = predecessor.get(node)
                if edge is None:
                    break
                follow = edge[0]
                if color[follow] == 1:
                    members = trail[trail.index(follow):]
                    vector = [0] * len(counts)
                    for member in members:
                        link = predecessor[member][1]
                        while link is not None:
                            vector[link[0]] += 1
                            link = link[1]
                    cycle_counts.append(tuple(vector))
                    cycle_lengths.append(len(members))
                    break
                if color[follow] == 2:
                    break
                node = follow
            for visited in trail:
                color[visited] = 2
        summary = DependenceSummary(
            group_keys=tuple(vocabulary),
            group_counts=tuple(counts),
            loop_length=len(self.loop),
            cycle_counts=tuple(cycle_counts),
            cycle_lengths=tuple(cycle_lengths))
        self._dependence_summary = summary
        return summary

    def class_counts(self) -> Dict[InstrClass, int]:
        counts: Dict[InstrClass, int] = {}
        for instr in self.loop:
            counts[instr.iclass] = counts.get(instr.iclass, 0) + 1
        return counts

    def table_breakdown(self) -> Dict[str, int]:
        """Loop-body instruction counts in the paper's table categories."""
        breakdown: Dict[str, int] = {}
        for instr in self.loop:
            category = instr.iclass.table_category
            breakdown[category] = breakdown.get(category, 0) + 1
        return breakdown


def registers_named(prefix: str, count: int) -> Sequence[str]:
    """Helper: ``registers_named('x', 4)`` → ``('x0', ..., 'x3')``."""
    return tuple(f"{prefix}{i}" for i in range(count))
