"""Program dataflow analysis over the assembled :class:`Program` IR.

The pass walks an assembled program once and derives, without touching
the pipeline model:

* register def-use facts — reads of never-initialised registers
  (``SC101``) and dead writes (``SC102``);
* the critical dependency-chain depth of one loop iteration;
* the per-class instruction-mix vector;
* static memory-footprint bounds, checked against the stock cache
  geometry the simulated hierarchy models (``SC104``).

The derived features are exposed as a :class:`StaticProfile` so the
analysis layer and fitness predictors can consume them; ``gest check``
prints them with the diagnostics.  Of those diagnostics only the empty
measured loop (``SC103``) is an error, and it is the one rule the
engine's pre-measurement screen (:mod:`repro.staticcheck.screen`)
enforces, without running this pass.

The footprint bound is *static*: it assumes base registers keep their
init-section values.  Loops that advance a base register (the cache
stress catalog's ``ADVANCE``) touch at least this much memory, so the
bound is a lower bound — the diagnostic message says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..cpu.cache import STOCK_L1, STOCK_L2
from ..isa.model import DecodedInstruction, InstrClass, Program
from .diagnostics import Diagnostic, make_diagnostic

__all__ = ["StaticProfile", "DataflowReport", "analyze_program",
           "empty_loop_diagnostic"]


@dataclass(frozen=True)
class StaticProfile:
    """Derived static features of one program.

    ``mix_vector`` maps :class:`InstrClass` values (``"int_short"``,
    ``"mem_load"``, ...) to the fraction of the loop body in that class
    — every class appears, absent ones at 0.0, so vectors from
    different programs align for distance computations and predictors.
    """

    loop_length: int
    #: Longest register-dependency chain within one loop iteration, in
    #: instructions.  1 for fully parallel bodies, ``loop_length`` for
    #: fully serialised ones.
    chain_depth: int
    mix_vector: Dict[str, float]
    #: Distinct cache lines statically reachable by the loop's memory
    #: instructions (lower bound; see module docstring).
    footprint_bytes: int
    distinct_lines: int
    uninitialised_reads: int
    dead_writes: int
    memory_instructions: int

    def as_features(self) -> Dict[str, float]:
        """A flat name → float mapping for fitness predictors."""
        features = {f"mix_{name}": value
                    for name, value in sorted(self.mix_vector.items())}
        features.update({
            "loop_length": float(self.loop_length),
            "chain_depth": float(self.chain_depth),
            "chain_depth_ratio": (self.chain_depth / self.loop_length
                                  if self.loop_length else 0.0),
            "footprint_bytes": float(self.footprint_bytes),
            "dead_write_ratio": (self.dead_writes / self.loop_length
                                 if self.loop_length else 0.0),
        })
        return features


@dataclass
class DataflowReport:
    """The output of one dataflow pass: features plus findings."""

    program_name: str
    profile: StaticProfile
    diagnostics: List[Diagnostic] = field(default_factory=list)


def _initialised_registers(program: Program) -> Set[str]:
    """Registers holding a defined value when the loop first runs."""
    defined = set(program.register_values)
    for instr in program.init:
        defined.update(instr.writes)
    return defined


def _chain_depth(loop: List[DecodedInstruction]) -> int:
    """Critical path length of one iteration's register-dependency DAG."""
    depth_of_writer: Dict[str, int] = {}
    deepest = 0
    for instr in loop:
        depth = 1 + max((depth_of_writer.get(reg, 0)
                         for reg in instr.reads), default=0)
        # A load's base register dependency is a real dataflow edge.
        if instr.mem_base is not None:
            depth = max(depth, 1 + depth_of_writer.get(instr.mem_base, 0))
        for reg in instr.writes:
            depth_of_writer[reg] = depth
        deepest = max(deepest, depth)
    return deepest


def _dead_writes(loop: List[DecodedInstruction]) -> List[int]:
    """Indices of loop instructions whose register writes are all dead.

    A write at position ``i`` is dead when, scanning forward cyclically
    (the loop repeats, so position wraps), a write to the same register
    is reached before any read of it.  Instructions read their sources
    before writing their destination, so reads at each position are
    checked first.
    """
    length = len(loop)
    dead: List[int] = []
    for i, instr in enumerate(loop):
        if not instr.writes:
            continue
        live = False
        for reg in instr.writes:
            for step in range(1, length + 1):
                other = loop[(i + step) % length]
                reads = set(other.reads)
                if other.mem_base is not None:
                    reads.add(other.mem_base)
                if reg in reads:
                    live = True
                    break
                if reg in other.writes:
                    break
            if live:
                break
        if not live:
            dead.append(i)
    return dead


def _mix_vector(program: Program) -> Dict[str, float]:
    counts = program.class_counts()
    total = len(program.loop)
    return {cls.value: (counts.get(cls, 0) / total if total else 0.0)
            for cls in InstrClass}


def _footprint(program: Program) -> Tuple[int, int, int]:
    """(distinct lines, footprint bytes, memory instruction count)."""
    line_bytes = STOCK_L1.line_bytes
    lines: Set[Tuple[str, int]] = set()
    mem_count = 0
    for instr in program.loop:
        if not instr.iclass.is_memory:
            continue
        mem_count += 1
        if instr.mem_base is None:
            continue
        base_value = program.register_values.get(instr.mem_base)
        if base_value is None:
            # Base register value unknown statically: bucket per base
            # register so distinct offsets still count distinct lines.
            key, address = instr.mem_base, instr.mem_offset
        else:
            key, address = "", base_value + instr.mem_offset
        lines.add((key, address // line_bytes))
    return len(lines), len(lines) * line_bytes, mem_count


def empty_loop_diagnostic(source_file: Optional[str] = None) -> Diagnostic:
    """SC103 for a program whose measured loop body is empty."""
    return make_diagnostic(
        "SC103", "the measured loop body contains no instructions — "
        "every measurement of this program is meaningless",
        file=source_file)


def analyze_program(program: Program,
                    source_file: Optional[str] = None) -> DataflowReport:
    """Run the dataflow pass; never raises on program content."""
    diagnostics: List[Diagnostic] = []
    loop = program.loop

    if not loop:
        diagnostics.append(empty_loop_diagnostic(source_file))

    # -- uninitialised reads ---------------------------------------------
    defined = _initialised_registers(program)
    written_in_loop: Set[str] = set()
    for instr in loop:
        written_in_loop.update(instr.writes)
    seen_so_far = set(defined)
    uninitialised = 0
    reported: Set[str] = set()
    for index, instr in enumerate(loop):
        reads = list(instr.reads)
        if instr.mem_base is not None:
            reads.append(instr.mem_base)
        for reg in reads:
            if reg in seen_so_far or reg in reported:
                continue
            uninitialised += 1
            reported.add(reg)
            carried = (" (defined later in the loop, so only the first "
                       "iteration reads an undefined value)"
                       if reg in written_in_loop else "")
            diagnostics.append(make_diagnostic(
                "SC101",
                f"register {reg!r} is read before any initialisation"
                f"{carried}",
                file=source_file, index=index, line=instr.source_line))
        seen_so_far.update(instr.writes)

    # -- dead writes ------------------------------------------------------
    dead = _dead_writes(loop)
    for index in dead:
        instr = loop[index]
        diagnostics.append(make_diagnostic(
            "SC102",
            f"{instr.opcode!r} writes {', '.join(instr.writes)} but the "
            "value is overwritten before any read",
            file=source_file, index=index, line=instr.source_line))

    # -- chain depth / serialisation --------------------------------------
    chain_depth = _chain_depth(loop)
    if loop and len(loop) > 1 and chain_depth == len(loop):
        diagnostics.append(make_diagnostic(
            "SC105",
            f"all {len(loop)} loop instructions form one serial "
            "dependency chain; the program cannot exploit any "
            "instruction-level parallelism",
            file=source_file))

    # -- footprint vs cache geometry --------------------------------------
    distinct_lines, footprint_bytes, mem_count = _footprint(program)
    if footprint_bytes > STOCK_L1.size_bytes:
        level = "L1"
        limit = STOCK_L1.size_bytes
        if footprint_bytes > STOCK_L2.size_bytes:
            level = "L2"
            limit = STOCK_L2.size_bytes
        diagnostics.append(make_diagnostic(
            "SC104",
            f"static memory footprint is at least {footprint_bytes} bytes "
            f"({distinct_lines} lines), exceeding the {limit}-byte {level} "
            "— memory instructions will miss, which suits cache-stress "
            "searches but caps power/IPC viruses",
            file=source_file))

    profile = StaticProfile(
        loop_length=len(loop),
        chain_depth=chain_depth,
        mix_vector=_mix_vector(program),
        footprint_bytes=footprint_bytes,
        distinct_lines=distinct_lines,
        uninitialised_reads=uninitialised,
        dead_writes=len(dead),
        memory_instructions=mem_count,
    )
    return DataflowReport(program_name=program.name, profile=profile,
                          diagnostics=diagnostics)
