"""A reference scheduler: the pipeline model's rules, written plainly.

This is a test oracle, not a second simulator.  It restates the
detection-off scheduling rules of
:meth:`repro.cpu.pipeline.PipelineSimulator.execute` as simply as they
can be written, with no tiling, no state hashing and no compaction
tricks, and it is frozen: a change to the scheduling rules must change
this file too, on purpose.  The rules, one cycle at a time:

1. *Refill.*  Fetch walks the loop body forever, appending dynamic
   instructions until the window holds ``window_size`` of them.  Each
   fetched instruction depends on the latest fetched writer of every
   register it reads (the last-writer map, i.e. perfect renaming).
2. *Issue scan.*  The window is scanned oldest first, and at most
   ``issue_width`` instructions issue.  An instruction issues when every
   producer has completed (completion cycle <= this cycle) and its
   port group has a unit that is free this cycle; it takes the first
   such unit, which is busy for the instruction's initiation interval,
   and its result completes ``latency`` cycles later.
3. *In-order stall.*  On an in-order core the scan stops at the first
   instruction that cannot issue.
4. *Memory hierarchy* (only when one is attached).  An issued memory
   instruction accesses ``(base register value + offset)`` modulo the
   working-set region; it completes after the larger of its own
   latency and the hierarchy's, and the access's energy is charged to
   the issuing cycle.  An issued non-memory instruction updates the
   tracked register values: ``mov`` of an immediate sets, ``add``/
   ``sub`` of an immediate to the same register strides, and any other
   write forgets the register.  Values start from the program's init
   section, and a register never written reads as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.cache import MemoryHierarchy
from repro.cpu.microarch import MicroArch
from repro.isa.model import Program

__all__ = ["ReferenceTrace", "reference_schedule"]

#: The working-set region memory addresses wrap over (16 MiB).
REGION_BYTES = 16 * 1024 * 1024


@dataclass
class ReferenceTrace:
    """What the reference scheduler observed, cycle by cycle."""

    #: static loop-slot indices issued in each cycle, in issue order
    issued_per_cycle: List[List[int]]
    #: window occupancy at each cycle's issue scan
    occupancy: List[int]
    #: dynamic issues per latency group, in first-issue order
    group_counts: Dict[str, int]
    #: dynamic issues per static loop slot
    slot_counts: List[int]
    instructions_issued: int
    #: per-cycle miss energy (pJ), with a hierarchy only
    extra_energy_per_cycle: Optional[List[float]] = None
    #: the hierarchy's hit/miss summary, with a hierarchy only
    cache_summary: Optional[Dict[str, float]] = None


def _track(instr, values: Dict[str, int]) -> None:
    """Rule 4's register-value tracking for an issued non-memory
    instruction."""
    if len(instr.writes) == 1 and instr.immediate is not None:
        dst = instr.writes[0]
        if instr.opcode == "mov":
            values[dst] = instr.immediate
            return
        if instr.opcode in ("add", "sub") and instr.reads \
                and instr.reads[0] == dst:
            step = instr.immediate if instr.opcode == "add" \
                else -instr.immediate
            values[dst] = values.get(dst, 0) + step
            return
    for reg in instr.writes:
        if reg != "flags":
            values.pop(reg, None)


def reference_schedule(program: Program, arch: MicroArch, cycles: int,
                       hierarchy: Optional[MemoryHierarchy] = None
                       ) -> ReferenceTrace:
    """Schedule ``program``'s loop for ``cycles`` cycles by the rules in
    the module docstring."""
    body = list(program.loop)
    groups = [instr.group or instr.iclass.value for instr in body]
    ports = [arch.port_group_of(group, instr.iclass)
             for group, instr in zip(groups, body)]
    latencies = [arch.latency_of(group, instr.iclass)
                 for group, instr in zip(groups, body)]
    intervals = [arch.initiation_interval(group, instr.iclass)
                 for group, instr in zip(groups, body)]

    free_at = {port: [0] * count for port, count in arch.ports.items()}
    window = []            # (dynamic id, slot, producer ids), oldest first
    completes_at = {}      # dynamic id -> completion cycle
    last_writer = {}       # register -> dynamic id
    fetched = 0

    values: Dict[str, int] = {}
    energy: Optional[List[float]] = None
    if hierarchy is not None:
        hierarchy.reset()
        values = dict(program.register_values)
        energy = [0.0] * cycles

    issued_per_cycle: List[List[int]] = []
    occupancy: List[int] = []
    group_counts: Dict[str, int] = {}
    slot_counts = [0] * len(body)

    for cycle in range(cycles):
        # 1. refill
        while len(window) < arch.window_size:
            slot = fetched % len(body)
            producers = [last_writer[reg] for reg in body[slot].reads
                         if reg in last_writer]
            for reg in body[slot].writes:
                last_writer[reg] = fetched
            window.append((fetched, slot, producers))
            fetched += 1
        occupancy.append(len(window))

        # 2./3. issue scan
        issued: List[int] = []
        waiting = []
        stalled = False
        for entry in window:
            dynamic, slot, producers = entry
            if stalled or len(issued) == arch.issue_width:
                waiting.append(entry)
                continue
            ready = all(producer in completes_at
                        and completes_at[producer] <= cycle
                        for producer in producers)
            units = free_at[ports[slot]]
            free = [u for u, at in enumerate(units) if at <= cycle]
            if not (ready and free):
                waiting.append(entry)
                stalled = arch.in_order
                continue
            units[free[0]] = cycle + intervals[slot]
            latency = latencies[slot]
            instr = body[slot]
            if hierarchy is not None:
                if instr.iclass.is_memory:
                    address = (values.get(instr.mem_base, 0)
                               + instr.mem_offset) % REGION_BYTES
                    access = hierarchy.access(address)
                    latency = max(latency, access.latency)
                    energy[cycle] += access.energy_pj
                else:
                    _track(instr, values)
            completes_at[dynamic] = cycle + latency
            issued.append(slot)
            group_counts[groups[slot]] = group_counts.get(groups[slot], 0) + 1
            slot_counts[slot] += 1
        window = waiting
        issued_per_cycle.append(issued)

    return ReferenceTrace(
        issued_per_cycle=issued_per_cycle,
        occupancy=occupancy,
        group_counts=group_counts,
        slot_counts=slot_counts,
        instructions_issued=sum(slot_counts),
        extra_energy_per_cycle=energy,
        cache_summary=hierarchy.summary() if hierarchy is not None
        else None)
