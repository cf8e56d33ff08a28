"""Population-batched execution: lockstep pipeline scheduling.

The serial :class:`~repro.cpu.pipeline.PipelineSimulator` pays its cost
per *individual* — a Python-level scheduler loop per simulated cycle.
A GA generation evaluates tens to hundreds of individuals whose loops
run on the *same* microarchitecture, so the per-cycle work can be
stacked along a population axis and executed as a handful of NumPy
operations per cycle instead of a Python loop per individual per cycle.

This module implements that lockstep scheduler.  The contract is
**bit-identical traces**: each row's trace equals the serial full
simulation's (issue lists, occupancy, totals, and everything the
power/PDN stages derive from them), enforced by the golden suite in
``tests/test_batched_golden.py``.

Why the lockstep step can be exact
----------------------------------

* **Static dependency offsets.**  The serial scheduler resolves RAW
  dependencies through a ``last_writer`` dict at fetch.  Because fetch
  walks the loop body cyclically, the *distance* from a dynamic
  instruction to the nearest prior writer of each register it reads is
  a pure function of its loop slot: for dynamic id ``d`` at slot
  ``d mod L``, the k-th source is ``d - back_off[slot][k]`` (no
  dependence while ``d - off < 0``, i.e. during the first iteration
  before the register's first write).  The offsets are precomputed per
  individual by replaying two loop iterations of the serial fetch rule,
  so lockstep fetch needs no sequential bookkeeping — and the whole
  window (slots, ports, sources) is derivable from the dynamic-id
  matrix alone, which is the only per-entry state carried cycle to
  cycle.
* **Constant window occupancy.**  Serial fetch refills the window to
  ``window_size`` entries every cycle (there is no fetch bandwidth
  limit), so occupancy is the constant ``W`` and the window is a
  fixed-shape ``(population, W)`` array.
* **Rank-based issue selection.**  The serial greedy scan issues a
  ready entry iff fewer than ``avail[port]`` ready same-port entries
  precede it *and* fewer than ``issue_width`` entries issued before it.
  Width exhaustion blocks every later entry (the scan breaks), so the
  scan is equivalent to: select ready entries whose same-port ready
  rank fits the port's free units, then keep the first ``issue_width``
  of those.  Both ranks are cumulative sums along the window axis (the
  per-port ranks are packed one byte per port group into a single
  int64 cumsum).  An in-order core additionally stalls at the first
  entry that fails either test — a ``logical_and.accumulate`` prefix.
* **Functional units are interchangeable.**  Within a port group only
  the *multiset* of unit free-times matters, never which unit an
  instruction landed on; per-port busy counters plus a release ring
  (busy counts scheduled to drop at ``cycle + interval``) reproduce the
  serial free-time lists exactly.
* **Completion ring.**  Source readiness needs completion cycles for
  dynamic ids at most ``window span + loop length`` behind the fetch
  head; a power-of-two ring indexed by ``dyn & (R - 1)`` holds them,
  re-initialised to "not issued" at fetch.  The ring is grown (rarely)
  if a pathological stall makes the window span approach ``R``.

The lockstep scheduler always simulates all ``max_cycles`` cycles: it
serves only machines with steady-state detection off and no memory
hierarchy, the full-simulation validation setting.  With detection on,
:meth:`~repro.cpu.machine.BatchedMachine.run_batch` schedules each row
with :meth:`PipelineSimulator.execute`, so one detector decides every
tiled kernel.  Memory hierarchies are *not* supported here either —
address-dependent latencies break the static-offset argument.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.errors import SimulationError
from ..isa.model import Program
from .microarch import MicroArch
from .pipeline import ExecutionTrace, PipelineSimulator

__all__ = ["simulate_population"]

#: "Fetched but not yet issued" sentinel in the completion ring.  Well
#: below int32 overflow even after ``- cycle`` normalisation.
_NOT_ISSUED = np.int32(2 ** 30)
#: Padding offset for absent sources: ``dyn - _PAD_OFF`` is always
#: negative, which is exactly the "no dependence" condition.
_PAD_OFF = 2 ** 29


class _ProgramTables:
    """Per-individual static scheduling tables for the lockstep loop."""

    __slots__ = ("groups", "loop_len", "port", "latency", "interval",
                 "back_off", "n_sources")

    def __init__(self, program: Program, arch: MicroArch,
                 port_index: Dict[str, int],
                 lookup_memo: Dict[tuple, Tuple[str, int, int, int]]) -> None:
        loop = program.loop
        if not loop:
            raise SimulationError(
                f"program {program.name!r} has an empty loop body")
        loop_len = len(loop)
        self.loop_len = loop_len
        memo_get = lookup_memo.get
        entries = []
        for instr in loop:
            key = (instr.group, instr.iclass)
            entry = memo_get(key)
            if entry is None:
                group = instr.group or instr.iclass.value
                entry = (group,
                         port_index[arch.port_group_of(group, instr.iclass)],
                         arch.latency_of(group, instr.iclass),
                         arch.initiation_interval(group, instr.iclass))
                lookup_memo[key] = entry
            entries.append(entry)
        self.groups = [entry[0] for entry in entries]
        self.port = np.array([entry[1] for entry in entries], np.int16)
        self.latency = np.array([entry[2] for entry in entries], np.int32)
        self.interval = np.array([entry[3] for entry in entries], np.int32)
        # Replay two loop iterations of the serial fetch rule to read
        # off the cyclic nearest-writer distances.  The first pass
        # seeds last_writer; the second is in steady state, where every
        # in-loop-written register has a writer within L instructions.
        last_writer: Dict[str, int] = {}
        for index, instr in enumerate(loop):
            for reg in instr.writes:
                last_writer[reg] = index
        offsets: List[List[int]] = []
        n_sources = 0
        for index, instr in enumerate(loop):
            dyn = loop_len + index
            offs = [dyn - last_writer[reg] for reg in instr.reads
                    if reg in last_writer]
            offsets.append(offs)
            if len(offs) > n_sources:
                n_sources = len(offs)
            for reg in instr.writes:
                last_writer[reg] = dyn
        self.n_sources = n_sources
        pad_row = [_PAD_OFF] * max(n_sources, 1)
        self.back_off = np.array(
            [offs + pad_row[len(offs):] for offs in offsets], np.int32)


def _pow2_at_least(value: int) -> int:
    size = 1
    while size < value:
        size *= 2
    return size


def simulate_population(programs: Sequence[Program], arch: MicroArch,
                        max_cycles: int) -> List[ExecutionTrace]:
    """Execute every program's loop for ``max_cycles`` cycles, lockstep.

    Returns one :class:`ExecutionTrace` per program, in input order,
    equal to the full simulation
    ``PipelineSimulator(arch, detect_steady_state=False).execute(
    program, max_cycles)`` (no memory hierarchy; see the module
    docstring).
    """
    arch.validate()
    if max_cycles < 1:
        raise SimulationError("max_cycles must be >= 1")
    population = len(programs)
    if population == 0:
        return []

    port_names = list(arch.ports)
    if len(port_names) > 8:
        raise SimulationError(
            "lockstep scheduler supports at most 8 port groups "
            f"({arch.name} has {len(port_names)})")
    if arch.window_size > 250:
        raise SimulationError(
            "lockstep scheduler packs per-port ready ranks into bytes; "
            f"window_size {arch.window_size} exceeds 250")
    port_index = {name: i for i, name in enumerate(port_names)}
    units = np.fromiter((arch.ports[name] for name in port_names),
                        np.int32, len(port_names))
    n_ports = len(port_names)

    lookup_memo: Dict[tuple, Tuple[int, int, int]] = {}
    tables = [_ProgramTables(program, arch, port_index, lookup_memo)
              for program in programs]

    window = arch.window_size
    width = arch.issue_width
    in_order = arch.in_order
    loop_max = max(t.loop_len for t in tables)
    n_src = max(max(t.n_sources for t in tables), 1)
    lat_max = int(max(int(t.latency.max()) for t in tables))
    intv_max = int(max(int(t.interval.max()) for t in tables))

    # Dynamic ids are bounded by window + max_cycles * width; when that
    # (and every completion cycle) fits comfortably under 2**14, the id
    # matrices, completion ring and source offsets all shrink to int16,
    # roughly halving the memory traffic of the per-cycle hot path.
    id_bound = window + max_cycles * width
    small_ids = id_bound < 16000 and max_cycles + lat_max < 16000
    id_dtype = np.int16 if small_ids else np.int32
    not_issued = id_dtype(2 ** 14 if small_ids else _NOT_ISSUED)
    pad_off = 2 ** 14 if small_ids else _PAD_OFF

    # Stacked static tables, padded to the longest loop.
    loop_lens = np.fromiter((t.loop_len for t in tables), np.int16,
                            population)
    port_tab = np.zeros((population, loop_max), np.int16)
    lat_tab = np.ones((population, loop_max), np.int32)
    intv_tab = np.ones((population, loop_max), np.int32)
    back_tab = np.full((population, loop_max, n_src), pad_off, id_dtype)
    for row, t in enumerate(tables):
        port_tab[row, :t.loop_len] = t.port
        lat_tab[row, :t.loop_len] = t.latency
        intv_tab[row, :t.loop_len] = t.interval
        back_tab[row, :t.loop_len, :t.back_off.shape[1]] = \
            np.where(t.back_off == _PAD_OFF, pad_off, t.back_off)

    # Hot-path layouts: flat views consumed by ``np.take`` (measurably
    # faster than multi-axis fancy indexing), per-source-slot 2D slices
    # of the back-offset table, and pre-shifted issue-rank tables.
    port_flat = port_tab.reshape(-1)
    lat_flat = lat_tab.reshape(-1)
    intv_flat = intv_tab.reshape(-1)
    back_flats = [np.ascontiguousarray(back_tab[:, :, k]).reshape(-1)
                  for k in range(n_src)]
    rank_dtype = np.int32 if n_ports <= 4 else np.int64
    pow_flat = np.left_shift(rank_dtype(1),
                             port_tab.astype(rank_dtype) << 3).reshape(-1)
    shift_flat = (port_tab.astype(np.int32) << 3).reshape(-1)

    ring_size = _pow2_at_least(2 * (window + loop_max + lat_max + width))
    ring_size = max(ring_size, 64)
    release_depth = max(_pow2_at_least(intv_max + 2), 32)

    # Per-individual output buffers.
    issue_buf = np.zeros((population, window + max_cycles * width),
                         np.int16)
    issue_len = np.zeros(population, np.int64)
    count_buf = np.zeros((population, max_cycles), np.int16)

    # Lockstep state.  The window is one matrix of dynamic ids in fetch
    # order — slots, ports and sources are recomputed from it each
    # cycle via the static tables.
    w_dyn = np.zeros((population, window), id_dtype)
    ring = np.full((population, ring_size), not_issued, id_dtype)
    busy = np.zeros((population, n_ports), np.int32)
    release = np.zeros((population, n_ports, release_depth), np.int16)
    next_dyn = np.zeros(population, np.int32)
    survivors = np.zeros(population, np.int32)

    #: Sentinel above every live dynamic id: issued entries are bumped
    #: to it so an in-place sort compacts survivors (ids are strictly
    #: increasing in fetch order, so sorting IS the stable compaction).
    dyn_max = id_dtype(2 ** 14 + 2 ** 13 if small_ids else 2 ** 30 + 1)

    take = np.take
    rows = np.arange(population)
    gbase = (rows * loop_max)[:, None]
    rbase = (rows * ring_size)[:, None]
    pbase = (rows * n_ports)[:, None]
    ring_flat = ring.reshape(-1)

    for cycle in range(max_cycles):
        # ---- free units whose initiation interval elapsed ------------
        due = cycle & (release_depth - 1)
        busy -= release[:, :, due]
        release[:, :, due] = 0

        # ---- guard: grow the completion ring if the window span plus
        # the dependency horizon approaches its capacity --------------
        span = int((next_dyn - w_dyn[:, 0]).max()) if cycle else 0
        if span + loop_max + lat_max + window >= ring_size:
            new_size = ring_size * 2
            grown = np.full((population, new_size), not_issued, id_dtype)
            old_ids = (next_dyn[:, None] - ring_size) \
                + np.arange(ring_size, dtype=np.int32)[None, :]
            grown[rows[:, None], old_ids & (new_size - 1)] = \
                ring[rows[:, None], old_ids & (ring_size - 1)]
            ring = grown
            ring_size = new_size
            rbase = (rows * ring_size)[:, None]
            ring_flat = ring.reshape(-1)
        mask = ring_size - 1

        # ---- fetch: refill every window to exactly W entries ---------
        n_new = window - survivors
        total = int(n_new.sum())
        if total:
            rows_rep = np.repeat(rows, n_new)
            starts = np.cumsum(n_new) - n_new
            offs = np.arange(total, dtype=np.int32) - starts[rows_rep]
            new_dyn = next_dyn[rows_rep] + offs
            w_dyn[rows_rep, survivors[rows_rep] + offs] = new_dyn
            ring_flat[rows_rep * ring_size + (new_dyn & mask)] = \
                not_issued
            next_dyn += n_new

        # ---- rebuild window facts from the dynamic ids ---------------
        slot = w_dyn % loop_lens[:, None]
        base2 = gbase + slot
        port = take(port_flat, base2)

        # ---- readiness: all sources complete by this cycle -----------
        src = w_dyn - take(back_flats[0], base2)
        done = take(ring_flat, rbase + (src & mask))
        blocked = (src >= 0) & (done > cycle)
        for k in range(1, n_src):
            src = w_dyn - take(back_flats[k], base2)
            done = take(ring_flat, rbase + (src & mask))
            blocked |= (src >= 0) & (done > cycle)
        ready = ~blocked

        # ---- issue selection (see module docstring for the proof) ----
        rank_packed = np.cumsum(take(pow_flat, base2) * ready, axis=1)
        port_rank = (rank_packed >> take(shift_flat, base2)) & 0xFF
        avail = units[None, :] - busy
        avail_here = take(avail.reshape(-1), pbase + port)
        selected = ready & (port_rank <= avail_here)
        sel_rank = np.cumsum(selected, axis=1, dtype=np.int32)
        if in_order:
            selected = np.logical_and.accumulate(selected, axis=1)
        issued = selected & (sel_rank <= width)

        # ---- apply issues --------------------------------------------
        rows_i, cols_i = np.nonzero(issued)
        base_i = base2[rows_i, cols_i]
        dyn_i = w_dyn[rows_i, cols_i]
        lat_i = lat_flat[base_i]
        intv_i = intv_flat[base_i]
        ring_flat[rows_i * ring_size + (dyn_i & mask)] = cycle + lat_i
        # Unit busy/release tracking only matters past an initiation
        # interval of 1: a fully-pipelined instruction's unit is free
        # again before the next cycle's selection ever reads the busy
        # counter, so its increment/decrement pair is unobservable.
        long_ix = np.nonzero(intv_i > 1)[0]
        if len(long_ix):
            rows_l = rows_i[long_ix]
            ports_l = port[rows_l, cols_i[long_ix]]
            busy += np.bincount(rows_l * n_ports + ports_l,
                                minlength=population * n_ports) \
                .reshape(population, n_ports).astype(np.int32)
            np.add.at(
                release,
                (rows_l, ports_l,
                 (cycle + intv_i[long_ix]) & (release_depth - 1)),
                1)
        issue_buf[rows_i, issue_len[rows_i]
                  + (sel_rank[rows_i, cols_i] - 1)] = \
            slot[rows_i, cols_i].astype(np.int64)
        per_row = issued.sum(axis=1, dtype=np.int32)
        count_buf[:, cycle] = per_row
        issue_len += per_row

        # ---- compact: bump issued ids past every live id, then an
        # in-place sort IS the stable compaction (ids are strictly
        # increasing along each row in fetch order) --------------------
        np.copyto(w_dyn, dyn_max, where=issued)
        w_dyn.sort(axis=1)
        survivors[:] = window - per_row

    # ---- materialise one trace per individual ------------------------
    traces: List[ExecutionTrace] = []
    for row, t in enumerate(tables):
        offsets = np.zeros(max_cycles + 1, np.int64)
        np.cumsum(count_buf[row].astype(np.int64), out=offsets[1:])
        traces.append(PipelineSimulator._build_trace(
            t.groups, t.loop_len, max_cycles, 0, 0,
            issue_buf[row, :int(issue_len[row])].astype(np.int32),
            offsets, np.full(max_cycles, window, np.int32), None, None))
    return traces
