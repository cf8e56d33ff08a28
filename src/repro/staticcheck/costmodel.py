"""Static cost model: llvm-mca-style throughput bounds over a Program.

Where :mod:`~repro.staticcheck.dataflow` counts instructions, this pass
prices them.  Using the *real* per-group latencies, port widths and
energies of a :class:`~repro.cpu.microarch.MicroArch`, it derives — per
loop iteration and without running the pipeline model — three classic
lower bounds on cycles per iteration:

* the **issue bound** ``loop_length / issue_width``;
* per-**port pressure** bounds ``sum(initiation intervals routed to the
  port) / port count``;
* the **loop-carried dependency chain** rate ``λ``: the maximum cycle
  ratio of the register-dependence graph, i.e. the cycles one iteration
  must take once the recurrence with the highest latency-per-iteration
  dominates.

The largest of the three is a *sound* lower bound on steady-state
cycles per iteration under the pipeline model of
:mod:`repro.cpu.pipeline` (resources and the issue width only ever slow
the dependence-feasible schedule down), so ``ipc_upper = loop_length /
bound`` is a sound static IPC upper bound — the property tests assert
the simulator never beats it.  An energy/power proxy band follows from
the per-group EPIs and the toggle-activity envelope of
:mod:`repro.cpu.power`.

``λ`` is the maximum cycle ratio of the register-dependence graph,
computed exactly in two cheap steps: one sequential pass over the body
condenses all intra-iteration paths into a max-plus transfer matrix
between the *loop-carried* registers (those read before their first
in-body write), and Karp's maximum-cycle-mean algorithm on that small
matrix yields the ratio.  Cycle quantities stay exact rationals of the
integer latency tables; the whole pass costs microseconds — the
``static_rank`` strategy budget (and the BENCH_staticrank gate) demand
it stay ≥100x under one simulated evaluation.

Findings surface as ``SC3xx`` diagnostics: SC301 (a serialising
loop-carried chain dominates the machine's width), SC302 (a unit class
the config's stress intent needs is statically idle) and SC303 (the
static bound already rules out the configured fitness target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cpu.microarch import MicroArch
from ..cpu.power import _EPI_FLOOR, _EPI_SPAN
from ..isa.model import Program
from .dataflow import StaticProfile, analyze_program
from .diagnostics import Diagnostic, make_diagnostic

__all__ = ["InstructionCost", "StaticCostReport", "CostModelReport",
           "analyze_cost", "static_score", "render_cost_table",
           "spearman", "INTENT_PORTS"]

#: Stress intent → port groups the virus is expected to hammer.  Used
#: by SC302: a config hunting a power virus on a machine whose FP ports
#: never see an instruction is structurally unable to reach its goal.
INTENT_PORTS: Dict[str, Tuple[str, ...]] = {
    "power": ("fp",),
    "energy": ("fp",),
    "temperature": ("fp",),
    "didt": ("fp",),
    "ipc": ("int", "fp", "mem"),
}

_NEG = float("-inf")


@dataclass(frozen=True)
class InstructionCost:
    """Per-loop-slot pricing facts, one row of the pressure table."""

    index: int
    opcode: str
    group: str
    port: str
    latency: int
    interval: int
    energy_pj: float
    #: On the longest latency-weighted dependence path of one iteration.
    critical: bool


@dataclass(frozen=True)
class StaticCostReport(StaticProfile):
    """A :class:`StaticProfile` priced against one microarchitecture.

    All cycle quantities are per loop iteration.  ``bound_cycles`` is
    the max of the issue, port and chain bounds — a sound lower bound
    on steady-state cycles per iteration — and ``ipc_upper`` its dual.
    ``ipc_lower`` and the energy/power band are estimates for ranking,
    not verified bounds.
    """

    arch: str
    issue_width: int
    #: Loop-carried dependence rate λ (cycles/iteration), exact.
    chain_cycles: float
    issue_cycles: float
    port_cycles: Dict[str, float]
    bound_cycles: float
    #: Fully-serialised worst case: the sum of all latencies.
    serial_cycles: float
    ipc_upper: float
    ipc_lower: float
    energy_pj_lower: float
    energy_pj_upper: float
    power_proxy_w_lower: float
    power_proxy_w_upper: float
    instruction_costs: Tuple[InstructionCost, ...]

    def as_features(self) -> Dict[str, float]:
        features = super().as_features()
        features.update({
            "chain_cycles": self.chain_cycles,
            "issue_cycles": self.issue_cycles,
            "bound_cycles": self.bound_cycles,
            "ipc_upper": self.ipc_upper,
            "ipc_lower": self.ipc_lower,
            "energy_pj_upper": self.energy_pj_upper,
            "power_proxy_w_upper": self.power_proxy_w_upper,
        })
        features.update({f"port_{name}_cycles": value
                         for name, value in sorted(self.port_cycles.items())})
        return features

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for ``gest analyze --json``."""
        return {
            "arch": self.arch,
            "loop_length": self.loop_length,
            "issue_width": self.issue_width,
            "chain_cycles": self.chain_cycles,
            "issue_cycles": self.issue_cycles,
            "port_cycles": dict(sorted(self.port_cycles.items())),
            "bound_cycles": self.bound_cycles,
            "serial_cycles": self.serial_cycles,
            "ipc_upper": self.ipc_upper,
            "ipc_lower": self.ipc_lower,
            "energy_pj_lower": self.energy_pj_lower,
            "energy_pj_upper": self.energy_pj_upper,
            "power_proxy_w_lower": self.power_proxy_w_lower,
            "power_proxy_w_upper": self.power_proxy_w_upper,
            "footprint_bytes": self.footprint_bytes,
            "mix_vector": dict(sorted(self.mix_vector.items())),
            "instructions": [
                {"index": c.index, "opcode": c.opcode, "group": c.group,
                 "port": c.port, "latency": c.latency,
                 "interval": c.interval, "energy_pj": c.energy_pj,
                 "critical": c.critical}
                for c in self.instruction_costs],
        }


@dataclass
class CostModelReport:
    """Output of one cost-model pass: priced profile plus findings.

    ``diagnostics`` merges the dataflow pass's ``SC1xx`` findings with
    the cost model's own ``SC3xx`` ones, in stable sorted order.
    """

    program_name: str
    cost: StaticCostReport
    diagnostics: List[Diagnostic] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Loop-carried chain rate (maximum cycle ratio of the dependence graph)
# ---------------------------------------------------------------------------

def _slot_facts(program: Program, arch: MicroArch
                ) -> List[Tuple[Tuple[str, ...], Tuple[str, ...], int, str,
                                int, float]]:
    """(reads, writes, latency, port, interval, epi) per loop slot.

    Dependence edges come from ``instr.reads`` only, mirroring the
    scheduler: the pipeline resolves RAW hazards through its
    ``last_writer`` map over ``slot.reads`` and treats the memory base
    register as an address input, not an issue-time dependence.
    """
    facts = []
    pricing: Dict[tuple, tuple] = {}
    for instr in program.loop:
        group = instr.group or instr.iclass.value
        iclass = instr.iclass
        key = (group, iclass)
        priced = pricing.get(key)
        if priced is None:
            priced = (arch.latency_of(group, iclass),
                      arch.port_group_of(group, iclass),
                      arch.initiation_interval(group, iclass),
                      arch.epi_of(group, iclass))
            pricing[key] = priced
        facts.append((instr.reads, instr.writes) + priced)
    return facts


def _chain_rate(deps: Sequence[Tuple[Tuple[str, ...], Tuple[str, ...],
                                     int]]) -> float:
    """λ: asymptotic cycles per iteration forced by loop-carried
    register dependences alone — the maximum cycle ratio of the
    dependence graph, exactly.  ``deps`` is one ``(reads, writes,
    latency)`` triple per loop slot, in body order.

    One sequential body pass condenses every intra-iteration
    dependence path into a sparse max-plus transfer matrix between the
    *boundary* registers (those read before their first in-body write,
    consuming the previous iteration's value): a register read with no
    prior write is seeded lazily; writes shadow the seed exactly as
    the scheduler's last-writer map would.  Dependence edges come from
    ``instr.reads`` only, mirroring the scheduler (a memory base
    register is an address input, not an issue-time dependence).

    Every loop-carried cycle crosses the iteration boundary only
    through boundary registers, so cycles of the transfer matrix (one
    matrix edge = one iteration) are exactly the dependence cycles and
    λ is the matrix's maximum cycle *mean*: Karp's algorithm, run per
    strongly connected component — GA bodies leave a handful of short
    recurrences, so the components are tiny and the whole pass stays
    microseconds-cheap.
    """
    # Body pass.  A row maps seed index → worst completion delay from
    # that boundary read (absent entry = unreachable, max-plus -inf);
    # rows stay tiny because a register's value descends from very few
    # boundary values.  A dead write leaves the shared empty row,
    # which must *not* re-seed on a later read (the value no longer
    # crosses the boundary) — hence the None/empty distinction.
    rows: Dict[str, Dict[int, int]] = {}
    seeded: List[str] = []
    empty: Dict[int, int] = {}
    for reads, writes, latency in deps:
        acc: Optional[Dict[int, int]] = None
        for reg in reads:
            row = rows.get(reg)
            if row is None:
                row = {len(seeded): 0}
                seeded.append(reg)
                rows[reg] = row
            elif not row:
                continue
            if acc is None:
                acc = row
            elif acc is not row:
                merged = dict(acc)
                for seed, value in row.items():
                    if value > merged.get(seed, -1):
                        merged[seed] = value
                acc = merged
        if not writes:
            continue
        out = empty if acc is None \
            else {seed: value + latency for seed, value in acc.items()}
        for reg in writes:
            rows[reg] = out
    if not seeded:
        return 0.0

    # Sparse edges src-seed → dst-seed: boundary read of seed src to
    # the final (loop-carried) write of dst.  A seed never written in
    # the body keeps its identity row — a weight-0 self-edge that can
    # never dominate a cycle mean (real latencies are ≥ 1) — dropped
    # here so it cannot inflate a component.
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for dst, reg in enumerate(seeded):
        for src, weight in rows[reg].items():
            if weight or src != dst:
                adjacency.setdefault(src, []).append((dst, weight))
    if not adjacency:
        return 0.0
    return _max_cycle_mean(adjacency)


def _max_cycle_mean(adjacency: Dict[int, List[Tuple[int, int]]]) -> float:
    """Maximum cycle mean of a sparse weighted digraph: Tarjan SCC
    decomposition, then Karp per non-trivial component."""
    order: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in adjacency:
        if root in order:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            targets = adjacency.get(node, ())
            descended = False
            while edge_pos < len(targets):
                succ = targets[edge_pos][0]
                edge_pos += 1
                if succ not in order:
                    work[-1] = (node, edge_pos)
                    work.append((succ, 0))
                    descended = True
                    break
                if succ in on_stack and order[succ] < low[node]:
                    low[node] = order[succ]
            if descended:
                continue
            work.pop()
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                # Only components that can hold a cycle matter: two or
                # more nodes, or a single node with a self-loop.
                if len(component) > 1 or any(
                        dst == node for dst, _w in adjacency.get(node, ())):
                    components.append(component)
            elif work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]

    rate = 0.0
    for component in components:
        if len(component) == 1:
            node = component[0]
            weight = max(w for dst, w in adjacency[node] if dst == node)
            if weight > rate:
                rate = weight
            continue
        remap = {node: slot for slot, node in enumerate(component)}
        count = len(component)
        edges = [(slot, remap[dst], weight)
                 for node, slot in remap.items()
                 for dst, weight in adjacency.get(node, ())
                 if dst in remap]
        # Karp: D[k][v] = best k-edge path ending at v (super-source).
        best: List[float] = [0.0] * count
        history = [best]
        for _step in range(count):
            step_best = [_NEG] * count
            for src, dst, weight in edges:
                source = best[src]
                if source > _NEG:
                    candidate = source + weight
                    if candidate > step_best[dst]:
                        step_best[dst] = candidate
            best = step_best
            history.append(best)
        final = history[count]
        for node in range(count):
            top = final[node]
            if top <= _NEG:
                continue
            node_rate = None
            for k in range(count):
                down = history[k][node]
                if down > _NEG:
                    mean = (top - down) / (count - k)
                    if node_rate is None or mean < node_rate:
                        node_rate = mean
            if node_rate is not None and node_rate > rate:
                rate = node_rate
    return float(rate)


def _critical_slots(facts: Sequence[tuple]) -> List[bool]:
    """Membership of the longest latency-weighted path of one iteration
    (display aid for the pressure table, not a bound)."""
    count = len(facts)
    depth = [0] * count
    previous = [-1] * count
    writer_depth: Dict[str, Tuple[int, int]] = {}  # reg → (depth, slot)
    for index, (reads, writes, latency, _port, _ii, _epi) in enumerate(facts):
        best, best_src = 0, -1
        for reg in reads:
            entry = writer_depth.get(reg)
            if entry is not None and entry[0] > best:
                best, best_src = entry
        depth[index] = best + latency
        previous[index] = best_src
        for reg in writes:
            writer_depth[reg] = (depth[index], index)
    critical = [False] * count
    if count:
        cursor = max(range(count), key=lambda i: depth[i])
        while cursor >= 0:
            critical[cursor] = True
            cursor = previous[cursor]
    return critical


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def analyze_cost(program: Program, arch: MicroArch, *,
                 source_file: Optional[str] = None,
                 intent: Optional[str] = None,
                 fitness_target: Optional[float] = None
                 ) -> CostModelReport:
    """Run dataflow + cost model; never raises on program content.

    ``intent`` is the config's fitness metric name (``power``, ``ipc``,
    ...) and arms SC302/SC303; without it only SC301 can fire.
    """
    base = analyze_program(program, source_file=source_file)
    diagnostics = list(base.diagnostics)
    facts = _slot_facts(program, arch)
    loop_len = len(facts)

    chain_cycles = _chain_rate([(f[0], f[1], f[2]) for f in facts])
    issue_cycles = loop_len / arch.issue_width if loop_len else 0.0
    port_cycles: Dict[str, float] = {port: 0.0 for port in arch.ports}
    epi_total = 0.0
    serial_cycles = 0.0
    costs: List[InstructionCost] = []
    critical = _critical_slots(facts)
    for index, instr in enumerate(program.loop):
        group = instr.group or instr.iclass.value
        latency = arch.latency_of(group, instr.iclass)
        interval = arch.initiation_interval(group, instr.iclass)
        port = arch.port_group_of(group, instr.iclass)
        epi = arch.epi_of(group, instr.iclass)
        port_cycles[port] += interval / arch.ports[port]
        epi_total += epi
        serial_cycles += latency
        costs.append(InstructionCost(
            index=index, opcode=instr.opcode, group=group, port=port,
            latency=latency, interval=interval, energy_pj=epi,
            critical=critical[index]))

    bound_cycles = max([issue_cycles, chain_cycles]
                       + list(port_cycles.values()))
    ipc_upper = loop_len / bound_cycles if bound_cycles else 0.0
    ipc_lower = loop_len / serial_cycles if serial_cycles else 0.0

    floor, ceil = _EPI_FLOOR, _EPI_FLOOR + _EPI_SPAN
    energy_lower = floor * epi_total + arch.base_cycle_pj * bound_cycles
    energy_upper = ceil * epi_total + arch.base_cycle_pj * serial_cycles
    overhead_w = arch.static_power_w + arch.uncore_power_w
    frequency = arch.frequency_hz
    power_upper = overhead_w + 1e-12 * frequency * (
        ceil * epi_total / bound_cycles + arch.base_cycle_pj) \
        if bound_cycles else overhead_w
    power_lower = overhead_w + 1e-12 * frequency * (
        floor * epi_total / serial_cycles + arch.base_cycle_pj) \
        if serial_cycles else overhead_w

    cost = StaticCostReport(
        loop_length=base.profile.loop_length,
        chain_depth=base.profile.chain_depth,
        mix_vector=base.profile.mix_vector,
        footprint_bytes=base.profile.footprint_bytes,
        distinct_lines=base.profile.distinct_lines,
        uninitialised_reads=base.profile.uninitialised_reads,
        dead_writes=base.profile.dead_writes,
        memory_instructions=base.profile.memory_instructions,
        arch=arch.name,
        issue_width=arch.issue_width,
        chain_cycles=chain_cycles,
        issue_cycles=issue_cycles,
        port_cycles=port_cycles,
        bound_cycles=bound_cycles,
        serial_cycles=serial_cycles,
        ipc_upper=ipc_upper,
        ipc_lower=ipc_lower,
        energy_pj_lower=energy_lower,
        energy_pj_upper=energy_upper,
        power_proxy_w_lower=power_lower,
        power_proxy_w_upper=power_upper,
        instruction_costs=tuple(costs),
    )

    # -- SC301: the chain dominates the machine's width -------------------
    resource_cycles = max([issue_cycles] + list(port_cycles.values())) \
        if loop_len else 0.0
    if loop_len > 1 and chain_cycles > resource_cycles + 1e-9:
        diagnostics.append(make_diagnostic(
            "SC301",
            f"the loop-carried dependency chain forces "
            f"{chain_cycles:.2f} cycles/iteration against a resource "
            f"bound of {resource_cycles:.2f} — the {arch.issue_width}"
            f"-wide machine idles on serial latency (static IPC ≤ "
            f"{ipc_upper:.2f})",
            file=source_file))

    # -- SC302: intent needs a unit class the body never touches -----------
    if intent is not None:
        for port in INTENT_PORTS.get(intent, ()):
            if port in port_cycles and port_cycles[port] == 0.0 and loop_len:
                diagnostics.append(make_diagnostic(
                    "SC302",
                    f"stress intent {intent!r} expects pressure on the "
                    f"{port!r} ports but no loop instruction is routed "
                    f"there — the unit class is structurally idle",
                    file=source_file))

    # -- SC303: the target is statically unreachable ------------------------
    if intent == "ipc" and fitness_target is not None \
            and fitness_target > ipc_upper + 1e-9:
        diagnostics.append(make_diagnostic(
            "SC303",
            f"fitness target {fitness_target:g} IPC exceeds the static "
            f"steady-state upper bound {ipc_upper:.2f} for this body on "
            f"{arch.name} — only a warm-up transient could ever measure "
            f"above it",
            file=source_file))

    return CostModelReport(program_name=program.name, cost=cost,
                           diagnostics=diagnostics)


def static_score(program: Program, arch: MicroArch, metric: str) -> float:
    """The candidate-ranking fast path: one static fitness proxy.

    Prices the program's
    :meth:`~repro.isa.model.Program.dependence_summary` — the group
    vocabulary and the loop-carried cycle family condensed out of the
    body, built on first use and cached on the program — so scoring
    touches a handful of table entries instead of the instruction
    list.  This is the per-candidate cost the ``static_rank`` strategy
    pays for every pruned simulation, and the quantity BENCH_staticrank
    gates at ≥100x under one simulated evaluation.

    Ordering guarantee: the summary's cycle family is a *subset* of
    the real dependence cycles (single-predecessor condensation), so
    the chain bound here never exceeds :func:`analyze_cost`'s exact λ.
    For ``metric == "ipc"`` the score is therefore a sound static IPC
    upper bound at least as large as the exact ``ipc_upper``; for the
    power-family metrics it is likewise at least the exact
    ``power_proxy_w_upper``.  Only the ordering matters for ranking,
    so the relaxation trades a little tightness for ~100x less work.
    """
    summary = program.dependence_summary()
    loop_len = summary.loop_length
    if not loop_len:
        return 0.0
    ports = arch.ports
    port_intervals: Dict[str, int] = {}
    epi_total = 0.0
    latencies: List[int] = []
    for key, count in zip(summary.group_keys, summary.group_counts):
        group, iclass = key
        latencies.append(arch.latency_of(group, iclass))
        port = arch.port_group_of(group, iclass)
        interval = arch.initiation_interval(group, iclass)
        port_intervals[port] = port_intervals.get(port, 0) \
            + interval * count
        epi_total += arch.epi_of(group, iclass) * count
    bound_cycles = loop_len / arch.issue_width
    for port, total in port_intervals.items():
        pressure = total / ports[port]
        if pressure > bound_cycles:
            bound_cycles = pressure
    for vector, length in zip(summary.cycle_counts,
                              summary.cycle_lengths):
        weight = 0
        for gid, multiplicity in enumerate(vector):
            if multiplicity:
                weight += multiplicity * latencies[gid]
        mean = weight / length
        if mean > bound_cycles:
            bound_cycles = mean
    if metric == "ipc":
        return loop_len / bound_cycles
    ceil = _EPI_FLOOR + _EPI_SPAN
    return (arch.static_power_w + arch.uncore_power_w
            + 1e-12 * arch.frequency_hz
            * (ceil * epi_total / bound_cycles + arch.base_cycle_pj))


def render_cost_table(report: CostModelReport) -> str:
    """The human-readable per-instruction pressure table for the CLI."""
    cost = report.cost
    header = (f"{cost.arch}: {cost.loop_length} instructions, "
              f"issue width {cost.issue_width}")
    lines = [header, ""]
    lines.append(f"{'idx':>3}  {'opcode':<10} {'group':<10} {'port':<4} "
                 f"{'lat':>3} {'ii':>3} {'pJ':>7}  chain")
    for row in cost.instruction_costs:
        marker = "*" if row.critical else ""
        lines.append(f"{row.index:>3}  {row.opcode:<10} {row.group:<10} "
                     f"{row.port:<4} {row.latency:>3} {row.interval:>3} "
                     f"{row.energy_pj:>7.1f}  {marker}")
    lines.append("")
    bounds = ", ".join(
        [f"issue {cost.issue_cycles:.2f}"]
        + [f"{port} {value:.2f}"
           for port, value in sorted(cost.port_cycles.items())]
        + [f"chain {cost.chain_cycles:.2f}"])
    lines.append(f"cycles/iteration bounds: {bounds}")
    lines.append(f"binding bound: {cost.bound_cycles:.2f} cycles/iteration "
                 f"→ static IPC ≤ {cost.ipc_upper:.2f} "
                 f"(≥ {cost.ipc_lower:.2f} serialised)")
    lines.append(f"energy/iteration: {cost.energy_pj_lower:.0f}–"
                 f"{cost.energy_pj_upper:.0f} pJ; core power proxy: "
                 f"{cost.power_proxy_w_lower:.2f}–"
                 f"{cost.power_proxy_w_upper:.2f} W")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rank statistics (static score vs simulated fitness)
# ---------------------------------------------------------------------------

def _average_ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) \
                and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        shared = (start + stop) / 2.0 + 1.0
        for position in range(start, stop + 1):
            ranks[order[position]] = shared
        start = stop + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation; None when uninformative (n < 3 or a
    constant sequence — two points always correlate at exactly ±1, so
    a pair carries no rank information worth reporting)."""
    if len(xs) != len(ys) or len(xs) < 3:
        return None
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x <= 0.0 or var_y <= 0.0:
        return None
    return cov / math.sqrt(var_x * var_y)
