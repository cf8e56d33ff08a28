"""Unit tests for the pipeline model (repro.cpu.pipeline).

These check the scheduling semantics against hand-computable cases on
synthetic microarchitectures, not just the presets.
"""

import pytest

from repro.core.errors import SimulationError
from repro.cpu.microarch import MicroArch, microarch_for
from repro.cpu.pipeline import PipelineSimulator
from repro.isa import ArmAssembler


def _arch(in_order=False, width=2, window=16, ports=None, latency=None,
          unpipelined=()):
    return MicroArch(
        name="synthetic", isa="arm", frequency_hz=1e9, core_count=1,
        in_order=in_order, issue_width=width, window_size=window,
        ports=ports or {"int": 2, "fp": 2, "mem": 2, "br": 1},
        latency=latency or {},
        unpipelined=frozenset(unpipelined),
    )


def _run(source, arch, cycles=200):
    program = ArmAssembler().assemble(source)
    return PipelineSimulator(arch).execute(program, max_cycles=cycles)


class TestThroughputBounds:
    def test_independent_ops_saturate_width(self):
        # Six independent adds, 2 int ports... width 2 — IPC limited by
        # the int port count (2).
        src = "\n".join(f"add x{i}, x{i + 6}, x{i + 6}" for i in range(1, 5))
        trace = _run(src, _arch(width=2))
        assert trace.ipc == pytest.approx(2.0, rel=0.05)

    def test_ipc_never_exceeds_width(self):
        src = "\n".join(f"add x{i}, x{i + 6}, x{i + 6}" for i in range(1, 6))
        trace = _run(src, _arch(width=2, ports={"int": 4, "fp": 2,
                                                "mem": 2, "br": 1}))
        assert trace.ipc <= 2.0 + 1e-9

    def test_port_limit_binds(self):
        # Only one int port: IPC capped at 1 despite width 2.
        src = "add x1, x7, x8\nadd x2, x7, x8\nadd x3, x7, x8"
        trace = _run(src, _arch(ports={"int": 1, "fp": 1, "mem": 1,
                                       "br": 1}))
        assert trace.ipc == pytest.approx(1.0, rel=0.05)

    def test_dependency_chain_limits_to_inverse_latency(self):
        # A single self-dependent multiply with latency 4: one issue per
        # 4 cycles.
        arch = _arch(latency={"mul": 4})
        trace = _run("mul x1, x1, x2", arch)
        assert trace.ipc == pytest.approx(0.25, rel=0.1)

    def test_unpipelined_unit_blocks(self):
        # Independent divides, 1 int port... er 2 ports, latency 8
        # non-pipelined: throughput = 2 units / 8 cycles.
        arch = _arch(latency={"div": 8}, unpipelined=["div"])
        src = "\n".join(f"sdiv x{i}, x{i + 6}, x{i + 7}"
                        for i in range(1, 5))
        trace = _run(src, arch, cycles=400)
        assert trace.ipc == pytest.approx(2 / 8, rel=0.15)

    def test_pipelined_long_latency_sustains_throughput(self):
        # Independent latency-4 multiplies are fully pipelined: the two
        # int units sustain 2/cycle.
        arch = _arch(latency={"mul": 4})
        src = "\n".join(f"mul x{i}, x{i + 6}, x{i + 7}"
                        for i in range(1, 6))
        trace = _run(src, arch, cycles=400)
        assert trace.ipc == pytest.approx(2.0, rel=0.1)


class TestInOrderVsOutOfOrder:
    # A latency-4 multiply chain immediately followed by its consumer:
    # an in-order front stalls at the consumer; OOO slips the four
    # independent adds underneath the stall.
    SRC = ("mul x1, x1, x2\n"
           "add x3, x1, x4\n"
           "add x5, x7, x8\n"
           "add x6, x7, x8\n"
           "add x4, x7, x8\n"
           "add x9, x7, x8\n")

    def test_ooo_hides_chain_behind_independents(self):
        ooo = _run(self.SRC, _arch(in_order=False, width=2), cycles=300)
        ino = _run(self.SRC, _arch(in_order=True, width=2, window=4),
                   cycles=300)
        assert ooo.ipc > ino.ipc * 1.2

    def test_in_order_stalls_at_head(self):
        # The consumer blocks the head for the mul latency each
        # iteration, capping in-order IPC around 1.
        ino = _run(self.SRC, _arch(in_order=True, width=2, window=4),
                   cycles=300)
        assert ino.ipc < 1.3


class TestBranchesAndLoops:
    def test_predictable_branches_fill_br_port(self):
        src = "b 1f\n1:\nadd x1, x7, x8\nadd x2, x7, x8"
        trace = _run(src, _arch(width=3))
        # 1 branch + 2 adds per iteration, all issueable each cycle.
        assert trace.ipc == pytest.approx(3.0, rel=0.1)

    def test_loop_iterations_counted(self):
        trace = _run("add x1, x7, x8\nadd x2, x7, x8", _arch(), cycles=100)
        assert trace.loop_iterations == pytest.approx(100, rel=0.1)

    def test_issue_width_histogram_sums_to_cycles(self):
        trace = _run("add x1, x7, x8\nmul x2, x2, x3", _arch(), cycles=150)
        histogram = trace.issue_width_histogram()
        assert sum(histogram.values()) == trace.cycles


class TestTraceContents:
    def test_issued_per_cycle_matches_total(self):
        trace = _run("add x1, x7, x8\nnop", _arch(), cycles=100)
        assert sum(len(c) for c in trace.issued_per_cycle) == \
            trace.instructions_issued

    def test_occupancy_bounded_by_window(self):
        arch = _arch(window=8)
        trace = _run("sdiv x1, x1, x2", arch, cycles=100)
        assert all(0 <= occ <= 8 for occ in trace.occupancy)

    def test_group_counts_match_issues(self):
        trace = _run("add x1, x7, x8\nmul x2, x7, x8", _arch(), cycles=100)
        assert sum(trace.group_counts.values()) == \
            trace.instructions_issued
        assert set(trace.group_counts) == {"alu", "mul"}

    def test_empty_loop_rejected(self):
        program = ArmAssembler().assemble("mov x1, #1\n.loop\n.endloop\n")
        with pytest.raises(SimulationError, match="empty"):
            PipelineSimulator(_arch()).execute(program)

    def test_bad_cycle_count_rejected(self):
        program = ArmAssembler().assemble("nop\n")
        with pytest.raises(SimulationError):
            PipelineSimulator(_arch()).execute(program, max_cycles=0)

    def test_determinism(self):
        a = _run("add x1, x7, x8\nmul x2, x2, x3", _arch(), cycles=200)
        b = _run("add x1, x7, x8\nmul x2, x2, x3", _arch(), cycles=200)
        assert a.issued_per_cycle == b.issued_per_cycle


class TestPresetBehaviour:
    def test_a7_is_narrower_than_a15(self):
        src = "\n".join(f"vmul v{i}, v{i + 8}, v{i + 4}" for i in range(4))
        src += "\nadd x1, x2, x3\nadd x4, x5, x6"
        a15 = PipelineSimulator(microarch_for("cortex_a15"))
        a7 = PipelineSimulator(microarch_for("cortex_a7"))
        program = ArmAssembler().assemble(src)
        assert a15.execute(program, 400).ipc > a7.execute(program, 400).ipc

    def test_xgene_reaches_width_four(self):
        src = ("add x1, x7, x8\nadd x2, x7, x8\n"
               "ldr x9, [x10, #8]\nldr x7, [x11, #16]\n"
               "vmul v0, v8, v9\nvmul v1, v10, v11\n"
               "b 1f\n1:\n")
        program = ArmAssembler().assemble(src)
        trace = PipelineSimulator(microarch_for("xgene2")).execute(
            program, 400)
        assert trace.ipc > 3.4
