"""Unit tests for the simulated machine and target
(repro.cpu.machine, repro.cpu.target)."""

import pytest

from repro.core.errors import (AssemblyError, SimulationError, TargetError)
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.cpu.microarch import PRESETS, microarch_for, preset_names
from repro.cpu.power import PowerModel

SRC = (".loop\nadd x1, x2, x3\nvmul v0, v8, v9\nldr x7, [x10, #16]\n"
       ".endloop\n")


class TestPresets:
    def test_table2_platforms_present(self):
        """The four Table II platforms, plus the authors' industrial
        A57 cluster (refs [11][12][22]) as a fifth preset."""
        assert set(preset_names()) == {
            "cortex_a15", "cortex_a7", "xgene2", "athlon_x4",
            "cortex_a57"}

    def test_table2_core_counts(self):
        assert PRESETS["cortex_a15"].core_count == 2
        assert PRESETS["cortex_a7"].core_count == 3
        assert PRESETS["xgene2"].core_count == 8
        assert PRESETS["athlon_x4"].core_count == 4

    def test_isa_assignment(self):
        assert PRESETS["athlon_x4"].isa == "x86"
        assert all(PRESETS[n].isa == "arm"
                   for n in ("cortex_a15", "cortex_a7", "xgene2"))

    def test_a7_is_the_only_in_order(self):
        in_order = [n for n in preset_names() if PRESETS[n].in_order]
        assert in_order == ["cortex_a7"]

    def test_unknown_preset(self):
        from repro.core.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown"):
            microarch_for("pentium4")

    def test_presets_validate(self):
        for name in preset_names():
            PRESETS[name].validate()

    def test_with_overrides(self):
        arch = microarch_for("cortex_a15").with_overrides(core_count=4)
        assert arch.core_count == 4
        assert microarch_for("cortex_a15").core_count == 2


class TestMachineBasics:
    def test_construct_by_name(self):
        machine = SimulatedMachine("cortex_a7", seed=0)
        assert machine.arch.name == "cortex_a7"

    def test_unknown_environment(self):
        with pytest.raises(TargetError):
            SimulatedMachine("cortex_a7", environment="hypervisor")

    def test_compile_error_propagates(self, a15_machine):
        with pytest.raises(AssemblyError):
            a15_machine.compile("frobnicate x1, x2\n")

    def test_run_source_round_trip(self, a15_machine):
        result = a15_machine.run_source(SRC)
        assert result.ipc > 0
        assert result.core_power_w > 0
        assert result.chip_power_w > result.core_power_w
        assert len(result.power_samples_w) == 10

    def test_bad_core_count(self, a15_machine):
        program = a15_machine.compile(SRC)
        with pytest.raises(SimulationError):
            a15_machine.run(program, cores=0)
        with pytest.raises(SimulationError):
            a15_machine.run(program, cores=3)

    def test_bad_duration(self, a15_machine):
        program = a15_machine.compile(SRC)
        with pytest.raises(SimulationError):
            a15_machine.run(program, duration_s=0)

    def test_multicore_draws_more_power(self, a15_machine):
        program = a15_machine.compile(SRC)
        one = a15_machine.run(program, cores=1)
        two = a15_machine.run(program, cores=2)
        assert two.chip_power_w > one.chip_power_w

    def test_multicore_runs_hotter(self, a15_machine):
        program = a15_machine.compile(SRC)
        one = a15_machine.run(program, cores=1)
        two = a15_machine.run(program, cores=2)
        assert two.temperature_c > one.temperature_c

    def test_idle_power_below_active(self, a15_machine):
        result = a15_machine.run_source(SRC)
        assert a15_machine.idle_core_power_w() < result.core_power_w

    def test_idle_temperature_below_active(self, a15_machine):
        result = a15_machine.run_source(SRC, cores=2, duration_s=30.0)
        assert a15_machine.idle_temperature_c() < result.temperature_c

    def test_max_temperature_bounds_runs(self, a15_machine):
        result = a15_machine.run_source(SRC, cores=2, duration_s=30.0)
        assert result.temperature_c < a15_machine.max_temperature_c()

    def test_single_core_max_below_all_core_max(self, a15_machine):
        assert a15_machine.max_temperature_c(active_cores=1) < \
            a15_machine.max_temperature_c()

    def test_supply_override_scales_power(self, a15_machine):
        program = a15_machine.compile(SRC)
        nominal = a15_machine.run(program)
        lowered = a15_machine.run(
            program, supply_v=a15_machine.arch.vdd_nominal - 0.1)
        assert lowered.chip_power_w < nominal.chip_power_w

    def test_voltage_trace_present(self, athlon_machine):
        result = athlon_machine.run_source(
            ".loop\naddps xmm0, xmm1\nmov r9, [rbp+8]\n.endloop\n")
        assert result.peak_to_peak_v > 0
        assert result.v_min < athlon_machine.supply_v

    def test_crash_detection_at_low_supply(self, athlon_machine):
        src = (".loop\n" + "vfmadd231ps xmm0, xmm1, xmm2\n" * 4 +
               "mov r9, [rbp+8]\n.endloop\n")
        program = athlon_machine.compile(src)
        nominal = athlon_machine.run(program, cores=4)
        starved = athlon_machine.run(
            program, cores=4,
            supply_v=athlon_machine.critical_voltage_v() + 0.01)
        assert not nominal.crashed
        assert starved.crashed

    def test_environment_noise_levels(self):
        bare = SimulatedMachine("xgene2", environment="bare_metal",
                                seed=1, sim_cycles=600)
        osy = SimulatedMachine("xgene2", environment="os",
                               seed=1, sim_cycles=600)
        def spread(machine):
            result = machine.run_source(SRC, power_sample_count=30)
            samples = result.power_samples_w
            mean = sum(samples) / len(samples)
            return max(samples) - min(samples), mean
        bare_spread, bare_mean = spread(bare)
        os_spread, os_mean = spread(osy)
        assert os_spread / os_mean > bare_spread / bare_mean * 2

    def test_deterministic_given_seed(self):
        a = SimulatedMachine("cortex_a15", seed=42, sim_cycles=600)
        b = SimulatedMachine("cortex_a15", seed=42, sim_cycles=600)
        ra, rb = a.run_source(SRC), b.run_source(SRC)
        assert ra.power_samples_w == rb.power_samples_w
        assert ra.ipc == rb.ipc

    def test_avg_peak_power_properties(self, a15_machine):
        result = a15_machine.run_source(SRC)
        assert result.peak_power_w >= result.avg_power_w

    def test_run_computes_energy_trace_once(self, monkeypatch):
        """Power and current both derive from one energy trace."""
        machine = SimulatedMachine("cortex_a15", sim_cycles=600)
        program = machine.compile(SRC)
        calls = []
        energy_trace_pj = PowerModel.energy_trace_pj

        def counting(model, *args, **kwargs):
            calls.append(args)
            return energy_trace_pj(model, *args, **kwargs)

        monkeypatch.setattr(PowerModel, "energy_trace_pj", counting)
        machine.run(program)
        assert len(calls) == 1


class TestSimulatedTarget:
    def test_requires_connection(self, a15_machine):
        target = SimulatedTarget(a15_machine)
        with pytest.raises(TargetError, match="not connected"):
            target.copy_file("x.s", "nop")

    def test_scp_compile_run_cycle(self, target):
        target.copy_file("stress.s", SRC)
        binary = target.compile_file("stress.s")
        assert binary == "stress.bin"
        result = target.run_binary(binary, duration_s=2.0)
        assert result.ipc > 0

    def test_compile_failure_surfaces(self, target):
        target.copy_file("bad.s", "zap x1\n")
        with pytest.raises(AssemblyError):
            target.compile_file("bad.s")

    def test_read_and_list_files(self, target):
        target.copy_file("a.s", "nop")
        target.copy_file("b.s", "nop")
        assert target.read_file("a.s") == "nop"
        assert target.list_files() == ("a.s", "b.s")

    def test_missing_file(self, target):
        with pytest.raises(TargetError):
            target.read_file("ghost.s")

    def test_missing_binary(self, target):
        with pytest.raises(TargetError, match="binary"):
            target.run_binary("ghost.bin")

    def test_remove_file_removes_binary(self, target):
        target.copy_file("x.s", SRC)
        target.compile_file("x.s")
        target.remove_file("x.s")
        with pytest.raises(TargetError):
            target.run_binary("x.bin")

    def test_cleanup(self, target):
        target.copy_file("x.s", SRC)
        target.cleanup()
        assert target.list_files() == ()

    def test_empty_name_rejected(self, target):
        with pytest.raises(TargetError):
            target.copy_file("", "nop")

    def test_disconnect(self, target):
        target.disconnect()
        with pytest.raises(TargetError):
            target.list_files()


class TestCortexA57Preset:
    """The fifth preset: the authors' industrial dual-core A57 cluster
    (paper references [11][12][22]); usable with every metric."""

    def test_listed_and_valid(self):
        assert "cortex_a57" in preset_names()
        PRESETS["cortex_a57"].validate()

    def test_cluster_facts(self):
        arch = PRESETS["cortex_a57"]
        assert arch.core_count == 2          # dual-core cluster
        assert arch.isa == "arm"
        assert not arch.in_order

    def test_pdn_resonance_near_100mhz(self):
        pdn = PRESETS["cortex_a57"].pdn
        assert 80e6 < pdn.resonance_hz < 120e6

    def test_runs_all_sensor_paths(self):
        machine = SimulatedMachine("cortex_a57", seed=1, sim_cycles=600)
        result = machine.run_source(SRC, cores=2)
        assert result.ipc > 0
        assert result.core_power_w > 0
        assert result.temperature_c > 28.0
        assert result.peak_to_peak_v >= 0
        assert not result.crashed

    def test_ga_search_works(self):
        from repro.experiments import GAScale, evolve_virus
        virus = evolve_virus(
            "cortex_a57", "power", seed=3,
            scale=GAScale(population_size=6, generations=2,
                          individual_size=10, samples=2),
            use_cache=False)
        assert virus.fitness > 0
