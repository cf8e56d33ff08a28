"""Unit tests for the power model (repro.cpu.power)."""

import numpy as np
import pytest

from repro.cpu.microarch import microarch_for
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.power import (LOADED_VALUE_ACTIVITY, UNKNOWN_VALUE_ACTIVITY,
                             PowerModel, value_toggle_activity)
from repro.isa import ArmAssembler


@pytest.fixture(scope="module")
def a15():
    return microarch_for("cortex_a15")


@pytest.fixture(scope="module")
def model(a15):
    return PowerModel(a15)


def _program(source):
    return ArmAssembler().assemble(source)


def _trace(program, a15, cycles=300):
    return PipelineSimulator(a15).execute(program, max_cycles=cycles)


class TestToggleActivity:
    def test_checkerboard_is_maximal(self):
        assert value_toggle_activity(0xAAAAAAAAAAAAAAAA) == 1.0
        assert value_toggle_activity(0x5555555555555555) == 1.0

    def test_constant_words_are_zero(self):
        assert value_toggle_activity(0) == 0.0
        assert value_toggle_activity(2**64 - 1) == 0.0

    def test_single_bit_is_small(self):
        assert value_toggle_activity(1) == pytest.approx(1 / 63)

    def test_random_word_is_middling(self):
        import random
        rng = random.Random(5)
        values = [value_toggle_activity(rng.getrandbits(64))
                  for _ in range(100)]
        assert 0.35 < sum(values) / len(values) < 0.65

    def test_truncates_to_64_bits(self):
        assert value_toggle_activity(2**70) == value_toggle_activity(0)

    def test_bounded(self):
        for v in (0, 1, 0xAAAA, 2**63, 2**64 - 1):
            assert 0.0 <= value_toggle_activity(v) <= 1.0


class TestSlotActivities:
    def test_checkerboard_init_propagates(self, a15, model):
        program = _program(
            "mov x1, #0xAAAAAAAAAAAAAAAA\nmov x2, #0x5555555555555555\n"
            ".loop\nadd x3, x1, x2\n.endloop\n")
        activities = model.slot_activities(program)
        assert activities[0] == pytest.approx(1.0)

    def test_zero_init_propagates(self, a15, model):
        program = _program(
            "mov x1, #0\nmov x2, #0\n.loop\nadd x3, x1, x2\n.endloop\n")
        assert model.slot_activities(program)[0] == pytest.approx(0.0)

    def test_loads_import_memory_activity(self, a15, model):
        program = _program(".loop\nldr x7, [x10, #8]\n.endloop\n")
        assert model.slot_activities(program)[0] == \
            pytest.approx(LOADED_VALUE_ACTIVITY)

    def test_uninitialised_registers_use_default(self, a15, model):
        program = _program(".loop\nadd x3, x4, x5\n.endloop\n")
        assert model.slot_activities(program)[0] == \
            pytest.approx(UNKNOWN_VALUE_ACTIVITY)

    def test_mixed_sources_average(self, a15, model):
        program = _program(
            "mov x1, #0xAAAAAAAAAAAAAAAA\nmov x2, #0\n"
            ".loop\nadd x3, x1, x2\n.endloop\n")
        assert model.slot_activities(program)[0] == pytest.approx(0.5)


class TestSlotEnergies:
    def test_checkerboard_beats_zeros(self, a15, model):
        """The paper's register-init observation: checkerboard patterns
        raise power."""
        hot = _program("mov x1, #0xAAAAAAAAAAAAAAAA\n"
                       "mov x2, #0x5555555555555555\n"
                       ".loop\nadd x3, x1, x2\n.endloop\n")
        cold = _program("mov x1, #0\nmov x2, #0\n"
                        ".loop\nadd x3, x1, x2\n.endloop\n")
        assert model.slot_energies_pj(hot)[0] > \
            model.slot_energies_pj(cold)[0] * 1.5

    def test_simd_more_energetic_than_alu(self, a15, model):
        program = _program(".loop\nadd x1, x2, x3\nvmul v0, v1, v2\n"
                           ".endloop\n")
        energies = model.slot_energies_pj(program)
        assert energies[1] > energies[0] * 2

    def test_one_energy_per_slot(self, a15, model):
        program = _program(".loop\nnop\nnop\nnop\n.endloop\n")
        assert len(model.slot_energies_pj(program)) == 3


class TestTracesAndPower:
    def test_energy_trace_length_matches_cycles(self, a15, model):
        program = _program(".loop\nadd x1, x2, x3\n.endloop\n")
        trace = _trace(program, a15, cycles=120)
        energy = model.energy_trace_pj(program, trace)
        assert len(energy) == 120

    def test_energy_includes_base_every_cycle(self, a15, model):
        program = _program(".loop\nsdiv x1, x1, x2\n.endloop\n")
        trace = _trace(program, a15)
        energy = model.energy_trace_pj(program, trace)
        assert np.all(energy >= a15.base_cycle_pj)

    def test_busy_loop_burns_more_than_nops(self, a15, model):
        busy = _program(".loop\nvmul v0, v8, v9\nvmul v1, v10, v11\n"
                        "ldr x7, [x10, #8]\n.endloop\n")
        idle = _program(".loop\nnop\nnop\nnop\n.endloop\n")
        p_busy = model.core_power_w(busy, _trace(busy, a15))
        p_idle = model.core_power_w(idle, _trace(idle, a15))
        assert p_busy > p_idle * 1.5

    def test_core_power_includes_static(self, a15, model):
        program = _program(".loop\nnop\n.endloop\n")
        power = model.core_power_w(program, _trace(program, a15))
        assert power > model.static_power_w()

    def test_power_scales_with_voltage_squared(self, a15, model):
        program = _program(".loop\nadd x1, x2, x3\n.endloop\n")
        trace = _trace(program, a15)
        nominal = model.core_power_w(program, trace)
        reduced = model.core_power_w(program, trace,
                                     vdd=a15.vdd_nominal * 0.9)
        assert reduced == pytest.approx(nominal * 0.81, rel=0.01)

    def test_current_trace_is_power_over_voltage(self, a15, model):
        program = _program(".loop\nadd x1, x2, x3\n.endloop\n")
        trace = _trace(program, a15)
        current = model.current_trace_a(program, trace)
        assert len(current) == trace.cycles
        assert np.all(current > 0)

    def test_chip_power_scales_with_cores(self, a15, model):
        assert model.chip_power_w(1.0, 2) == pytest.approx(
            2.0 + a15.uncore_power_w)
        assert model.chip_power_w(1.0, 1) == pytest.approx(
            1.0 + a15.uncore_power_w)

    def test_chip_power_clamps_core_count(self, a15, model):
        assert model.chip_power_w(1.0, 99) == \
            model.chip_power_w(1.0, a15.core_count)
