"""Unit tests for the thermal and PDN models
(repro.cpu.thermal, repro.cpu.pdn)."""

import math

import numpy as np
import pytest

from repro.cpu.microarch import PDNParams, ThermalParams, microarch_for
from repro.cpu.pdn import PDNModel
from repro.cpu.thermal import ThermalModel


@pytest.fixture
def thermal():
    return ThermalModel(ThermalParams(t_ambient_c=25.0, r_th_c_per_w=2.0,
                                      tau_s=2.0))


class TestThermalModel:
    def test_steady_state_linear_in_power(self, thermal):
        assert thermal.steady_state_c(10.0) == pytest.approx(45.0)
        assert thermal.steady_state_c(0.0) == pytest.approx(25.0)

    def test_transient_approaches_steady_state(self, thermal):
        t_short = thermal.temperature_c(10.0, 0.5)
        t_long = thermal.temperature_c(10.0, 20.0)
        assert t_short < t_long
        assert t_long == pytest.approx(45.0, abs=0.1)

    def test_transient_time_constant(self, thermal):
        # After one tau: 63.2% of the rise.
        t = thermal.temperature_c(10.0, 2.0)
        assert t == pytest.approx(25.0 + 20.0 * (1 - math.exp(-1)),
                                  abs=1e-6)

    def test_zero_time_is_ambient(self, thermal):
        assert thermal.temperature_c(50.0, 0.0) == pytest.approx(25.0)

    def test_negative_time_rejected(self, thermal):
        with pytest.raises(ValueError):
            thermal.temperature_c(10.0, -1.0)

    def test_sensor_quantisation(self, thermal):
        reading = thermal.sensor_reading_c(10.0, 100.0)
        step = ThermalModel.SENSOR_STEP_C
        assert reading == pytest.approx(round(45.0 / step) * step)

    def test_idle_temperature(self, thermal):
        assert thermal.idle_temperature_c(1.0) == pytest.approx(27.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel(ThermalParams(25.0, -1.0, 2.0))
        with pytest.raises(ValueError):
            ThermalModel(ThermalParams(25.0, 1.0, 0.0))


class TestPDNParams:
    def test_resonance_formula(self):
        params = PDNParams(r_ohm=1e-3, l_h=10e-12, c_f=2.53e-7)
        expected = 1.0 / (2 * math.pi * math.sqrt(10e-12 * 2.53e-7))
        assert params.resonance_hz == pytest.approx(expected)

    def test_q_factor_formula(self):
        params = PDNParams(r_ohm=2e-3, l_h=8e-12, c_f=2e-7)
        assert params.q_factor == pytest.approx(
            math.sqrt(8e-12 / 2e-7) / 2e-3)

    def test_athlon_preset_resonance_near_100mhz(self):
        pdn = microarch_for("athlon_x4").pdn
        assert 80e6 < pdn.resonance_hz < 120e6
        assert pdn.q_factor > 1.5


class TestPDNModel:
    @pytest.fixture
    def model(self):
        return PDNModel(microarch_for("athlon_x4").pdn, 3.1e9)

    def test_constant_current_gives_ir_drop_only(self, model):
        current = np.full(4000, 10.0)
        trace = model.simulate(current, supply_v=1.35)
        expected = 1.35 - model.params.r_ohm * 10.0
        assert trace.mean == pytest.approx(expected, rel=1e-3)
        assert trace.peak_to_peak < 1e-6

    def test_bigger_current_bigger_ir_drop(self, model):
        low = model.simulate(np.full(3000, 5.0), 1.35)
        high = model.simulate(np.full(3000, 50.0), 1.35)
        assert high.mean < low.mean

    def test_resonant_excitation_beats_offresonance(self, model):
        """A square wave at f_res produces much larger swings than the
        same amplitude far from resonance — the physics dI/dt viruses
        exploit."""
        n = 8000
        period_res = round(model.resonance_period_cycles)
        cycles = np.arange(n)
        square_res = 10.0 + 8.0 * ((cycles // (period_res // 2)) % 2)
        square_off = 10.0 + 8.0 * ((cycles // 2) % 2)   # ~8x f_res
        pkpk_res = model.simulate(square_res, 1.35).peak_to_peak
        pkpk_off = model.simulate(square_off, 1.35).peak_to_peak
        assert pkpk_res > pkpk_off * 3

    def test_impedance_peaks_near_resonance(self, model):
        f_res = model.resonance_hz
        z_res = model.impedance_magnitude(f_res)
        assert z_res > model.impedance_magnitude(f_res / 8)
        assert z_res > model.impedance_magnitude(f_res * 8)

    def test_impedance_dc_equals_zero_hz_series_resistance(self, model):
        assert model.impedance_magnitude(0.0) == pytest.approx(
            model.params.r_ohm)

    def test_voltage_trace_statistics_consistent(self, model):
        current = 10.0 + 2.0 * np.sin(
            2 * np.pi * np.arange(5000) / 31.0)
        trace = model.simulate(current, 1.35)
        assert trace.v_min <= trace.mean <= trace.v_max
        assert trace.peak_to_peak == pytest.approx(
            trace.v_max - trace.v_min)
        assert trace.max_droop == pytest.approx(1.35 - trace.v_min)

    def test_resonant_loop_length_rule(self, model):
        """loop length = IPC x f_clk / f_res (paper Section III.A)."""
        period = model.resonance_period_cycles
        assert model.resonant_loop_length(1.5) == round(1.5 * period)

    def test_resonant_loop_length_bad_ipc(self, model):
        with pytest.raises(ValueError):
            model.resonant_loop_length(0.0)

    def test_empty_current_rejected(self, model):
        with pytest.raises(ValueError):
            model.simulate(np.array([]), 1.35)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            PDNModel(PDNParams(0.0, 1e-12, 1e-7), 1e9)
        with pytest.raises(ValueError):
            PDNModel(PDNParams(1e-3, 1e-12, 1e-7), 0.0)

    def test_integration_is_stable(self, model):
        """Semi-implicit Euler must not blow up over long traces."""
        rng = np.random.default_rng(0)
        current = 10.0 + 5.0 * rng.random(60_000)
        trace = model.simulate(current, 1.35)
        assert np.all(np.isfinite(trace.voltage))
        assert 0.5 < trace.mean < 1.4
