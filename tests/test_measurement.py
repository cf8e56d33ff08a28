"""Unit tests for measurement procedures (repro.measurement)."""

import pytest

from repro.core.errors import AssemblyError, MeasurementError
from repro.core.individual import random_individual
from repro.core.rng import make_rng
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.measurement import (MEASUREMENTS, CacheMissMeasurement,
                               IPCMeasurement, Measurement,
                               OscilloscopeMeasurement, PowerMeasurement,
                               TemperatureMeasurement)

ARM_SRC = (".loop\nadd x1, x2, x3\nvmul v0, v8, v9\n"
           "ldr x7, [x10, #8]\n.endloop\n")
X86_SRC = (".loop\naddps xmm0, xmm1\nmov r9, [rbp+8]\n.endloop\n")


def _target(arch="cortex_a15", **kwargs):
    machine = SimulatedMachine(arch, seed=3, sim_cycles=600, **kwargs)
    t = SimulatedTarget(machine)
    t.connect()
    return t


class TestBaseMeasurement:
    def test_default_parameters(self, target):
        meas = PowerMeasurement(target)
        assert meas.duration_s == 5.0
        assert meas.sample_count == 10
        assert meas.cores == 1

    def test_parameters_parsed_from_strings(self, target):
        meas = PowerMeasurement(target, {"duration": "2.5",
                                         "samples": "4", "cores": "2",
                                         "source_name": "virus.s"})
        assert meas.duration_s == 2.5
        assert meas.sample_count == 4
        assert meas.cores == 2
        assert meas.source_name == "virus.s"

    def test_bad_parameter_value(self, target):
        with pytest.raises(MeasurementError):
            PowerMeasurement(target, {"duration": "soon"})

    def test_nonpositive_duration(self, target):
        with pytest.raises(MeasurementError):
            PowerMeasurement(target, {"duration": "0"})

    def test_connects_disconnected_target(self, a15_machine):
        t = SimulatedTarget(a15_machine)
        assert not t.connected
        PowerMeasurement(t)
        assert t.connected

    def test_cleanup_after_measure(self, target):
        meas = PowerMeasurement(target, {"samples": "2"})
        meas.measure(ARM_SRC, None)
        assert target.list_files() == ()

    def test_cleanup_after_compile_failure(self, target):
        meas = PowerMeasurement(target, {"samples": "2"})
        with pytest.raises(AssemblyError):
            meas.measure("bogus instruction\n", None)
        assert target.list_files() == ()

    def test_is_abstract(self, target):
        with pytest.raises(TypeError):
            Measurement(target)


class TestMetric:
    def test_each_procedure_declares_its_first_value(self):
        assert Measurement.metric == "ipc"
        assert {cls: cls.metric for cls in (
            IPCMeasurement, PowerMeasurement, TemperatureMeasurement,
            OscilloscopeMeasurement, CacheMissMeasurement)} == {
            IPCMeasurement: "ipc", PowerMeasurement: "power",
            TemperatureMeasurement: "temperature",
            OscilloscopeMeasurement: "didt",
            CacheMissMeasurement: "llc_mpki"}

    def test_registry_is_keyed_by_each_class_metric(self):
        from repro.experiments import common
        assert list(MEASUREMENTS) == ["power", "temperature", "ipc",
                                      "didt"]
        assert all(cls.metric == key for key, cls in MEASUREMENTS.items())
        assert common.MEASUREMENTS is MEASUREMENTS


class TestPowerMeasurement:
    def test_returns_avg_then_peak(self, target):
        values = PowerMeasurement(target, {"samples": "6"}).measure(
            ARM_SRC, None)
        assert len(values) == 2
        assert values[1] >= values[0] > 0

    def test_sample_count_respected(self, target):
        meas = PowerMeasurement(target, {"samples": "3"})
        assert meas.sample_count == 3
        assert meas.measure(ARM_SRC, None)[0] > 0

    def test_hotter_code_measures_higher(self, target):
        meas = PowerMeasurement(target, {"samples": "5"})
        hot = meas.measure(ARM_SRC, None)[0]
        cold = meas.measure(".loop\nnop\nnop\nnop\n.endloop\n", None)[0]
        assert hot > cold


class TestTemperatureMeasurement:
    def test_returns_temp_power_ipc(self):
        target = _target("xgene2", environment="os")
        values = TemperatureMeasurement(target, {"samples": "4"}).measure(
            ARM_SRC, None)
        assert len(values) == 3
        temperature, power, ipc = values
        assert temperature > 30.0
        assert power > 0
        assert ipc > 0


class TestIPCMeasurement:
    def test_returns_ipc_first(self):
        target = _target("xgene2", environment="os")
        values = IPCMeasurement(target, {"samples": "4"}).measure(
            ARM_SRC, None)
        assert 0 < values[0] <= 4.2

    def test_ilp_rich_code_scores_higher(self):
        target = _target("cortex_a15")
        meas = IPCMeasurement(target, {"samples": "2"})
        wide = meas.measure(
            ".loop\nadd x1, x7, x8\nadd x2, x7, x8\n"
            "ldr x9, [x10, #8]\n.endloop\n", None)[0]
        serial = meas.measure(
            ".loop\nsdiv x1, x1, x2\n.endloop\n", None)[0]
        assert wide > serial * 3


class TestOscilloscopeMeasurement:
    def test_returns_five_scope_statistics(self):
        target = _target("athlon_x4")
        values = OscilloscopeMeasurement(target, {"samples": "2"}).measure(
            X86_SRC, None)
        pkpk, droop, v_min, v_max, power = values
        assert pkpk == pytest.approx(v_max - v_min, rel=1e-6)
        assert droop > 0
        assert power > 0

    def test_oscillating_code_noisier_than_flat(self):
        target = _target("athlon_x4")
        meas = OscilloscopeMeasurement(target, {"samples": "2"})
        # Alternating heavy FMA bursts and a serialising divide swing
        # the current; pure NOPs keep it flat.
        burst = (".loop\n" + "vfmadd231ps xmm0, xmm1, xmm2\n" * 8
                 + "idiv2 rsi, rdi\n" * 2 + ".endloop\n")
        flat = ".loop\n" + "nop\n" * 10 + ".endloop\n"
        assert meas.measure(burst, None)[0] > \
            meas.measure(flat, None)[0] * 2


class TestGaIndividualFlow:
    def test_measure_accepts_rendered_individual(self, arm_lib,
                                                 arm_tmpl_text):
        from repro.core import Template
        target = _target()
        meas = PowerMeasurement(target, {"samples": "2"})
        individual = random_individual(arm_lib, 20, make_rng(0))
        source = Template(arm_tmpl_text).instantiate(
            individual.render_body())
        values = meas.measure(source, individual)
        assert values[0] > 0
