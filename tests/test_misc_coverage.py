"""Final coverage batch: small distinct behaviours not exercised by the
focused unit files."""

import numpy as np

from repro.analysis import current_spectrum
from repro.cli import build_parser
from repro.core.config import GAParameters, RunConfig, config_to_xml, \
    parse_config_text
from repro.core.individual import random_individual
from repro.core.output import OutputRecorder, individual_filename
from repro.core.rng import make_rng
from repro.cpu import PDNModel
from repro.cpu.microarch import microarch_for
from repro.isa import arm_library, arm_template
from repro.workloads import workload, workload_names


class TestConfigRoundTripDetails:
    def test_seed_round_trips(self, tmp_path):
        (tmp_path / "t.s").write_text("#loop_code\n")
        ga = GAParameters(seed=777)
        config = RunConfig(ga=ga, library=arm_library(),
                           template_text="#loop_code\n")
        xml = config_to_xml(config)
        (tmp_path / "template.s").write_text("#loop_code\n")
        reparsed = parse_config_text(xml, base_dir=tmp_path)
        assert reparsed.ga.seed == 777

    def test_mutation_rate_precision_preserved(self, tmp_path):
        (tmp_path / "template.s").write_text("#loop_code\n")
        ga = GAParameters(mutation_rate=0.0333)
        config = RunConfig(ga=ga, library=arm_library(),
                           template_text="#loop_code\n")
        reparsed = parse_config_text(config_to_xml(config),
                                     base_dir=tmp_path)
        assert reparsed.ga.mutation_rate == 0.0333


class TestOutputNaming:
    def test_filename_includes_every_measurement(self, tiny_library):
        ind = random_individual(tiny_library, 4, make_rng(0), uid=2)
        ind.generation = 3
        ind.record_evaluation([1.0, 2.0, 3.0, 4.0], 1.0)
        assert individual_filename(ind) == "3_2_1.00_2.00_3.00_4.00.txt"

    def test_fittest_file_ignores_malformed_names(self, tmp_path):
        recorder = OutputRecorder(tmp_path)
        (recorder.individuals_dir / "notes.txt").write_text("x")
        (recorder.individuals_dir / "0_1_9.00.txt").write_text("best")
        best = recorder.fittest_individual_file()
        assert best is not None and best.read_text() == "best"


class TestModelEdges:
    def test_voltage_trace_steady_excludes_warmup(self):
        model = PDNModel(microarch_for("athlon_x4").pdn, 3.1e9)
        trace = model.simulate(np.full(1000, 5.0), 1.35)
        assert len(trace.steady) == len(trace.voltage) - \
            trace.warmup_samples
        assert trace.warmup_samples == 250

    def test_spectrum_empty_band_is_zero(self):
        spectrum = current_spectrum(10.0 + np.sin(np.arange(512)), 1e9)
        assert spectrum.amplitude_near(1e18, 1.0) == 0.0


class TestCliParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        sub = actions["command"]
        assert set(sub.choices) == {"run", "measure", "lint", "check",
                                    "analyze", "selfcheck", "stats",
                                    "presets", "serve", "submit",
                                    "runs", "tail"}

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "c.xml"])
        assert args.platform == "cortex_a15"
        assert args.generations is None
        assert args.quiet is False

    def test_measure_defaults(self):
        args = build_parser().parse_args(["measure", "x.s"])
        assert args.cores is None
        assert args.duration == 5.0


class TestWorkloadMetadata:
    def test_every_workload_has_a_description(self):
        for name in workload_names():
            w = workload(name, "arm")
            assert len(w.description) > 10
            assert w.name == name
            assert w.isa == "arm"

    def test_workload_sources_use_stock_template(self):
        w = workload("coremark", "arm")
        # The stock template's loop-edge and base-register init.
        assert "subs x0, x0, #1" in w.source
        assert "mov x10, #4096" in w.source

    def test_stock_template_iterations_parameter(self):
        text = arm_template(iterations=123)
        assert "mov x0, #123" in text
