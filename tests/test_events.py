"""Tests for the typed event stream (repro.core.events).

The engine emits run_started / individual_evaluated /
generation_completed / checkpoint_written / run_finished to any number
of RunRecorder subscribers; FileRecorder is the paper's directory
layout expressed as one such subscriber.  These tests pin the event
protocol (ordering, payloads, run-id stamping), the atomic stats
append, and the bit-identical golden contract against the shipped
configuration bundles.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import GeneticEngine, derive_run_id
from repro.core.events import (CheckpointWritten, GenerationCompleted,
                               IndividualEvaluated, RunFinished, RunRecorder,
                               RunStarted, STATS_SCHEMA_VERSION, as_recorders)
from repro.core.output import FileRecorder, read_stats
from repro.fitness.default_fitness import DefaultFitness

from .scripted import ScriptedMeasurement, ldr_pair

REPO_ROOT = Path(__file__).resolve().parent.parent


class EventLog(RunRecorder):
    """Collects every event in emission order."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)
        super().handle(event)

    def of_type(self, cls):
        return [e for e in self.events if isinstance(e, cls)]


def _engine(config, recorder=None, **kwargs):
    return GeneticEngine(config, ScriptedMeasurement(ldr_pair),
                         DefaultFitness(), recorder=recorder, **kwargs)


class TestEventStream:
    def test_event_sequence(self, tiny_config, tmp_path):
        log = EventLog()
        engine = _engine(tiny_config, recorder=log,
                         checkpoint_path=tmp_path / "cp.bin")
        engine.run()
        gens = tiny_config.ga.generations
        pop = tiny_config.ga.population_size

        assert isinstance(log.events[0], RunStarted)
        assert isinstance(log.events[-1], RunFinished)
        assert len(log.of_type(IndividualEvaluated)) == gens * pop
        assert len(log.of_type(GenerationCompleted)) == gens
        assert len(log.of_type(CheckpointWritten)) == gens

        # Within each generation: evaluations strictly precede the
        # generation summary, which precedes its checkpoint.
        kinds = [type(e).__name__ for e in log.events]
        per_gen = (["IndividualEvaluated"] * pop +
                   ["GenerationCompleted", "CheckpointWritten"])
        assert kinds == ["RunStarted"] + per_gen * gens + ["RunFinished"]

    def test_events_carry_run_id(self, tiny_config):
        log = EventLog()
        engine = _engine(tiny_config, recorder=log)
        engine.run()
        assert all(e.run_id == engine.run_id for e in log.events)
        assert engine.run_id.startswith("run-")

    def test_run_started_payload(self, tiny_config):
        log = EventLog()
        _engine(tiny_config, recorder=log).run()
        started = log.of_type(RunStarted)[0]
        assert started.config is tiny_config
        assert started.strategy == "genetic"
        assert started.seed == tiny_config.ga.seed
        assert started.resumed is False

    def test_run_finished_payload(self, tiny_config):
        log = EventLog()
        history = _engine(tiny_config, recorder=log).run()
        finished = log.of_type(RunFinished)[0]
        assert finished.generations == tiny_config.ga.generations
        assert finished.cancelled is False
        assert finished.best is history.best_individual

    def test_generation_stats_stamped(self, tiny_config):
        log = EventLog()
        engine = _engine(tiny_config, recorder=log)
        engine.run()
        for event in log.of_type(GenerationCompleted):
            assert event.stats["schema"] == STATS_SCHEMA_VERSION
            assert event.stats["run_id"] == engine.run_id
            assert event.stats["number"] == event.population.number

    def test_stop_check_cancels_between_generations(self, tiny_config):
        log = EventLog()
        seen = []

        def stop():
            seen.append(True)
            return len(seen) >= 2

        history = _engine(tiny_config, recorder=log).run(stop_check=stop)
        assert history.cancelled is True
        assert len(history.generations) < tiny_config.ga.generations
        assert log.of_type(RunFinished)[0].cancelled is True

    def test_multiple_recorders_all_receive_events(self, tiny_config):
        a, b = EventLog(), EventLog()
        _engine(tiny_config, recorder=[a, b]).run()
        assert [type(e) for e in a.events] == [type(e) for e in b.events]

    def test_as_recorders_normalization(self):
        single = RunRecorder()
        assert as_recorders(None) == []
        assert as_recorders(single) == [single]
        assert as_recorders([single, single]) == [single, single]


class TestRunIdentity:
    def test_derive_run_id_deterministic(self, tiny_config):
        assert derive_run_id(tiny_config, "classic") == \
            derive_run_id(tiny_config, "classic")

    def test_derive_run_id_varies_with_strategy(self, tiny_config):
        assert derive_run_id(tiny_config, "classic") != \
            derive_run_id(tiny_config, "random")

    def test_derive_run_id_varies_with_measurement_params(self,
                                                          tiny_config):
        shipped = replace(tiny_config, measurement_params={
            "duration": "5", "samples": "5", "cores": "1"})
        heavier = replace(tiny_config, measurement_params={
            "duration": "5", "samples": "10", "cores": "1",
            "repeats": "3"})
        assert derive_run_id(shipped, "genetic") != \
            derive_run_id(heavier, "genetic")

    def test_explicit_run_id_wins(self, tiny_config):
        engine = _engine(tiny_config, run_id="run-000042")
        assert engine.run_id == "run-000042"


class TestAtomicStatsAppend:
    def test_single_line_per_record(self, tmp_path):
        recorder = FileRecorder(tmp_path / "run")
        recorder.record_stats({"number": 0, "best_fitness": 1.0})
        recorder.record_stats({"number": 1, "best_fitness": 2.0})
        lines = (tmp_path / "run" / "stats.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["number"] == i
                   for i, line in enumerate(lines))

    def test_truncated_trailing_record_skipped_with_warning(self, tmp_path):
        recorder = FileRecorder(tmp_path / "run")
        recorder.record_stats({"number": 0})
        recorder.record_stats({"number": 1})
        path = tmp_path / "run" / "stats.jsonl"
        # Simulate a torn write from a pre-atomic-append build: chop
        # the last record in half, no trailing newline.
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.warns(RuntimeWarning, match="unparseable"):
            records = list(read_stats(path))
        assert [r["number"] for r in records] == [0]

    def test_reader_tolerates_unknown_keys_and_blank_lines(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        path.write_text('{"number": 0, "schema": 99, "novel_key": [1]}\n'
                        '\n'
                        '{"number": 1}\n')
        records = list(read_stats(path))
        assert len(records) == 2
        assert records[0]["novel_key"] == [1]

    def test_append_preserves_existing_records(self, tmp_path):
        recorder = FileRecorder(tmp_path / "run")
        recorder.record_stats({"number": 0})
        again = FileRecorder(tmp_path / "run")
        again.record_stats({"number": 1})
        assert [r["number"] for r in again.read_stats()] == [0, 1]


SHIPPED_CONFIGS = [
    ("arm_power", "cortex_a15"),
    ("arm_ipc", "xgene2"),
    ("arm_temperature", "xgene2"),
    ("x86_didt", "athlon_x4"),
]


class TestFileRecorderGolden:
    """The refactor's core contract: FileRecorder driven by the event
    stream produces byte-for-byte the tree the pre-event engine wrote.

    The shipped ``configs/*/results`` bundles were recorded before the
    refactor; generation 0 of a fresh run must reproduce every
    individual source file and the template copy exactly.  (Population
    binaries are covered by the long-standing golden test in
    test_search.py; stats.jsonl intentionally gained ``schema`` and
    ``run_id`` fields, so it is compared on content, not bytes.)
    """

    @pytest.mark.parametrize("name,platform", SHIPPED_CONFIGS)
    def test_generation0_files_bit_identical(self, name, platform,
                                             tmp_path):
        shipped = REPO_ROOT / "configs" / name
        rc = main(["run", str(shipped / "config.xml"),
                   "--platform", platform, "--generations", "1",
                   "--results", str(tmp_path / "results"), "--quiet"])
        assert rc == 0
        produced = tmp_path / "results"

        assert (produced / "template.s").read_bytes() == \
            (shipped / "results" / "template.s").read_bytes()

        golden_dir = shipped / "results" / "individuals"
        golden = {p.name: p for p in golden_dir.glob("0_*.txt")}
        mine = {p.name: p for p in
                (produced / "individuals").glob("0_*.txt")}
        assert set(mine) == set(golden)
        for fname, path in mine.items():
            assert path.read_bytes() == golden[fname].read_bytes(), fname

    def test_stats_record_content_matches_shipped(self, tmp_path):
        name, platform = "arm_ipc", "xgene2"
        shipped = REPO_ROOT / "configs" / name
        rc = main(["run", str(shipped / "config.xml"),
                   "--platform", platform, "--generations", "1",
                   "--results", str(tmp_path / "results"), "--quiet"])
        assert rc == 0
        [mine] = [r for r in
                  read_stats(tmp_path / "results" / "stats.jsonl")]
        # The shipped file holds repeated appends of the same
        # deterministic generation-0 record; any copy serves as golden.
        golden = next(r for r in
                      read_stats(shipped / "results" / "stats.jsonl")
                      if r["number"] == 0)
        assert mine["schema"] == STATS_SCHEMA_VERSION
        assert mine["run_id"].startswith("run-")
        for key in ("best_fitness", "best_uid", "best_measurements",
                    "mean_fitness", "measured", "number"):
            assert mine[key] == golden[key], key
