"""Tests for the asyncio run orchestrator (repro.service).

The service contract: runs submitted to the store and executed by
orchestrator worker slots — concurrently, sharing one sqlite
evaluation cache — finish with exactly the best fitness a direct
``gest run`` of the same configuration produces; cancellation stops a
run at a generation boundary; a run interrupted mid-flight resumes
from the store checkpoint and still matches the uninterrupted result.
"""

import json
import sqlite3

import pytest

from repro.analysis.postprocess import run_statistics
from repro.cli import main
from repro.core.config import parse_config_file
from repro.core.engine import GeneticEngine
from repro.core.loader import instantiate
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.fitness.default_fitness import DefaultFitness
from repro.isa.catalogs import write_stock_config
from repro.measurement.base import Measurement
from repro.service import Orchestrator, execute_run
from repro.store import RunStore

PLATFORM = "xgene2"


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A tiny ready-to-run stock config bundle (arm/ipc)."""
    directory = tmp_path_factory.mktemp("bundle")
    return write_stock_config(directory, isa="arm", metric="ipc",
                              population_size=6, individual_size=10,
                              generations=3, seed=11)


@pytest.fixture(scope="module")
def direct_best(bundle, tmp_path_factory):
    """Best overall fitness of a plain `gest run` on the bundle."""
    results = tmp_path_factory.mktemp("direct") / "results"
    rc = main(["run", str(bundle), "--platform", PLATFORM,
               "--results", str(results), "--quiet"])
    assert rc == 0
    return run_statistics(results).overall_best_fitness


def _submit(store_path, bundle, **kwargs):
    with RunStore(store_path) as store:
        return store.submit_run(parse_config_file(bundle),
                                platform=PLATFORM, **kwargs)


class TestOrchestrator:
    def test_concurrent_runs_match_direct_run(self, bundle, direct_best,
                                              tmp_path):
        """Two runs share one store + sqlite cache and both land on the
        direct-run fitness — the headline service acceptance check."""
        store_path = tmp_path / "gest.sqlite"
        first = _submit(store_path, bundle)
        second = _submit(store_path, bundle)

        orchestrator = Orchestrator(store_path, workers=2,
                                    workdir=tmp_path / "work")
        completed = orchestrator.serve_until_idle()
        assert sorted(completed) == [first, second]

        with RunStore(store_path) as store:
            for run_id in (first, second):
                row = store.get_run(run_id)
                assert row.status == "finished"
                assert row.best_fitness == pytest.approx(direct_best)
                winner = store.winner(run_id)
                assert winner["fitness"] == pytest.approx(direct_best)
                assert [g["number"] for g in store.generations(run_id)] \
                    == [0, 1, 2]
                hits, misses = store.cache_activity(run_id)
                assert hits + misses > 0
            # The second run re-discovers genomes the first already
            # measured, so the shared pool must have produced hits.
            total_hits = sum(store.cache_activity(r)[0]
                             for r in (first, second))
            assert total_hits > 0

    def test_workdir_gets_paper_layout(self, bundle, tmp_path):
        store_path = tmp_path / "gest.sqlite"
        run_id = _submit(store_path, bundle, generations=1)
        Orchestrator(store_path, workers=1,
                     workdir=tmp_path / "work").serve_until_idle()
        run_dir = tmp_path / "work" / run_id
        assert (run_dir / "template.s").exists()
        assert (run_dir / "config.xml").exists()
        assert (run_dir / "populations" / "population_0.bin").exists()
        records = list(run_statistics(run_dir).stats_records)
        assert records and records[0]["run_id"] == run_id

    def test_failed_run_recorded_not_raised(self, bundle, tmp_path):
        store_path = tmp_path / "gest.sqlite"
        bad = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            store.claim_next()
            # Sabotage: a platform no machine catalog knows.
            with store.connection() as conn:
                conn.execute(
                    "UPDATE runs SET platform = 'no_such_chip' "
                    "WHERE run_id = ?", (bad,))
        status = execute_run(store_path, bad)
        assert status == "failed"
        with RunStore(store_path) as store:
            row = store.get_run(bad)
            assert row.status == "failed"
            assert "no_such_chip" in row.error

    def test_failed_run_keeps_cache_activity(self, bundle, tmp_path,
                                             monkeypatch):
        """A run that fails mid-search still flushes the hit/miss
        counts of the cache lookups it made."""
        from repro.measurement.ipc import IPCMeasurement
        measure = IPCMeasurement.measure
        calls = []

        def fail_after_eight(self, source_text, individual):
            calls.append(individual.uid)
            if len(calls) > 8:
                return []
            return measure(self, source_text, individual)

        monkeypatch.setattr(IPCMeasurement, "measure", fail_after_eight)
        store_path = tmp_path / "gest.sqlite"
        run_id = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            store.claim_next()
        assert execute_run(store_path, run_id) == "failed"
        with RunStore(store_path) as store:
            entries = store.connection().execute(
                "SELECT COUNT(*) FROM cache_entries").fetchone()[0]
            hits, misses = store.cache_activity(run_id)
        assert entries == 8
        assert (hits, misses) == (1, 11)

    def test_failure_does_not_block_other_runs(self, bundle, direct_best,
                                               tmp_path):
        store_path = tmp_path / "gest.sqlite"
        bad = _submit(store_path, bundle)
        good = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            with store.connection() as conn:
                conn.execute(
                    "UPDATE runs SET platform = 'no_such_chip' "
                    "WHERE run_id = ?", (bad,))
        completed = Orchestrator(store_path,
                                 workers=1).serve_until_idle()
        assert sorted(completed) == [bad, good]
        with RunStore(store_path) as store:
            assert store.get_run(bad).status == "failed"
            row = store.get_run(good)
            assert row.status == "finished"
            assert row.best_fitness == pytest.approx(direct_best)


class TestCancellation:
    def test_cancel_requested_stops_at_generation_boundary(self, bundle,
                                                           tmp_path):
        store_path = tmp_path / "gest.sqlite"
        run_id = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            assert store.claim_next() == run_id
            store.request_cancel(run_id)  # running: flag only
        status = execute_run(store_path, run_id)
        assert status == "cancelled"
        with RunStore(store_path) as store:
            row = store.get_run(run_id)
            assert row.status == "cancelled"
            numbers = [g["number"] for g in store.generations(run_id)]
            assert numbers and numbers[-1] < 2  # stopped early
            assert store.load_checkpoint(run_id) is not None

    def test_cancel_queued_run_never_executes(self, bundle, tmp_path):
        store_path = tmp_path / "gest.sqlite"
        run_id = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            store.request_cancel(run_id)
        completed = Orchestrator(store_path,
                                 workers=1).serve_until_idle()
        assert completed == []
        with RunStore(store_path) as store:
            assert store.get_run(run_id).status == "cancelled"


def _reset_to_queued(store_path, run_id):
    """Simulate a crash: put a half-done run back in line, flag clear."""
    conn = sqlite3.connect(str(store_path))
    with conn:
        conn.execute(
            "UPDATE runs SET status = 'queued', cancel_requested = 0 "
            "WHERE run_id = ?", (run_id,))
    conn.close()


class TestCrashResume:
    def test_resume_from_store_checkpoint_matches_direct(self, bundle,
                                                         direct_best,
                                                         tmp_path):
        """Interrupt after generation 0, resume via the service, and
        land exactly where the uninterrupted run lands (the engine's
        bit-identical resume contract, now through the store)."""
        store_path = tmp_path / "gest.sqlite"
        run_id = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            store.claim_next()
            store.request_cancel(run_id)
        assert execute_run(store_path, run_id) == "cancelled"
        with RunStore(store_path) as store:
            done_before = [g["number"] for g in store.generations(run_id)]
        assert done_before == [0]

        _reset_to_queued(store_path, run_id)
        completed = Orchestrator(store_path,
                                 workers=1).serve_until_idle()
        assert completed == [run_id]
        with RunStore(store_path) as store:
            row = store.get_run(run_id)
            assert row.status == "finished"
            assert row.best_fitness == pytest.approx(direct_best)
            assert [g["number"] for g in store.generations(run_id)] == \
                [0, 1, 2]
            resumed_events = [payload for _, kind, payload in
                              store.events(run_id)
                              if kind == "run_started"]
            assert resumed_events[-1]["resumed"] is True

    def test_checkpoint_covering_final_generation_closes_books(
            self, bundle, direct_best, tmp_path):
        """A run that checkpointed its last generation but died before
        the ledger update is finalized without recomputation."""
        store_path = tmp_path / "gest.sqlite"
        run_id = _submit(store_path, bundle)
        with RunStore(store_path) as store:
            store.claim_next()
        assert execute_run(store_path, run_id) == "finished"
        _reset_to_queued(store_path, run_id)
        assert execute_run(store_path, run_id) == "finished"
        with RunStore(store_path) as store:
            row = store.get_run(run_id)
            assert row.status == "finished"
            assert row.best_fitness == pytest.approx(direct_best)


class TestServiceCLI:
    def test_submit_runs_tail_round_trip(self, bundle, tmp_path, capsys):
        db = tmp_path / "gest.sqlite"
        rc = main(["submit", str(bundle), "--db", str(db),
                   "--platform", PLATFORM, "--generations", "1"])
        assert rc == 0
        run_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert run_id.startswith("run-")

        Orchestrator(db, workers=1).serve_until_idle()
        capsys.readouterr()

        assert main(["runs", "--db", str(db)]) == 0
        table = capsys.readouterr().out
        assert run_id in table
        assert "finished" in table

        assert main(["tail", run_id, "--db", str(db)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        import json
        events = [json.loads(line) for line in lines]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert [e["seq"] for e in events] == \
            sorted(e["seq"] for e in events)

    def test_runs_missing_store_errors(self, tmp_path, capsys):
        assert main(["runs", "--db", str(tmp_path / "nope.sqlite")]) == 1
        assert "does not exist" in capsys.readouterr().err


def test_cache_fingerprint_agrees_across_entry_points(bundle, tmp_path):
    """The engine, ``gest run --cache`` and the service address cache
    entries by one fingerprint string, unchanged in format (saved
    cache files and store cache rows are keyed by it)."""
    results = tmp_path / "results"
    assert main(["run", str(bundle), "--platform", PLATFORM,
                 "--results", str(results), "--generations", "1",
                 "--cache", "--quiet"]) == 0
    cli = json.loads(
        (results / "evaluation_cache.json").read_text())["fingerprint"]

    store_path = tmp_path / "gest.sqlite"
    run_id = _submit(store_path, bundle, generations=1)
    assert execute_run(store_path, run_id) == "finished"
    with sqlite3.connect(store_path) as db:
        service = {row[0] for row in db.execute(
            "SELECT DISTINCT fingerprint FROM cache_entries")}

    config = parse_config_file(bundle)
    config.evaluation.cache = True
    machine = SimulatedMachine(PLATFORM, seed=config.ga.seed)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = instantiate(config.measurement_class, Measurement,
                              target, config.measurement_params)
    engine = GeneticEngine(config, measurement, DefaultFitness())

    assert cli == f"{measurement.fingerprint()}|noise_seed={config.ga.seed}"
    assert service == {cli}
    assert engine.evaluator.cache.fingerprint == cli
