"""Tests for the staged evaluation layer (repro.evaluation).

The acceptance property of the refactor: the same config + seed yields
bit-identical populations and identical run histories under the serial
backend, the process-pool backend, and with the evaluation cache on or
off.  These tests pin that property, plus the layer's satellite
contracts: the one measurement contract, ragged-repeat rejection, partial
generation resume, cache persistence, and per-stage observability.
"""

import json
import os
import pickle

import pytest

from repro.cli import main
from repro.core.config import EvaluationParameters, SearchParameters, \
    config_to_xml, parse_config_file, parse_config_text
from repro.core.engine import GenerationStats, GeneticEngine, \
    WORKERS_ENV_VAR
from repro.core.errors import ConfigError
from repro.core.individual import random_individual
from repro.core.instruction import InstructionLibrary
from repro.core.loader import instantiate
from repro.core.operand import RegisterOperand
from repro.core.output import OutputRecorder
from repro.core.population import load_population
from repro.core.rng import make_rng
from repro.core.template import Template
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.evaluation import (EvaluationCache, EvaluationPipeline, ProcessPoolBackend,
                              SerialBackend, StageTimings, noise_key)
from repro.evaluation.backends import AutoSelectBackend, BatchedBackend
from repro.fitness.default_fitness import DefaultFitness
from repro.isa.assembler import BaseAssembler
from repro.measurement import PowerMeasurement
from repro.measurement.base import Measurement
from repro.staticcheck import StaticScreen

from .scripted import ScriptedMeasurement, ldr_count, nop_fails

SHIPPED_CONFIG = "configs/arm_power/config.xml"


def _fails_from(uid):
    """A script that measures the LDR count until ``uid``, then returns
    an empty measurement list (the checkpoint-then-abort plug-in bug)."""
    def script(individual):
        return [] if individual.uid >= uid else ldr_count(individual)
    return script


class _UnderVolted(PowerMeasurement):
    """Measures at 0.9x nominal supply, as a V_MIN sweep step would; a
    batch skips execute_on_target, so it must never stand in."""

    def execute_on_target(self, source_text, supply_v=None):
        return super().execute_on_target(
            source_text, supply_v=0.9 * self.target.machine.supply_v)


def _power_measurement(seed=99, measurement_cls=PowerMeasurement):
    machine = SimulatedMachine("cortex_a15", seed=seed, sim_cycles=600)
    target = SimulatedTarget(machine)
    target.connect()
    return measurement_cls(target, {"samples": "2"})


def _with_unassemblable_src(config):
    """Extend ``config``'s ``src`` operand by ``x99``, which never
    assembles, so the run has compile failures."""
    operands = dict(config.library.operands, src=RegisterOperand(
        "src", ["x1", "x2", "x3", "x99"]))
    config.library = InstructionLibrary(
        list(operands.values()), list(config.library.instructions.values()))


def _run(config, tmp_path=None, name="run",
         measurement_cls=PowerMeasurement, **engine_kwargs):
    recorder = OutputRecorder(tmp_path / name) if tmp_path else None
    engine = GeneticEngine(config,
                           _power_measurement(config.ga.seed,
                                              measurement_cls),
                           DefaultFitness(), recorder=recorder,
                           **engine_kwargs)
    history = engine.run()
    return history, recorder


# ---------------------------------------------------------------------------
# serial / parallel / cache equivalence (the acceptance property)
# ---------------------------------------------------------------------------

#: The stock procedure, and one overriding a step a batch skips.
MEASUREMENTS = pytest.mark.parametrize(
    "measurement_cls", [PowerMeasurement, _UnderVolted],
    ids=["stock", "undervolted"])


class TestBackendEquivalence:
    @MEASUREMENTS
    def test_histories_identical(self, tiny_config, measurement_cls):
        serial, _ = _run(tiny_config, measurement_cls=measurement_cls,
                         backend=SerialBackend())
        pooled, _ = _run(tiny_config, measurement_cls=measurement_cls,
                         backend=ProcessPoolBackend(2))
        assert serial.generations == pooled.generations
        assert serial.best_individual.genome_key() == \
            pooled.best_individual.genome_key()
        assert [i.measurements for i in serial.final_population] == \
            [i.measurements for i in pooled.final_population]

    @MEASUREMENTS
    def test_population_binaries_bit_identical(self, tiny_config,
                                               tmp_path, measurement_cls):
        _, rec_serial = _run(tiny_config, tmp_path, "serial",
                             measurement_cls=measurement_cls,
                             backend=SerialBackend())
        _, rec_pooled = _run(tiny_config, tmp_path, "pooled",
                             measurement_cls=measurement_cls,
                             backend=ProcessPoolBackend(2))
        serial_files = rec_serial.population_files()
        pooled_files = rec_pooled.population_files()
        assert len(serial_files) == len(pooled_files) > 0
        for a, b in zip(serial_files, pooled_files):
            assert a.read_bytes() == b.read_bytes()

    def test_workers_argument_selects_auto_pool(self, tiny_config):
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness(), workers=2)
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        assert engine.evaluator.backend.pool_workers == 2
        engine.evaluator.close()

    @pytest.mark.serial_evaluation
    def test_config_workers_selects_auto_pool(self, tiny_config):
        tiny_config.evaluation.workers = 3
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness())
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        assert engine.evaluator.backend.pool_workers == 3
        engine.evaluator.close()

    def test_explicit_backend_names(self, tiny_config):
        # The program picks the executor; backend= takes only an
        # ExecutorBackend instance.
        for name in ("serial", "batched", "pool", "auto"):
            with pytest.raises(TypeError, match="ExecutorBackend"):
                GeneticEngine(tiny_config, ScriptedMeasurement(),
                              DefaultFitness(), backend=name, workers=1)

    @pytest.mark.serial_evaluation
    def test_environment_override(self, tiny_config, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness())
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        engine.evaluator.close()
        # An explicit workers argument wins over the environment.
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness(), workers=1)
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        assert engine.evaluator.backend.pool_workers == 1

    @pytest.mark.serial_evaluation
    def test_workers_zero_means_auto(self, tiny_config, monkeypatch):
        # The "0 = auto" contract holds for the environment variable,
        # the argument, and the config field alike — historically the
        # env path accepted 0 (falling through to serial) while the
        # config path rejected it, so pin all three.
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness())
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        assert engine.evaluator.backend.pool_workers >= 1
        engine.evaluator.close()
        monkeypatch.delenv(WORKERS_ENV_VAR)
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness(), workers=0)
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        engine.evaluator.close()
        tiny_config.evaluation.workers = 0
        tiny_config.evaluation.validate()  # 0 is a legal config value
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                               DefaultFitness())
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        engine.evaluator.close()
        with pytest.raises(ConfigError, match="workers"):
            GeneticEngine(tiny_config, ScriptedMeasurement(), DefaultFitness(),
                          workers=-1)

    @pytest.mark.serial_evaluation
    def test_bad_environment_value_rejected(self, tiny_config,
                                            monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ConfigError, match=WORKERS_ENV_VAR):
            GeneticEngine(tiny_config, ScriptedMeasurement(), DefaultFitness())

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            ProcessPoolBackend(0)

    def test_empty_measurement_aborts_under_pool(self, tiny_config):
        engine = GeneticEngine(
            tiny_config, ScriptedMeasurement(_fails_from(0)),
            DefaultFitness(), backend=ProcessPoolBackend(2))
        with pytest.raises(ConfigError, match="empty result list"):
            engine.run()


class TestExecutorChoice:
    """The engine always evaluates through AutoSelectBackend, which
    picks the executor from what it can observe."""

    @staticmethod
    def _shipped_generation(platform, repeats, jobs=None):
        config = parse_config_file(SHIPPED_CONFIG)
        if jobs is not None:
            config.ga.population_size = jobs
        machine = SimulatedMachine(platform, seed=config.ga.seed)
        target = SimulatedTarget(machine)
        target.connect()
        params = dict(config.measurement_params, repeats=str(repeats))
        measurement = instantiate(config.measurement_class, Measurement,
                                  target, params)
        pipeline = EvaluationPipeline(
            template=Template(config.template_text),
            measurement=measurement, fitness=DefaultFitness(),
            noise_seed=config.ga.seed)
        rng = make_rng(config.ga.seed)
        individuals = [random_individual(config.library,
                                         config.ga.individual_size, rng,
                                         uid=uid)
                       for uid in range(config.ga.population_size)]
        return pipeline, [(individual, pipeline.render(individual))
                          for individual in individuals]

    @pytest.mark.parametrize("platform", ["cortex_a15", "cortex_a7"])
    def test_shipped_generation_routing(self, platform):
        backend = AutoSelectBackend(pool_workers=2)
        for repeats, expected in ((1, "serial"), (3, "batched")):
            pipeline, jobs = self._shipped_generation(platform, repeats)
            assert len(jobs) == 20
            results = backend.evaluate(pipeline, jobs)
            assert len(results) == 20
            assert backend.name == expected, backend.reason
        backend.close()

    def test_pool_is_tried_before_the_serial_route(self):
        # 48 single-repeat jobs x 1600 cycles give each of two workers
        # 24 jobs: the pool takes the generation, although one repeat
        # alone would keep it off the in-process batch.
        backend = AutoSelectBackend(pool_workers=2)
        pipeline, jobs = self._shipped_generation("cortex_a15", 1, jobs=48)
        results = backend.evaluate(pipeline, jobs)
        assert backend.name == "pool", backend.reason
        assert len(results) == 48
        backend.close()

    def test_workers_one_matches_serial_history(self, tiny_config):
        engine = GeneticEngine(tiny_config,
                               _power_measurement(tiny_config.ga.seed),
                               DefaultFitness(), workers=1)
        assert isinstance(engine.evaluator.backend, AutoSelectBackend)
        assert engine.evaluator.backend.pool_workers == 1
        auto = engine.run()
        serial, _ = _run(tiny_config, backend=SerialBackend())
        assert auto.generations == serial.generations
        assert [g.backend for g in auto.generations] == \
            ["serial"] * tiny_config.ga.generations
        assert all(g.backend_reason for g in auto.generations)

    def test_legacy_backend_attribute_still_parses(self, tiny_config,
                                                   tmp_path):
        # Every RunStore row written before the executor choice went
        # away carries backend="auto" in its <evaluation> element.
        (tmp_path / "t.s").write_text(tiny_config.template_text)
        text = config_to_xml(tiny_config, template_filename="t.s").replace(
            '<evaluation ', '<evaluation backend="auto" ')
        assert 'backend="auto"' in text
        config = parse_config_text(text, base_dir=tmp_path)
        assert config.evaluation == EvaluationParameters()
        assert "backend" not in config_to_xml(config)

    def test_cli_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", SHIPPED_CONFIG, "--backend", "serial"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestCacheEquivalence:
    def test_cache_does_not_change_results(self, tiny_config):
        plain, _ = _run(tiny_config)
        cache = EvaluationCache("test")
        cached, _ = _run(tiny_config, cache=cache)
        assert plain.generations == cached.generations
        assert plain.best_individual.genome_key() == \
            cached.best_individual.genome_key()
        # Elitism re-injects the best genome every generation, so a
        # cached run must hit at least once per later generation.
        assert cache.hits >= tiny_config.ga.generations - 1

    # A cache replays measurements and never changes what a strategy
    # measures: the pruning wrappers search the same way over a filled
    # cache as with none.
    @pytest.mark.parametrize("strategy",
                             ["genetic", "static_rank", "surrogate"])
    def test_seeded_rerun_is_all_hits(self, tiny_config, strategy):
        tiny_config.search = SearchParameters(strategy=strategy)
        plain, _ = _run(tiny_config)
        cache = EvaluationCache("test")
        first, _ = _run(tiny_config, cache=cache)
        misses_after_first = cache.misses
        second, _ = _run(tiny_config, cache=cache)
        assert first.generations == plain.generations
        assert [g.surrogate for g in first.generations] == \
            [g.surrogate for g in plain.generations]
        assert second.generations == first.generations
        assert [g.surrogate for g in second.generations] == \
            [g.surrogate for g in first.generations]
        assert sum(g.measured for g in second.generations) == 0
        assert cache.misses == misses_after_first  # no new pipeline work
        # every individual the first run evaluated replays
        assert sum(g.cache_hits for g in second.generations) == \
            sum(g.measured + g.cache_hits for g in first.generations)

    def test_screen_verdicts_follow_the_replaying_run(self, tiny_config):
        # "x99" never assembles: a screened run records those compile
        # failures as screen failures too, an unscreened run does not,
        # and a run over the other's cache records them as a fresh run
        # of its own setting would.
        _with_unassemblable_src(tiny_config)

        def search(screened, cache=None):
            measurement = _power_measurement(tiny_config.ga.seed)
            screen = StaticScreen.for_machine(measurement.target.machine) \
                if screened else None
            return GeneticEngine(tiny_config, measurement, DefaultFitness(),
                                 screen=screen, cache=cache).run()

        for filler, replayer in ((True, False), (False, True)):
            cache = EvaluationCache("test")
            search(filler, cache)
            fresh, replayed = search(replayer), search(replayer, cache)
            assert sum(g.cache_hits for g in replayed.generations) > 0
            assert replayed.generations == fresh.generations
        assert sum(g.screen_failures for g in fresh.generations) > 0

    def test_measurement_compile_failures_replay_exactly(self,
                                                         tiny_config):
        # A compile failure the measurement raises after the screen
        # passed the program is no screen failure, and a cache does not
        # replay it as one.
        def search(cache):
            return GeneticEngine(tiny_config, ScriptedMeasurement(nop_fails),
                                 DefaultFitness(), screen=StaticScreen(),
                                 cache=cache).run()

        cache = EvaluationCache("test")
        first = search(cache)
        assert sum(g.compile_failures for g in first.generations) > 0
        assert all(g.screen_failures == 0 for g in first.generations)
        second = search(cache)
        assert sum(g.cache_hits for g in second.generations) > 0
        assert second.generations == first.generations

    def test_measurement_compile_failures_follow_the_replaying_run(
            self, tiny_config):
        # A cache stores only measurements: a compile failure the
        # measurement raised in an unscreened run is evaluated again in
        # a screened run over that cache, which then records no screen
        # failures, as a fresh screened run does.
        def search(screen, cache=None):
            return GeneticEngine(tiny_config, ScriptedMeasurement(nop_fails),
                                 DefaultFitness(), screen=screen,
                                 cache=cache).run()

        cache = EvaluationCache("test")
        filled = search(None, cache)
        assert sum(g.compile_failures for g in filled.generations) > 0
        fresh = search(StaticScreen())
        replayed = search(StaticScreen(), cache)
        assert sum(g.cache_hits for g in replayed.generations) > 0
        assert [g.screen_failures for g in replayed.generations] == \
            [g.screen_failures for g in fresh.generations] == [0, 0, 0]
        assert replayed.generations == fresh.generations

    def test_measured_counts_only_results_with_measurements(self,
                                                            tiny_config):
        # Every individual is fresh each generation, so what was not
        # measured is exactly the compile failures, screened or not.
        _with_unassemblable_src(tiny_config)
        size = tiny_config.ga.population_size
        for screen in (None, StaticScreen()):
            history = GeneticEngine(
                tiny_config, _power_measurement(tiny_config.ga.seed),
                DefaultFitness(), screen=screen).run()
            assert sum(g.compile_failures for g in history.generations) > 0
            assert [g.measured for g in history.generations] == \
                [size - g.compile_failures for g in history.generations]

    def test_cache_with_pool_backend(self, tiny_config):
        plain, _ = _run(tiny_config)
        cached, _ = _run(tiny_config, cache=EvaluationCache("test"),
                         backend=ProcessPoolBackend(2))
        assert plain.generations == cached.generations

    def test_config_cache_flag_builds_cache(self, tiny_config):
        tiny_config.evaluation.cache = True
        engine = GeneticEngine(tiny_config, _power_measurement(),
                               DefaultFitness())
        assert engine.evaluator.cache is not None
        assert "PowerMeasurement" in engine.evaluator.cache.fingerprint

    def test_fingerprint_stable_across_hash_seeds(self):
        """A persisted cache is only useful if the fingerprint written
        by one process matches the one computed by the next — set reprs
        under hash randomisation silently broke that."""
        import subprocess
        import sys
        script = (
            "from repro.cpu import SimulatedMachine, SimulatedTarget\n"
            "from repro.measurement.power import PowerMeasurement\n"
            "m = SimulatedMachine('cortex_a15', seed=7, sim_cycles=600)\n"
            "t = SimulatedTarget(m)\n"
            "t.connect()\n"
            "print(PowerMeasurement(t, {}).fingerprint())\n")
        prints = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            prints.append(subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True).stdout)
        assert prints[0] == prints[1] == prints[2]


class TestCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        cache = EvaluationCache("fp")
        cache.put("src-a", [1.0, 2.0])
        cache.put("src-b", (0.5,))
        path = cache.save(tmp_path / "cache.json")
        loaded = EvaluationCache.load(path, "fp")
        assert len(loaded) == 2
        assert loaded.get("src-a") == (1.0, 2.0)
        assert loaded.get("src-b") == (0.5,)
        assert "compile_failed" not in path.read_text()

    def test_older_compile_failure_entries_skipped(self, tmp_path):
        # An older build also stored compile failures, flagged in the
        # same file layout; this build loads only the measurements.
        cache = EvaluationCache("fp")
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "format": "gest-repro-evaluation-cache", "version": 1,
            "fingerprint": "fp",
            "entries": {
                cache.key("src-a"): {"measurements": [1.0, 2.0],
                                     "compile_failed": False},
                cache.key("src-b"): {"measurements": [0.0],
                                     "compile_failed": True},
            }}))
        loaded = EvaluationCache.load(path, "fp")
        assert len(loaded) == 1
        assert loaded.get("src-a") == (1.0, 2.0)
        assert loaded.get("src-b") is None

    def test_fingerprint_mismatch_yields_empty_cache(self, tmp_path):
        cache = EvaluationCache("platform-a")
        cache.put("src", (1.0,))
        path = cache.save(tmp_path / "cache.json")
        loaded = EvaluationCache.load(path, "platform-b")
        assert len(loaded) == 0
        assert loaded.fingerprint == "platform-b"

    def test_missing_and_wrong_format_files_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            EvaluationCache.load(tmp_path / "nope.json")
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError, match="not an evaluation cache"):
            EvaluationCache.load(wrong)

    def test_corrupt_cache_warns_and_starts_empty(self, tmp_path):
        """A mangled cache file costs re-measurement, not the run:
        load warns and returns an empty cache instead of crashing."""
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = EvaluationCache.load(bad, "fp")
        assert len(cache) == 0
        assert cache.fingerprint == "fp"

    def test_truncated_cache_warns_and_starts_empty(self, tmp_path):
        """A cache file torn mid-write (killed run, full disk) is
        treated the same as corrupt: warn, start empty."""
        cache = EvaluationCache("fp")
        cache.put("src-a", (1.0, 2.0))
        path = cache.save(tmp_path / "cache.json")
        intact = path.read_text()
        path.write_text(intact[:len(intact) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            loaded = EvaluationCache.load(path, "fp")
        assert len(loaded) == 0


# ---------------------------------------------------------------------------
# one measurement contract: a Measurement on a simulated machine
# ---------------------------------------------------------------------------

class TestProtocolValidation:
    def test_non_measurement_refused_at_construction(self, tiny_config,
                                                     tmp_path):
        class DuckTyped:
            def measure(self, source_text, individual):
                return [1.0]

            def measure_repeated(self, source_text, individual):
                return [1.0]

        unsimulated = ScriptedMeasurement()
        unsimulated.target.machine = object()
        checkpoint = tmp_path / "run.ckpt"
        GeneticEngine(tiny_config, ScriptedMeasurement(), DefaultFitness(),
                      checkpoint_path=checkpoint).run(generations=1)
        for measurement in (DuckTyped(), unsimulated):
            message = (rf"{type(measurement).__name__}.*subclass "
                       r"repro\.measurement\.base\.Measurement")
            with pytest.raises(ConfigError, match=message):
                EvaluationPipeline(Template(tiny_config.template_text),
                                   measurement, DefaultFitness())
            with pytest.raises(ConfigError, match=message):
                GeneticEngine(tiny_config, measurement, DefaultFitness())
            with pytest.raises(ConfigError, match=message):
                GeneticEngine.resume(tiny_config, measurement,
                                     DefaultFitness(), checkpoint)

    def test_missing_measure_repeated_fails_at_construction(
            self, tiny_config):
        class SingleShot:
            def measure(self, source_text, individual):
                return [1.0]

        with pytest.raises(ConfigError, match=r"'SingleShot'.*subclass"):
            GeneticEngine(tiny_config, SingleShot(), DefaultFitness())

    def test_missing_measure_fails_at_construction(self, tiny_config):
        class NoMeasure:
            def measure_repeated(self, source_text, individual):
                return [1.0]

        with pytest.raises(ConfigError, match=r"'NoMeasure'.*subclass"):
            GeneticEngine(tiny_config, NoMeasure(), DefaultFitness())

    def test_missing_get_fitness_fails_at_construction(self, tiny_config):
        class NotFitness:
            pass

        with pytest.raises(ConfigError, match="get_fitness"):
            GeneticEngine(tiny_config, ScriptedMeasurement(), NotFitness())


class TestRaggedRepeats:
    def test_ragged_widths_raise_with_uid_and_widths(self, arm_individual):
        class Ragged(PowerMeasurement):
            widths = iter([2, 3])

            def measure(self, source_text, individual):
                return [0.0] * next(self.widths)

        measurement = Ragged(
            SimulatedTarget(SimulatedMachine("cortex_a15", seed=1,
                                             sim_cycles=600)),
            {"repeats": "2"})
        arm_individual.uid = 7
        with pytest.raises(ConfigError) as excinfo:
            measurement.measure_repeated("src", arm_individual)
        message = str(excinfo.value)
        assert "ragged" in message
        assert "uid=7" in message
        assert "[2, 3]" in message
        assert "Ragged" in message


# ---------------------------------------------------------------------------
# resume finishes a partially evaluated generation (regression)
# ---------------------------------------------------------------------------

class TestResumePartialGeneration:
    def test_resume_finishes_partial_generation(self, tiny_config,
                                                tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        # Generation 1 holds uids 6..11; the plug-in dies at uid 9, so
        # the abort checkpoint holds generation 1 with 6, 7, 8 evaluated.
        engine = GeneticEngine(tiny_config,
                               ScriptedMeasurement(_fails_from(9)),
                               DefaultFitness(),
                               checkpoint_path=checkpoint)
        with pytest.raises(ConfigError, match="empty result list"):
            engine.run()
        with open(checkpoint, "rb") as handle:
            payload = pickle.load(handle)
        partial = payload["population"]
        assert payload["generation"] == 1
        assert any(not ind.evaluated for ind in partial)
        assert any(ind.evaluated for ind in partial)

        recorder = OutputRecorder(tmp_path / "resumed")
        resumed = GeneticEngine.resume(tiny_config, ScriptedMeasurement(),
                                       DefaultFitness(), checkpoint,
                                       recorder=recorder)
        history = resumed.run()

        # The checkpointed generation is finished, not bred past: the
        # first recorded generation is number 1 and holds exactly the
        # checkpointed uids, every one of them evaluated.
        assert history.generations[0].number == 1
        recorded = load_population(recorder.populations_dir /
                                   "population_1.bin")
        assert {i.uid for i in recorded} == {i.uid for i in partial}
        assert all(ind.evaluated for ind in recorded)

        # And the finished trajectory matches an uninterrupted run with
        # the healthy plug-in (the failing one agrees on uids < 9).
        uninterrupted = GeneticEngine(tiny_config, ScriptedMeasurement(),
                                      DefaultFitness()).run()
        assert history.generations == uninterrupted.generations[1:]
        assert [i.genome_key() for i in history.final_population] == \
            [i.genome_key() for i in uninterrupted.final_population]

    def test_resume_completed_generation_still_breeds(self, tiny_config,
                                                      tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        full = GeneticEngine(tiny_config, ScriptedMeasurement(),
                             DefaultFitness(), checkpoint_path=checkpoint)
        full_history = full.run(generations=2)
        assert checkpoint.exists()
        resumed = GeneticEngine.resume(tiny_config, ScriptedMeasurement(),
                                       DefaultFitness(), checkpoint)
        history = resumed.run(generations=3)
        assert [g.number for g in history.generations] == [2]
        assert full_history.generations[-1].number == 1


# ---------------------------------------------------------------------------
# observability: stats fields, stats.jsonl, timings
# ---------------------------------------------------------------------------

class TestObservability:
    def test_stats_equality_ignores_observability_fields(self):
        a = GenerationStats(number=0, best_fitness=1.0, mean_fitness=0.5,
                            best_uid=3, compile_failures=0)
        b = GenerationStats(number=0, best_fitness=1.0, mean_fitness=0.5,
                            best_uid=3, compile_failures=0)
        b.cache_hits = 5
        b.measured = 6
        b.timings = StageTimings(render_s=1.0, measure_s=2.0)
        assert a == b

    def test_generation_counters_populated(self, tiny_config):
        history, _ = _run(tiny_config, cache=EvaluationCache("test"))
        first = history.generations[0]
        assert first.measured == tiny_config.ga.population_size
        assert first.timings.measure_s > 0.0
        assert first.timings.render_s > 0.0
        later_hits = sum(g.cache_hits for g in history.generations[1:])
        assert later_hits >= tiny_config.ga.generations - 1

    def test_stats_jsonl_written(self, tiny_config, tmp_path):
        import json
        history, recorder = _run(tiny_config, tmp_path)
        stats_path = recorder.results_dir / "stats.jsonl"
        lines = stats_path.read_text().splitlines()
        assert len(lines) == tiny_config.ga.generations
        first = json.loads(lines[0])
        assert first["number"] == 0
        assert first["best_fitness"] == \
            history.generations[0].best_fitness
        assert "measure_s" in first["timings"]

    @pytest.mark.parametrize("backend,schedules_per_row", [
        (SerialBackend, 3), (BatchedBackend, 1),
        (lambda: ProcessPoolBackend(2), 1)],
        ids=["serial", "batched", "pool"])
    def test_schedule_memo_counters(self, tiny_config, tmp_path, backend,
                                    schedules_per_row):
        """Every measure-stage schedule is a memo hit or a miss: the
        serial loop schedules each of three repeats, a batch (also
        inside pool workers, whose counts ride on the results) once
        per row; only the first schedule of a program misses."""
        machine = SimulatedMachine("cortex_a15", seed=99, sim_cycles=600)
        target = SimulatedTarget(machine)
        target.connect()
        measurement = PowerMeasurement(target, {"samples": "2",
                                                "repeats": "3"})
        recorder = OutputRecorder(tmp_path / "run")
        history = GeneticEngine(tiny_config, measurement, DefaultFitness(),
                                recorder=recorder,
                                backend=backend()).run()
        for stats in history.generations:
            assert stats.schedule_memo_hits + stats.schedule_memo_misses \
                == schedules_per_row * stats.measured
            assert 0 < stats.schedule_memo_misses <= stats.measured
        first = history.generations[0]
        assert first.schedule_memo_misses == first.measured
        rows = [json.loads(line) for line in
                (recorder.results_dir / "stats.jsonl").read_text()
                .splitlines()]
        assert [(row["schedule_memo_hits"], row["schedule_memo_misses"])
                for row in rows] == \
            [(g.schedule_memo_hits, g.schedule_memo_misses)
             for g in history.generations]

    def test_stage_timings_accumulate(self):
        total = StageTimings(render_s=1.0)
        total.add(StageTimings(render_s=0.5, measure_s=2.0))
        assert total.render_s == 1.5
        assert total.measure_s == 2.0
        assert total.total_s == 3.5


# ---------------------------------------------------------------------------
# one compile per source
# ---------------------------------------------------------------------------

class TestOneCompile:
    """The screen, the batched backend and the pruning rankers take the
    program the measurement compiles: every assembly of a run happens
    inside the machine's compile, behind its content-addressed cache."""

    @pytest.mark.parametrize("backend_cls, strategy, screened", [
        (SerialBackend, "genetic", True),
        (BatchedBackend, "genetic", True),
        (SerialBackend, "static_rank", False),
    ], ids=["serial-screened", "batched-screened", "static_rank"])
    def test_every_assembly_is_inside_the_machines_compile(
            self, tiny_config, monkeypatch, backend_cls, strategy,
            screened):
        depth = [0]
        outside = []
        real_compile = SimulatedMachine.compile
        real_assemble = BaseAssembler.assemble

        def counting_compile(self, *args, **kwargs):
            depth[0] += 1
            try:
                return real_compile(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        def recording_assemble(self, source, name="<source>", memo=None):
            if not depth[0]:
                outside.append(name)
            return real_assemble(self, source, name=name, memo=memo)

        monkeypatch.setattr(SimulatedMachine, "compile", counting_compile)
        monkeypatch.setattr(BaseAssembler, "assemble", recording_assemble)
        measurement = _power_measurement(tiny_config.ga.seed)
        machine = measurement.target.machine
        engine = GeneticEngine(
            tiny_config, measurement, DefaultFitness(),
            backend=backend_cls(), strategy=strategy,
            screen=StaticScreen.for_machine(machine) if screened else None)
        history = engine.run(generations=2)
        assert machine.compile_cache_misses > 0
        assert all(g.screened == (g.measured if screened else 0)
                   for g in history.generations)
        assert outside == []


# ---------------------------------------------------------------------------
# noise keying and config plumbing
# ---------------------------------------------------------------------------

class TestNoiseKey:
    def test_deterministic(self):
        assert noise_key(5, "mov x0, #1") == noise_key(5, "mov x0, #1")

    def test_sensitive_to_source_and_seed(self):
        assert noise_key(5, "mov x0, #1") != noise_key(5, "mov x0, #2")
        assert noise_key(5, "mov x0, #1") != noise_key(6, "mov x0, #1")

    def test_pipeline_measurements_are_order_free(self, tiny_config,
                                                  tiny_library, rng):
        from repro.core.individual import random_individual
        from repro.core.template import Template
        measurement = _power_measurement()
        pipeline = EvaluationPipeline(
            Template(tiny_config.template_text), measurement,
            DefaultFitness(), noise_seed=99)
        a = random_individual(tiny_library, 8, rng, uid=0)
        b = random_individual(tiny_library, 8, rng, uid=1)
        forward = [pipeline.evaluate(a).measurements,
                   pipeline.evaluate(b).measurements]
        backward = [pipeline.evaluate(b).measurements,
                    pipeline.evaluate(a).measurements]
        assert forward == list(reversed(backward))


class TestEvaluationConfig:
    def test_defaults(self):
        params = EvaluationParameters()
        assert params.workers == 1
        assert params.cache is False

    def test_parse_and_round_trip(self, tiny_config, tmp_path):
        (tmp_path / "t.s").write_text(tiny_config.template_text)
        tiny_config.evaluation = EvaluationParameters(workers=4,
                                                      cache=True)
        xml = config_to_xml(tiny_config, template_filename="t.s")
        assert 'workers="4"' in xml
        parsed = parse_config_text(xml, base_dir=tmp_path)
        assert parsed.evaluation.workers == 4
        assert parsed.evaluation.cache is True

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            EvaluationParameters(workers=-1).validate()
        EvaluationParameters(workers=0).validate()  # 0 = auto
