"""Unit tests for the GA engine (repro.core.engine).

These use a scripted measurement (``tests/scripted.py``) so the
engine's mechanics (seeding, evaluation, breeding, elitism, recording,
compile-failure handling) are tested without simulating a pipeline.
"""

import gc
import weakref

import pytest

from repro.core.config import GAParameters, RunConfig
from repro.core.engine import GeneticEngine
from repro.core.errors import ConfigError
from repro.core.individual import random_individual
from repro.core.output import OutputRecorder
from repro.core.population import Population
from repro.core.rng import make_rng
from repro.fitness.default_fitness import DefaultFitness
from repro.staticcheck import StaticScreen

from .scripted import ScriptedMeasurement, ldr_pair, nop_fails


def _engine(config, measurement=None, recorder=None):
    return GeneticEngine(config,
                         measurement or ScriptedMeasurement(ldr_pair),
                         DefaultFitness(), recorder=recorder)


def _no_values(individual):
    """A broken measurement plug-in's script: no values at all."""
    return []


class TestRunMechanics:
    def test_history_has_one_entry_per_generation(self, tiny_config):
        history = _engine(tiny_config).run()
        assert len(history.generations) == tiny_config.ga.generations

    def test_population_size_constant(self, tiny_config):
        history = _engine(tiny_config).run()
        assert len(history.final_population) == \
            tiny_config.ga.population_size

    def test_individual_size_constant(self, tiny_config):
        history = _engine(tiny_config).run()
        assert all(len(ind) == tiny_config.ga.individual_size
                   for ind in history.final_population)

    @pytest.mark.serial_evaluation
    def test_every_individual_evaluated(self, tiny_config):
        measurement = ScriptedMeasurement(ldr_pair)
        history = _engine(tiny_config, measurement).run()
        expected = tiny_config.ga.population_size * \
            tiny_config.ga.generations
        assert measurement.calls == expected
        assert history.final_population.evaluated

    def test_generations_override(self, tiny_config):
        history = _engine(tiny_config).run(generations=1)
        assert len(history.generations) == 1

    def test_bad_generations_override(self, tiny_config):
        with pytest.raises(ConfigError):
            _engine(tiny_config).run(generations=0)

    def test_uids_unique_across_run(self, tiny_config, tmp_path):
        recorder = OutputRecorder(tmp_path / "run")
        _engine(tiny_config, recorder=recorder).run()
        seen = set()
        from repro.core.population import load_population
        for path in recorder.population_files():
            for ind in load_population(path):
                assert ind.uid not in seen
                seen.add(ind.uid)

    def test_best_individual_tracked(self, tiny_config):
        history = _engine(tiny_config).run()
        best = history.best_individual
        assert best is not None
        assert best.fitness == max(g.best_fitness
                                   for g in history.generations)


class TestEngineLifetime:
    @pytest.mark.parametrize("strategy",
                             ["genetic", "static_rank", "surrogate"])
    def test_dropped_engine_frees_its_machine(self, tiny_config, strategy):
        """The strategy holds no reference back to the engine, so a
        finished search's engine, pipeline and machine go as soon as
        the last reference does, without the cyclic collector."""
        measurement = ScriptedMeasurement(ldr_pair)
        machine = weakref.ref(measurement.target.machine)
        gc.collect()
        gc.disable()
        try:
            engine = GeneticEngine(tiny_config, measurement,
                                   DefaultFitness(), strategy=strategy)
            engine.run()
            del engine, measurement
            assert machine() is None
        finally:
            gc.enable()


class TestDeterminism:
    def test_same_seed_same_trajectory(self, tiny_config):
        h1 = _engine(tiny_config).run()
        h2 = _engine(tiny_config).run()
        assert h1.best_fitness_series() == h2.best_fitness_series()
        assert h1.best_individual.genome_key() == \
            h2.best_individual.genome_key()

    def test_different_seed_different_trajectory(self, tiny_library,
                                                 tiny_template):
        def run(seed):
            ga = GAParameters(population_size=6, individual_size=8,
                              mutation_rate=0.1, generations=3,
                              tournament_size=3, seed=seed)
            config = RunConfig(ga=ga, library=tiny_library,
                               template_text=tiny_template.text)
            return _engine(config).run()
        a = run(1).best_individual.genome_key()
        b = run(2).best_individual.genome_key()
        assert a != b


class TestSelectionAndElitism:
    def test_fitness_improves_with_elitism(self, tiny_library,
                                           tiny_template):
        ga = GAParameters(population_size=10, individual_size=12,
                          mutation_rate=0.08, generations=8,
                          tournament_size=3, seed=5)
        config = RunConfig(ga=ga, library=tiny_library,
                           template_text=tiny_template.text)
        history = _engine(config).run()
        series = history.best_fitness_series()
        assert series[-1] >= series[0]
        # Deterministic fitness + elitism => monotone non-decreasing.
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_converges_to_all_ldr(self, tiny_library, tiny_template):
        """With fitness = LDR count, the GA must saturate the loop."""
        ga = GAParameters(population_size=14, individual_size=10,
                          mutation_rate=0.1, generations=25,
                          tournament_size=4, seed=5)
        config = RunConfig(ga=ga, library=tiny_library,
                           template_text=tiny_template.text)
        history = _engine(config).run()
        assert history.best_individual.fitness >= 9.0

    def test_without_elitism_best_can_regress(self, tiny_library,
                                              tiny_template):
        ga = GAParameters(population_size=6, individual_size=10,
                          mutation_rate=0.5, generations=12,
                          tournament_size=2, elitism=False, seed=11)
        config = RunConfig(ga=ga, library=tiny_library,
                           template_text=tiny_template.text)
        series = _engine(config).run().best_fitness_series()
        assert any(b < a for a, b in zip(series, series[1:]))


class TestCompileFailures:
    def test_failures_get_zero_fitness_and_stay_recorded(self, tiny_config):
        history = _engine(tiny_config,
                          ScriptedMeasurement(nop_fails)).run()
        failed = [ind for pop in [history.final_population]
                  for ind in pop if ind.compile_failed]
        for ind in failed:
            assert ind.fitness == 0.0
            assert ind.measurements == [0.0]

    def test_search_still_progresses_despite_failures(self, tiny_library,
                                                      tiny_template):
        ga = GAParameters(population_size=12, individual_size=6,
                          mutation_rate=0.15, generations=15,
                          tournament_size=4, seed=3)
        config = RunConfig(ga=ga, library=tiny_library,
                           template_text=tiny_template.text)
        history = _engine(config, ScriptedMeasurement(nop_fails)).run()
        # NOP-bearing individuals are unfit, so the winner has none.
        assert all(i.name != "NOP"
                   for i in history.best_individual.instructions)
        assert history.best_individual.fitness > 0

    def test_failure_counter_in_stats(self, tiny_config):
        history = _engine(tiny_config,
                          ScriptedMeasurement(nop_fails)).run()
        assert all(g.compile_failures >= 0 for g in history.generations)


class TestSeedPopulation:
    def test_seed_population_used(self, tiny_config, tiny_library,
                                  tmp_path):
        rng = make_rng(0)
        seeds = [random_individual(tiny_library, 8, rng, uid=i)
                 for i in range(tiny_config.ga.population_size)]
        seed_pop = Population(seeds, number=9)
        path = seed_pop.save(tmp_path / "seed.bin")

        tiny_config.seed_population_file = path
        engine = _engine(tiny_config)
        history = engine.run(generations=1)
        got = {ind.genome_key() for ind in history.final_population}
        expected = {ind.genome_key() for ind in seeds}
        assert got == expected

    def test_seed_population_size_mismatch(self, tiny_config,
                                           tiny_library, tmp_path):
        rng = make_rng(0)
        seeds = [random_individual(tiny_library, 8, rng) for _ in range(3)]
        path = Population(seeds).save(tmp_path / "seed.bin")
        tiny_config.seed_population_file = path
        with pytest.raises(ConfigError, match="seed population"):
            _engine(tiny_config).run(generations=1)


class TestRecording:
    def test_recorder_writes_everything(self, tiny_config, tmp_path):
        recorder = OutputRecorder(tmp_path / "run")
        _engine(tiny_config, recorder=recorder).run()
        n_individuals = len(list(recorder.individuals_dir.glob("*.txt")))
        expected = tiny_config.ga.population_size * \
            tiny_config.ga.generations
        assert n_individuals == expected
        assert len(recorder.population_files()) == \
            tiny_config.ga.generations
        assert (recorder.results_dir / "config.xml").exists()
        assert (recorder.results_dir / "template.s").exists()

    def test_recorded_sources_contain_template(self, tiny_config,
                                               tmp_path):
        recorder = OutputRecorder(tmp_path / "run")
        _engine(tiny_config, recorder=recorder).run(generations=1)
        any_source = next(recorder.individuals_dir.glob("*.txt"))
        text = any_source.read_text()
        assert ".loop" in text
        assert "#loop_code" not in text


class TestRenderSource:
    def test_render_source_instantiates_template(self, tiny_config,
                                                 tiny_library, rng):
        engine = _engine(tiny_config)
        ind = random_individual(tiny_library, 8, rng)
        source = engine.render_source(ind)
        assert "mov x10, #4096" in source
        assert "#loop_code" not in source
        for line in ind.render_body().splitlines():
            assert line in source


class _RejectNopScreen:
    """Deterministic screen stub: fails any NOP-bearing individual."""

    def __init__(self):
        self.calls = 0

    def screen(self, program, individual):
        self.calls += 1
        failed = any(i.name == "NOP" for i in individual.instructions)

        class Report:
            passed = not failed
        return Report()


class TestStaticScreening:
    @pytest.mark.serial_evaluation
    def test_screen_failures_take_zero_fitness_path(self, tiny_config):
        measurement = ScriptedMeasurement(ldr_pair)
        screen = _RejectNopScreen()
        engine = GeneticEngine(tiny_config, measurement, DefaultFitness(),
                               screen=screen)
        history = engine.run()
        total = tiny_config.ga.population_size * tiny_config.ga.generations
        assert screen.calls == total
        # Screened individuals never reach the measurement.
        failures = sum(g.screen_failures for g in history.generations)
        assert failures > 0
        assert measurement.calls == total - failures
        for ind in history.final_population:
            if ind.screen_failed:
                assert ind.fitness == 0.0
                assert ind.measurements == [0.0]
                assert not ind.compile_failed

    def test_screen_failures_counted_per_generation(self, tiny_config):
        engine = GeneticEngine(tiny_config, ScriptedMeasurement(ldr_pair),
                               DefaultFitness(), screen=_RejectNopScreen())
        history = engine.run()
        for stats in history.generations:
            population = [i for i in history.final_population
                          if i.generation == stats.number]
            if population:  # only the final generation is retained
                assert stats.screen_failures == \
                    sum(1 for i in population if i.screen_failed)

    def test_no_screen_means_no_screen_failures(self, tiny_config):
        history = _engine(tiny_config).run()
        assert all(g.screen_failures == 0 for g in history.generations)

    def test_static_screen_preserves_fitness_series(self, tiny_config):
        """The acceptance property: with the default error-only policy
        the real StaticScreen passes every generated individual, so a
        seeded run is bit-identical to an unscreened one."""
        unscreened = _engine(tiny_config).run()
        screened = GeneticEngine(tiny_config, ScriptedMeasurement(ldr_pair),
                                 DefaultFitness(),
                                 screen=StaticScreen()).run()

        assert screened.best_fitness_series() == \
            unscreened.best_fitness_series()
        assert screened.best_individual.genome_key() == \
            unscreened.best_individual.genome_key()
        assert all(g.screen_failures == 0 for g in screened.generations)
        total = tiny_config.ga.population_size * tiny_config.ga.generations
        assert sum(g.screened for g in screened.generations) == total
        assert sum(g.screen_failures for g in screened.generations) == 0

    def test_screen_needs_a_measurement_that_compiles(self, tiny_config):
        # The pipeline compiles every source for the measured machine, so
        # a measurement without a simulated one is refused when the
        # engine is built, screened or not.
        unsimulated = ScriptedMeasurement()
        unsimulated.target.machine = object()
        for screen in (StaticScreen(), None):
            with pytest.raises(ConfigError,
                               match="not a Measurement on a simulated"):
                GeneticEngine(tiny_config, unsimulated, DefaultFitness(),
                              screen=screen)


class TestEmptyMeasurementError:
    def test_error_names_individual_and_generation(self, tiny_config):
        with pytest.raises(ConfigError) as excinfo:
            _engine(tiny_config, ScriptedMeasurement(_no_values)).run()
        message = str(excinfo.value)
        assert "ScriptedMeasurement" in message
        assert "uid=" in message
        assert "generation" in message

    def test_partial_generation_checkpointed_before_raise(
            self, tiny_config, tmp_path):
        checkpoint = tmp_path / "partial.ckpt"
        engine = GeneticEngine(tiny_config,
                               ScriptedMeasurement(_no_values),
                               DefaultFitness(),
                               checkpoint_path=checkpoint)
        with pytest.raises(ConfigError, match="empty result list"):
            engine.run()
        assert checkpoint.exists()

    def test_no_checkpoint_path_still_raises_cleanly(self, tiny_config):
        with pytest.raises(ConfigError, match="empty result list"):
            _engine(tiny_config, ScriptedMeasurement(_no_values)).run()
