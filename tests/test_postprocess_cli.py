"""Tests for run post-processing and the CLI
(repro.analysis.postprocess, repro.cli)."""

import pytest

from repro.analysis.postprocess import load_run, run_statistics
from repro.cli import main
from repro.core.config import GAParameters, RunConfig
from repro.core.engine import GeneticEngine
from repro.core.errors import ConfigError
from repro.core.output import OutputRecorder
from repro.fitness.default_fitness import DefaultFitness
from repro.isa.catalogs import write_stock_config

from .scripted import ScriptedMeasurement


@pytest.fixture
def recorded_run(tiny_config, tmp_path):
    recorder = OutputRecorder(tmp_path / "run")
    engine = GeneticEngine(tiny_config, ScriptedMeasurement(),
                           DefaultFitness(), recorder=recorder)
    history = engine.run()
    return recorder.results_dir, history


class TestPostprocess:
    def test_load_run_returns_all_generations(self, recorded_run):
        results_dir, history = recorded_run
        populations = load_run(results_dir)
        assert len(populations) == len(history.generations)
        assert [p.number for p in populations] == list(
            range(len(populations)))

    def test_statistics_match_history(self, recorded_run):
        results_dir, history = recorded_run
        stats = run_statistics(results_dir)
        assert stats.best_fitness_per_generation == \
            history.best_fitness_series()
        assert stats.mean_fitness_per_generation == pytest.approx(
            history.mean_fitness_series())
        assert stats.overall_best_fitness == \
            history.best_individual.fitness

    def test_statistics_include_mix_per_generation(self, recorded_run):
        results_dir, _ = recorded_run
        stats = run_statistics(results_dir)
        assert len(stats.best_mix_per_generation) == stats.generations
        assert all(sum(m.values()) == 8
                   for m in stats.best_mix_per_generation)

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run(tmp_path)

    def test_empty_populations_dir(self, tmp_path):
        (tmp_path / "populations").mkdir()
        with pytest.raises(ConfigError):
            load_run(tmp_path)


class TestCli:
    def test_run_and_stats_round_trip(self, tmp_path, capsys):
        config = write_stock_config(tmp_path, "arm", "power",
                                    population_size=6, generations=2,
                                    individual_size=10)
        rc = main(["run", str(config), "--platform", "cortex_a7",
                   "--results", str(tmp_path / "results")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "generation" in out
        assert "best individual" in out

        rc = main(["stats", str(tmp_path / "results")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall best fitness" in out

    def test_run_quiet(self, tmp_path, capsys):
        config = write_stock_config(tmp_path, "x86", "didt",
                                    population_size=4, generations=1,
                                    individual_size=8)
        rc = main(["run", str(config), "--platform", "athlon_x4",
                   "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_generation_override(self, tmp_path, capsys):
        config = write_stock_config(tmp_path, "arm", "ipc",
                                    population_size=4, generations=9,
                                    individual_size=8)
        rc = main(["run", str(config), "--platform", "xgene2",
                   "--generations", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("generation ") == 1

    def test_seed_override_changes_outcome(self, tmp_path, capsys):
        config = write_stock_config(tmp_path, "arm", "power",
                                    population_size=4, generations=1,
                                    individual_size=8)
        def body(seed):
            main(["run", str(config), "--seed", str(seed)])
            out = capsys.readouterr().out
            return out.split("best individual")[1]
        assert body(1) != body(2)

    def test_missing_config_reports_error(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "none.xml")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_stats_on_garbage_reports_error(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path)])
        assert rc == 1

    def test_presets_lists_platforms(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("cortex_a15", "cortex_a7", "xgene2", "athlon_x4"):
            assert name in out
