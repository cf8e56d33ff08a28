"""Semantics tests for run continuation paths: resume + recorder
interplay, seeded continuation numbering, and the virus cache key."""

import pytest

from repro.core import (GAParameters, GeneticEngine, OutputRecorder,
                        RunConfig)
from repro.core.population import load_population
from repro.experiments import GAScale, clear_virus_cache, evolve_virus
from repro.fitness import DefaultFitness

from .scripted import ScriptedMeasurement


def _config(tiny_library, tiny_template, generations=6, seed=55):
    ga = GAParameters(population_size=6, individual_size=8,
                      mutation_rate=0.1, generations=generations,
                      tournament_size=3, seed=seed)
    return RunConfig(ga=ga, library=tiny_library,
                     template_text=tiny_template.text)


class TestResumeWithRecorder:
    def test_resumed_run_extends_recorded_generations(self, tiny_library,
                                                      tiny_template,
                                                      tmp_path):
        recorder_dir = tmp_path / "run"
        checkpoint = tmp_path / "run.ckpt"

        first = GeneticEngine(
            _config(tiny_library, tiny_template),
            ScriptedMeasurement(), DefaultFitness(),
            recorder=OutputRecorder(recorder_dir),
            checkpoint_path=checkpoint)
        first.run(generations=3)

        resumed = GeneticEngine.resume(
            _config(tiny_library, tiny_template),
            ScriptedMeasurement(), DefaultFitness(), checkpoint,
            recorder=OutputRecorder(recorder_dir))
        history = resumed.run(generations=6)

        recorder = OutputRecorder(recorder_dir)
        numbers = [int(p.stem.split("_")[1])
                   for p in recorder.population_files()]
        assert numbers == [0, 1, 2, 3, 4, 5]
        assert [g.number for g in history.generations] == [3, 4, 5]

    def test_resumed_populations_carry_fresh_uids(self, tiny_library,
                                                  tiny_template, tmp_path):
        checkpoint = tmp_path / "c.ckpt"
        recorder_dir = tmp_path / "run"
        GeneticEngine(_config(tiny_library, tiny_template),
                      ScriptedMeasurement(), DefaultFitness(),
                      recorder=OutputRecorder(recorder_dir),
                      checkpoint_path=checkpoint).run(generations=3)
        resumed = GeneticEngine.resume(
            _config(tiny_library, tiny_template), ScriptedMeasurement(),
            DefaultFitness(), checkpoint,
            recorder=OutputRecorder(recorder_dir))
        resumed.run(generations=5)

        seen = set()
        recorder = OutputRecorder(recorder_dir)
        for path in recorder.population_files():
            for individual in load_population(path):
                assert individual.uid not in seen
                seen.add(individual.uid)

    def test_checkpoint_overwritten_atomically(self, tiny_library,
                                               tiny_template, tmp_path):
        checkpoint = tmp_path / "c.ckpt"
        GeneticEngine(_config(tiny_library, tiny_template),
                      ScriptedMeasurement(), DefaultFitness(),
                      checkpoint_path=checkpoint).run()
        # No stray temp file remains after the run.
        assert not checkpoint.with_suffix(".tmp").exists()
        assert checkpoint.exists()


class TestVirusCacheKey:
    def test_samples_is_part_of_the_key(self):
        clear_virus_cache()
        tiny = dict(population_size=6, generations=2, individual_size=10)
        a = evolve_virus("cortex_a7", "power", 5,
                         scale=GAScale(samples=2, **tiny))
        b = evolve_virus("cortex_a7", "power", 5,
                         scale=GAScale(samples=4, **tiny))
        assert a is not b
        clear_virus_cache()
