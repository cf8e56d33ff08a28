"""Tests for the learned surrogate layer and the ``surrogate`` strategy.

Bottom-up: the :class:`RidgeModel` regressor (closed-form fit,
checkpointable state); the :class:`ShortProbe` batched dynamic features
and the :class:`SurrogateFeaturizer` rows; the ``surrogate`` strategy
(warm-up, learned pruning, ε exploration, memo replay, pricing
on the measured machine, stats plumbing, state round-trip); and the
acceptance experiment — equal-or-better best fitness than the plain GA
on the comparison seed at ≤ 50% of its simulated evaluations with mean
post-warm-up Spearman ≥ 0.5.
"""

import json
import math

import pytest

from repro.analysis.postprocess import run_statistics
from repro.core import GAParameters, GeneticEngine, OutputRecorder, \
    RunConfig, make_rng
from repro.core.config import SearchParameters
from repro.core.errors import ConfigError
from repro.core.output import read_stats
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.cpu.microarch import microarch_for
from repro.evaluation.probe import PROBE_FEATURE_NAMES, ShortProbe
from repro.fitness import DefaultFitness
from repro.isa import ArmAssembler
from repro.measurement import PowerMeasurement
from repro.search import STRATEGIES, SurrogateStrategy, make_strategy
from repro.surrogate import RidgeModel, SurrogateFeaturizer


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _strategy_config(tiny_library, tiny_template, generations=4, seed=3):
    ga = GAParameters(population_size=8, individual_size=8,
                      mutation_rate=0.1, generations=generations,
                      tournament_size=3, seed=seed)
    config = RunConfig(ga=ga, library=tiny_library,
                       template_text=tiny_template.text)
    config.search = SearchParameters(strategy="surrogate")
    return config


CORTEX_A15 = microarch_for("cortex_a15")


def _a15_compile():
    """A fresh cortex_a15 machine's compile, to bind or to featurize
    with."""
    return SimulatedMachine("cortex_a15").compile


def _measurement(seed=17, platform="cortex_a15"):
    machine = SimulatedMachine(platform, seed=seed, sim_cycles=600)
    target = SimulatedTarget(machine)
    target.connect()
    return PowerMeasurement(target, {"samples": "2"})


def _arm_program(body, name="probe.s"):
    source = ("mov x10, #0\n.loop\nstart:\n" + body
              + "subs x0, x0, #1\nbne start\n.endloop\n")
    return ArmAssembler().assemble(source, name=name), source


# ---------------------------------------------------------------------------
# RidgeModel
# ---------------------------------------------------------------------------

class _LightRidge(RidgeModel):
    """A near-zero penalty, so a fit reproduces exact linear data."""

    L2 = 1e-6


class TestRidgeModel:
    def test_recovers_linear_relationship(self):
        rows = [{"a": float(i), "b": float(i % 3)} for i in range(12)]
        targets = [2.0 * r["a"] - r["b"] + 5.0 for r in rows]
        model = _LightRidge()
        model.fit(rows, targets)
        for row, target in zip(rows, targets):
            assert model.predict(row) == pytest.approx(target, abs=1e-3)

    def test_missing_features_default_to_zero(self):
        rows = [{"a": 1.0}, {"a": 2.0}, {"a": 3.0, "late": 1.0},
                {"a": 4.0}]
        model = RidgeModel()
        model.fit(rows, [1.0, 2.0, 3.0, 4.0])
        # 'late' appears in one row only; the others read as 0.0 and
        # prediction accepts rows without it.
        assert math.isfinite(model.predict({"a": 2.5}))

    def test_constant_columns_are_inert(self):
        rows = [{"a": float(i), "c": 7.0} for i in range(8)]
        model = _LightRidge()
        model.fit(rows, [float(i) for i in range(8)])
        with_const = model.predict({"a": 3.0, "c": 7.0})
        without = model.predict({"a": 3.0, "c": 123.0})
        assert with_const == pytest.approx(3.0, abs=1e-3)
        # a constant column carries no weight, so its value at
        # prediction time cannot move the output
        assert with_const == pytest.approx(without)

    def test_state_round_trip(self):
        model = RidgeModel()
        rows = [{"a": float(i), "b": float(i * i)} for i in range(10)]
        model.fit(rows, [3.0 * i for i in range(10)])
        clone = RidgeModel()
        clone.load_state(model.state_dict())
        probe = {"a": 4.5, "b": 19.0}
        assert clone.predict(probe) == model.predict(probe)
        assert clone.training_size == model.training_size
        # A checkpoint from before the penalty became a constant stored
        # it (always 1.0); the stored value is ignored.
        legacy = RidgeModel()
        legacy.load_state(dict(model.state_dict(), l2=0.5))
        assert legacy.predict(probe) == model.predict(probe)
        assert legacy.state_dict() == model.state_dict()

    def test_errors(self):
        model = RidgeModel()
        with pytest.raises(ValueError, match="empty"):
            model.fit([], [])
        with pytest.raises(ValueError, match="one target per row"):
            model.fit([{"a": 1.0}], [])
        with pytest.raises(ValueError, match="before fit"):
            model.predict({"a": 1.0})


# ---------------------------------------------------------------------------
# ShortProbe + SurrogateFeaturizer
# ---------------------------------------------------------------------------

class TestShortProbe:
    def test_features_are_pure_functions_of_source(self):
        probe = ShortProbe(CORTEX_A15, cycles=400)
        p1, s1 = _arm_program("add x1, x2, x3\n", name="one.s")
        p2, s2 = _arm_program("mul x1, x2, x3\nmul x4, x1, x2\n",
                              name="two.s")
        together = probe.probe_batch([p1, p2], [s1, s2])
        alone = ShortProbe(CORTEX_A15, cycles=400).probe_batch([p1], [s1])
        assert together[0] == alone[0]
        reversed_order = probe.probe_batch([p2, p1], [s2, s1])
        assert reversed_order[1] == together[0]
        assert set(together[0]) == set(PROBE_FEATURE_NAMES)

    def test_length_mismatch_rejected(self):
        probe = ShortProbe(CORTEX_A15, cycles=400)
        program, source = _arm_program("add x1, x2, x3\n")
        with pytest.raises(ValueError, match="one source per program"):
            probe.probe_batch([program], [source, source])
        assert probe.probe_batch([], []) == []


class TestSurrogateFeaturizer:
    def test_static_rows(self, tiny_config, rng):
        from repro.core.individual import random_individual
        featurizer = SurrogateFeaturizer(tiny_config.template_text,
                                         CORTEX_A15, _a15_compile())
        individuals = [random_individual(tiny_config.library, 6, rng,
                                         uid=i) for i in range(3)]
        rows = featurizer.featurize_batch(individuals)
        assert len(rows) == 3
        for source, row in rows:
            assert "#loop_code" not in source
            assert row is not None
            assert "loop_length" in row and "ipc_upper" in row
            assert not any(name.startswith("probe_") for name in row)

    def test_probe_rows_merge_dynamic_features(self, tiny_config, rng):
        from repro.core.individual import random_individual
        featurizer = SurrogateFeaturizer(tiny_config.template_text,
                                         CORTEX_A15, _a15_compile(),
                                         probe_cycles=400)
        assert featurizer.probes
        individual = random_individual(tiny_config.library, 6, rng, uid=0)
        (_, row), = featurizer.featurize_batch([individual])
        for name in PROBE_FEATURE_NAMES:
            assert name in row


# ---------------------------------------------------------------------------
# the surrogate wrapper strategy
# ---------------------------------------------------------------------------

class TestSurrogateStrategy:
    def test_registered(self):
        assert "surrogate" in STRATEGIES

    def test_rejects_bad_params(self, tiny_library, tiny_template):
        # The former settings are class constants: a configuration
        # still carrying one, whatever its value, is refused.
        for param, value in (("epsilon", "1.5"), ("top_fraction", "0"),
                             ("l2", "0"), ("min_train", "0")):
            config = _strategy_config(tiny_library, tiny_template)
            config.search.params = {param: value}
            with pytest.raises(ConfigError, match=param):
                config.validate()

    def test_prices_and_probes_on_the_measured_machine(
            self, tiny_library, tiny_template, tmp_path):
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=2)
        measurement = _measurement(platform="cortex_a7")
        machine = measurement.target.machine
        engine = GeneticEngine(config, measurement, DefaultFitness(),
                               recorder=OutputRecorder(tmp_path / "run"))
        assert engine.strategy.arch is machine.arch
        probe = engine.strategy._featurizer._probe
        assert probe._batch.machine.arch is machine.arch
        engine.run()
        rows = list(read_stats(tmp_path / "run" / "stats.jsonl"))
        assert [row["surrogate"]["platform"] for row in rows] == \
            ["cortex_a7", "cortex_a7"]

    def test_warmup_then_learned_pruning(self, tiny_library,
                                         tiny_template):
        class StaticFeatures(SurrogateStrategy):
            PROBE_CYCLES = 0
            TOP_FRACTION = 0.5

        config = _strategy_config(tiny_library, tiny_template,
                                  generations=5)
        engine = GeneticEngine(config, _measurement(), DefaultFitness(),
                               strategy=StaticFeatures())
        history = engine.run()
        gen0 = history.generations[0].surrogate
        # Warm-up: everything simulated, model untrained, no Spearman.
        assert gen0["simulated"] == 8 and gen0["pruned"] == 0
        assert gen0["spearman"] is None
        assert gen0["training_size"] == 8
        later = history.generations[1:]
        # Once trained (8 rows after generation 0) the model prunes.
        assert any(g.surrogate["pruned"] > 0 for g in later)
        sizes = [g.surrogate["training_size"] for g in history.generations]
        assert sizes == sorted(sizes)
        for stats in later:
            if stats.surrogate["pruned"]:
                assert stats.measured == stats.surrogate["simulated"]

    def test_pruned_never_win(self, tiny_library, tiny_template):
        class TopThird(SurrogateStrategy):
            TOP_FRACTION = 0.34
            EPSILON = 0.0

        config = _strategy_config(tiny_library, tiny_template,
                                  generations=5)
        engine = GeneticEngine(config, _measurement(), DefaultFitness(),
                               strategy=TopThird())
        history = engine.run()
        assert history.best_individual.measurements
        final = history.final_population
        pruned = [i for i in final if i.pruned]
        assert pruned
        assert all(i.fitness is None and not i.measurements
                   for i in pruned)
        assert not final.fittest().pruned
        assert final.ranked()[-len(pruned):] == \
            sorted(pruned, key=lambda i: i.pruned_rank)

    def test_memo_replays_previously_simulated_genomes(
            self, tiny_library, tiny_template):
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=5)
        engine = GeneticEngine(config, _measurement(), DefaultFitness())
        history = engine.run()
        assert any(g.surrogate["replayed"] > 0
                   for g in history.generations[1:])

    def test_epsilon_exploration_is_deterministic(self, tiny_library,
                                                  tiny_template):
        class Exploring(SurrogateStrategy):
            EPSILON = 0.5
            TOP_FRACTION = 0.25

        def explored_series():
            config = _strategy_config(tiny_library, tiny_template,
                                      generations=5)
            engine = GeneticEngine(config, _measurement(),
                                   DefaultFitness(), strategy=Exploring())
            history = engine.run()
            return [g.surrogate["explored"]
                    for g in history.generations]

        first, second = explored_series(), explored_series()
        assert first == second

    def test_state_round_trip(self, tiny_config):
        strategy = make_strategy("surrogate")
        strategy.bind(tiny_config, make_rng(0),
                      iter(range(10_000)).__next__, CORTEX_A15,
                      _a15_compile(), "power")
        key = (("ADD", ("x1", "x2", "x3")),)
        strategy._memo[key] = ((1.0,), 1.0, False, False)
        strategy._feature_memo[key] = {"loop_length": 3.0}
        strategy._train_rows = [{"loop_length": float(i), "chain": 1.0}
                                for i in range(9)]
        strategy._train_targets = [float(i) for i in range(9)]
        strategy._trained_keys = {key}
        strategy._model.fit(strategy._train_rows,
                            strategy._train_targets)
        state = strategy.state_dict()

        fresh = make_strategy("surrogate")
        fresh.bind(tiny_config, make_rng(0),
                   iter(range(10_000)).__next__, CORTEX_A15,
                   _a15_compile(), "power")
        fresh.load_state(state)
        assert fresh._memo == strategy._memo
        assert fresh._feature_memo == strategy._feature_memo
        assert fresh._trained_keys == {key}
        assert fresh._model.fitted
        probe_row = {"loop_length": 4.0, "chain": 1.0}
        assert fresh._model.predict(probe_row) == \
            strategy._model.predict(probe_row)

    def test_stats_jsonl_round_trips_tolerant_readers(
            self, tiny_library, tiny_template, tmp_path):
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=4)
        engine = GeneticEngine(config, _measurement(), DefaultFitness(),
                               recorder=OutputRecorder(tmp_path / "run"))
        engine.run()
        stats_path = tmp_path / "run" / "stats.jsonl"
        rows = list(read_stats(stats_path))
        assert len(rows) == 4
        for row in rows:
            surrogate = row["surrogate"]
            assert surrogate["base"] == "genetic"
            assert {"simulated", "pruned", "replayed", "explored",
                    "training_size", "spearman"} <= set(surrogate)
        # a torn trailing line must not break the readers (S3)
        with open(stats_path, "a") as handle:
            handle.write('{"schema": 2, "truncat')
        with pytest.warns(RuntimeWarning, match="unparseable"):
            tolerant = list(read_stats(stats_path))
        assert [r["number"] for r in tolerant] == \
            [r["number"] for r in rows]
        statistics = run_statistics(tmp_path / "run")
        assert [r.get("surrogate") for r in statistics.stats_records] == \
            [r["surrogate"] for r in rows]


# ---------------------------------------------------------------------------
# acceptance: learned surrogate halves the simulation bill
# ---------------------------------------------------------------------------

class TestSurrogateAcceptance:
    def test_matches_genetic_at_half_the_simulations(
            self, a15_power_comparison):
        result = a15_power_comparison
        plain = result.best_fitness("genetic")
        learned = result.best_fitness("surrogate")
        assert learned >= plain - 1e-9
        full = result.simulated_evaluations("genetic")
        pruned = result.simulated_evaluations("surrogate")
        assert pruned <= 0.5 * full
        history = result.histories["surrogate"]
        rhos = [g.surrogate["spearman"] for g in history.generations
                if g.surrogate["spearman"] is not None]
        assert rhos and sum(rhos) / len(rhos) >= 0.5
