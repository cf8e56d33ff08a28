"""Tests for the pluggable search layer (repro.search).

The acceptance property of the refactor: the default ``genetic``
strategy is bit-identical to the pre-refactor engine (pinned by the
golden shipped-config tests at the bottom), and every strategy —
genetic, random, hill_climb, simulated_annealing — completes smoke runs
through both executor backends with identical results, survives a
mid-run checkpoint/resume with its state intact, and is name-resolvable
from the config, the CLI and the lint, all against the same registries.
"""

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import (GAParameters, GeneticEngine, OutputRecorder,
                        RunConfig, make_rng)
from repro.core.config import (SearchParameters, config_to_xml,
                               parse_config_text)
from repro.core.errors import ConfigError
from repro.core.individual import Individual
from repro.core.population import load_population
from repro.cpu import MemoryHierarchy, SimulatedMachine, SimulatedTarget
from repro.evaluation import ProcessPoolBackend, SerialBackend
from repro.fitness import DefaultFitness
from repro.measurement import CacheMissMeasurement, PowerMeasurement
from repro.search import (CROSSOVER_OPERATORS, SELECTION_OPERATORS,
                          STRATEGIES, SimulatedAnnealingStrategy,
                          SurrogateStrategy, make_strategy)
from repro.search.operators import rank_select, roulette_select
from repro.search.registry import Registry, suggest
from repro.service import execute_run
from repro.staticcheck import lint_config, lint_config_file, lint_search
from repro.store import RunStore

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

ALL_STRATEGIES = ("genetic", "random", "hill_climb",
                  "simulated_annealing", "static_rank", "surrogate")


def _power_measurement(seed=99, cls=PowerMeasurement):
    machine = SimulatedMachine("cortex_a15", seed=seed, sim_cycles=600)
    target = SimulatedTarget(machine)
    target.connect()
    return cls(target, {"samples": "2"})


def _config(tiny_library, tiny_template, generations=3, seed=99,
            strategy=None):
    ga = GAParameters(population_size=6, individual_size=8,
                      mutation_rate=0.1, generations=generations,
                      tournament_size=3, seed=seed)
    config = RunConfig(ga=ga, library=tiny_library,
                       template_text=tiny_template.text)
    if strategy is not None:
        config.search = SearchParameters(strategy=strategy)
    return config


def _with_params(config, params):
    """``config`` as pickled while strategies took parameters: its
    ``SearchParameters`` still carries them (a stored service row)."""
    config.search.params = dict(params)
    return config


def _population_signature(path):
    """Everything a population binary records, minus pickle framing.

    Split-vs-full runs produce semantically identical populations, but
    a resumed run breeds from *unpickled* parents, so the shared-object
    topology inside later pickles differs; comparing the recorded fields
    instead of raw bytes pins the actual contract.
    """
    return [(i.uid, i.parent_ids, i.genome_key(), i.fitness,
             tuple(i.measurements), i.generation, i.compile_failed,
             i.screen_failed) for i in load_population(path)]


def _scored(fitnesses, start=0):
    """Evaluated genome-less individuals with the given fitness values,
    numbered from ``start``."""
    individuals = []
    for uid, fitness in enumerate(fitnesses, start=start):
        individual = Individual([], uid=uid)
        if fitness is not None:
            individual.record_evaluation([fitness], fitness)
        individuals.append(individual)
    return individuals


def _pruned(uid, rank):
    """A genome-less individual pruned at ``rank`` in its ranker's
    order."""
    individual = Individual([], uid=uid)
    individual.mark_pruned(rank)
    return individual


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("a", object())
        with pytest.raises(ValueError, match="duplicate widget"):
            registry.register("a", object())

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("spin")
        def spin():
            return 1

        assert registry.get("spin") is spin
        assert "spin" in registry
        assert registry.names() == ("spin",)

    def test_unknown_name_lists_choices_and_suggestion(self):
        registry = Registry("parent_selection_method")
        registry.register("tournament", object())
        registry.register("roulette", object())
        with pytest.raises(ConfigError) as excinfo:
            registry.get("tournement")
        message = str(excinfo.value)
        assert "valid choices: tournament, roulette" in message
        assert "did you mean 'tournament'?" in message

    def test_no_suggestion_when_nothing_is_near(self):
        assert suggest("zzzzzz", ["tournament", "roulette"]) is None
        registry = Registry("thing")
        registry.register("tournament", object())
        assert "did you mean" not in registry.unknown_message("zzzzzz")

    def test_builtin_registry_contents(self):
        assert SELECTION_OPERATORS.names() == ("tournament", "roulette",
                                               "rank")
        assert CROSSOVER_OPERATORS.names() == ("one_point", "uniform")
        assert STRATEGIES.names() == ALL_STRATEGIES


# ---------------------------------------------------------------------------
# selection operators
# ---------------------------------------------------------------------------

class TestRouletteSelection:
    def test_prefers_high_fitness(self):
        individuals = _scored([1.0, 1.0, 18.0])
        rng = make_rng(3)
        picks = [roulette_select(individuals, rng) for _ in range(300)]
        share = sum(1 for p in picks if p.uid == 2) / len(picks)
        assert share > 0.75

    def test_zero_total_degrades_to_uniform(self):
        individuals = _scored([0.0, 0.0, 0.0])
        rng = make_rng(5)
        picks = {roulette_select(individuals, rng).uid
                 for _ in range(200)}
        assert picks == {0, 1, 2}

    def test_negative_fitness_rejected(self):
        individuals = _scored([1.0, -0.5])
        with pytest.raises(ConfigError, match="non-negative"):
            roulette_select(individuals, make_rng(1))

    def test_unevaluated_individual_rejected(self):
        individuals = _scored([1.0, None])
        with pytest.raises(ConfigError, match="has not been evaluated"):
            roulette_select(individuals, make_rng(1))

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigError, match="empty population"):
            roulette_select([], make_rng(1))

    def test_pruned_never_enter_the_wheel(self):
        individuals = _scored([0.5, 2.0]) + [_pruned(2, 0), _pruned(3, 1)]
        rng = make_rng(4)
        picks = {roulette_select(individuals, rng).uid
                 for _ in range(200)}
        assert picks == {0, 1}

    def test_zero_wheel_picks_uniformly_among_scored(self):
        individuals = _scored([0.0, 0.0]) + [_pruned(2, 0)]
        rng = make_rng(6)
        picks = {roulette_select(individuals, rng).uid
                 for _ in range(200)}
        assert picks == {0, 1}


class TestRankSelection:
    def test_prefers_high_rank(self):
        # Rank weights are 1:2:3 regardless of the (huge) fitness gap,
        # so the best is picked ~50% of the time, not ~100%.
        individuals = _scored([1.0, 2.0, 1000.0])
        rng = make_rng(9)
        picks = [rank_select(individuals, rng) for _ in range(600)]
        best_share = sum(1 for p in picks if p.uid == 2) / len(picks)
        worst_share = sum(1 for p in picks if p.uid == 0) / len(picks)
        assert 0.42 < best_share < 0.58
        assert 0.10 < worst_share < 0.24

    def test_deterministic_under_seed(self):
        individuals = _scored([3.0, 1.0, 2.0, 2.0])
        first = [rank_select(individuals, make_rng(11)).uid
                 for _ in range(1)]
        second = [rank_select(individuals, make_rng(11)).uid
                  for _ in range(1)]
        assert first == second

    def test_unevaluated_individual_rejected(self):
        individuals = _scored([None])
        with pytest.raises(ConfigError, match="has not been evaluated"):
            rank_select(individuals, make_rng(1))

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigError, match="empty population"):
            rank_select([], make_rng(1))

    def test_pruned_take_the_lowest_ranks_in_ranker_order(self):
        # Weights 1..4 ascending: pruned rank 1, pruned rank 0, then the
        # scored individuals by fitness, zero fitness included.
        individuals = [_pruned(0, 1)] + _scored([3.0, 0.0], start=1) + \
            [_pruned(3, 0)]
        rng = make_rng(8)
        picks = [rank_select(individuals, rng).uid for _ in range(3000)]
        shares = [picks.count(uid) / len(picks) for uid in range(4)]
        assert shares[0] < shares[3] < shares[2] < shares[1]


# ---------------------------------------------------------------------------
# strategy construction and parameters
# ---------------------------------------------------------------------------

class TestStrategyParams:
    def test_unknown_strategy_suggests_nearest(self):
        with pytest.raises(ConfigError) as excinfo:
            make_strategy("genetik")
        message = str(excinfo.value)
        assert "unknown search strategy 'genetik'" in message
        assert "did you mean 'genetic'?" in message

    # The annealing schedule is three class constants; every value the
    # three former parameters took, valid or not, is refused.
    @pytest.mark.parametrize("params", [
        {"cooling": "1.5"},
        {"cooling": "0"},
        {"initial_temperature": "-1"},
        {"initial_temperature": "warm"},
        {"min_temperature": "0"},
    ])
    def test_bad_annealing_values_rejected(self, tmp_path, params):
        (param, value), = params.items()
        xml = _minimal_xml(
            tmp_path, extra=f'<search strategy="simulated_annealing" '
                            f'{param}="{value}"/>')
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(xml, base_dir=tmp_path)
        assert excinfo.value.diagnostic_code == "SC210"
        assert _refusal(param) in str(excinfo.value)

    def test_annealing_defaults(self):
        strategy = make_strategy("simulated_annealing")
        assert strategy._temperature == 1.0
        assert SimulatedAnnealingStrategy.INITIAL_TEMPERATURE == 1.0
        assert SimulatedAnnealingStrategy.COOLING == pytest.approx(0.95)
        assert SimulatedAnnealingStrategy.MIN_TEMPERATURE == \
            pytest.approx(1e-3)

    def test_unbound_strategy_cannot_allocate_uids(self):
        with pytest.raises(ConfigError, match="not bound"):
            make_strategy("random").take_uid()

    def test_stateless_strategy_rejects_foreign_state(self):
        with pytest.raises(ConfigError, match="stateless"):
            make_strategy("random").load_state({"temperature": 2.0})


class TestEngineStrategySelection:
    def test_default_is_genetic(self, tiny_config):
        engine = GeneticEngine(tiny_config, _power_measurement(),
                               DefaultFitness())
        assert engine.strategy.name == "genetic"
        engine.evaluator.close()

    def test_config_search_block_selects_strategy(self, tiny_library,
                                                  tiny_template):
        config = _config(tiny_library, tiny_template,
                         strategy="static_rank")
        engine = GeneticEngine(config, _power_measurement(),
                               DefaultFitness())
        assert engine.strategy.name == "static_rank"
        assert engine.strategy.metric == "power"
        engine.evaluator.close()

    def test_explicit_name_overrides_config(self, tiny_library,
                                            tiny_template):
        config = _config(tiny_library, tiny_template,
                         strategy="static_rank")
        engine = GeneticEngine(config, _power_measurement(),
                               DefaultFitness(), strategy="surrogate")
        assert engine.strategy.name == "surrogate"
        engine.evaluator.close()

    def test_strategy_instance_used_verbatim(self, tiny_config):
        strategy = make_strategy("random")
        engine = GeneticEngine(tiny_config, _power_measurement(),
                               DefaultFitness(), strategy=strategy)
        assert engine.strategy is strategy
        engine.evaluator.close()

    # The pruning wrappers price on the measured machine; a measurement
    # without a simulated one is refused before any strategy is bound.
    @pytest.mark.parametrize("name", ["static_rank", "surrogate"])
    def test_pruning_needs_a_simulated_machine(self, tiny_config, name):
        strategy = make_strategy(name)
        measurement = _power_measurement()
        measurement.target.machine = object()
        with pytest.raises(ConfigError,
                           match="not a Measurement on a simulated"):
            GeneticEngine(tiny_config, measurement, DefaultFitness(),
                          strategy=strategy)
        assert strategy.arch is None


# ---------------------------------------------------------------------------
# strategy x backend smoke + equivalence
# ---------------------------------------------------------------------------

class TestStrategyBackendEquivalence:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_serial_and_pool_identical(self, tiny_library, tiny_template,
                                       name):
        def run(backend):
            config = _config(tiny_library, tiny_template, strategy=name)
            engine = GeneticEngine(config, _power_measurement(),
                                   DefaultFitness(), backend=backend)
            return engine.run()

        serial = run(SerialBackend())
        pooled = run(ProcessPoolBackend(2))
        assert serial.generations == pooled.generations
        assert len(serial.generations) == 3
        assert all(g.strategy == name for g in serial.generations)
        assert serial.best_individual is not None
        assert serial.best_individual.genome_key() == \
            pooled.best_individual.genome_key()
        assert [i.genome_key() for i in serial.final_population] == \
            [i.genome_key() for i in pooled.final_population]

    def test_strategies_actually_diverge(self, tiny_library,
                                         tiny_template):
        # Same seed, different strategies: generation 0 is identical,
        # later populations are not (the strategy is the only variable).
        def final_genomes(name):
            config = _config(tiny_library, tiny_template, strategy=name)
            engine = GeneticEngine(config, _power_measurement(),
                                   DefaultFitness(),
                                   backend=SerialBackend())
            history = engine.run()
            return [i.genome_key() for i in history.final_population]

        assert final_genomes("genetic") != final_genomes("random")


# ---------------------------------------------------------------------------
# checkpoint round-trips
# ---------------------------------------------------------------------------

class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_run_matches_full_run(self, tiny_library, tiny_template,
                                        tmp_path, name, workers):
        def engine(results, checkpoint=None):
            config = _config(tiny_library, tiny_template, generations=6,
                             strategy=name)
            return GeneticEngine(config, _power_measurement(),
                                 DefaultFitness(),
                                 recorder=OutputRecorder(tmp_path / results),
                                 checkpoint_path=checkpoint,
                                 workers=workers)

        full_history = engine("full").run()

        checkpoint = tmp_path / "run.ckpt"
        first = engine("split", checkpoint)
        first_history = first.run(generations=3)
        config = _config(tiny_library, tiny_template, generations=6,
                         strategy=name)
        resumed = GeneticEngine.resume(
            config, _power_measurement(), DefaultFitness(), checkpoint,
            recorder=OutputRecorder(tmp_path / "split"), workers=workers)
        resumed_history = resumed.run(generations=6)

        assert resumed.strategy.name == name
        assert [g.number for g in resumed_history.generations] == [3, 4, 5]
        assert full_history.generations == \
            first_history.generations + resumed_history.generations

        full_files = OutputRecorder(tmp_path / "full").population_files()
        split_files = OutputRecorder(tmp_path / "split").population_files()
        assert [p.name for p in full_files] == \
            [p.name for p in split_files]
        assert len(full_files) == 6
        for a, b in zip(full_files, split_files):
            assert _population_signature(a) == _population_signature(b)
        # Up to the checkpointed generation both engines ran from
        # scratch, so those binaries are bit-identical too.
        for a, b in zip(full_files[:3], split_files[:3]):
            assert a.read_bytes() == b.read_bytes()

        # stats.jsonl matches line for line once the observability
        # fields (wall-clock timings, cache counters) are dropped.
        observability = {"timings", "cache_hits", "measured", "screened",
                         "compile_cache_hits", "compile_cache_misses",
                         "schedule_memo_hits", "schedule_memo_misses"}

        def stats_rows(run):
            lines = (tmp_path / run / "stats.jsonl").read_text() \
                .strip().splitlines()
            return [{key: value
                     for key, value in json.loads(line).items()
                     if key not in observability} for line in lines]

        assert stats_rows("full") == stats_rows("split")

    def test_stats_jsonl_carries_strategy_and_matches_split(
            self, tiny_library, tiny_template, tmp_path):
        config = _config(tiny_library, tiny_template, generations=4,
                         strategy="random")
        GeneticEngine(config, _power_measurement(), DefaultFitness(),
                      recorder=OutputRecorder(tmp_path / "run"),
                      backend=SerialBackend()).run()
        lines = (tmp_path / "run" / "stats.jsonl").read_text() \
            .strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["number"] for row in rows] == [0, 1, 2, 3]
        assert all(row["strategy"] == "random" for row in rows)


class TestStrategyStateResume:
    def test_annealer_temperature_survives_resume(self, tiny_library,
                                                  tiny_template,
                                                  tmp_path):
        class FastCooling(SimulatedAnnealingStrategy):
            INITIAL_TEMPERATURE = 2.0
            COOLING = 0.5

        checkpoint = tmp_path / "sa.ckpt"
        config = _config(tiny_library, tiny_template, generations=6,
                         strategy="simulated_annealing")
        first = GeneticEngine(config, _power_measurement(),
                              DefaultFitness(),
                              checkpoint_path=checkpoint,
                              strategy=FastCooling())
        first.run(generations=3)
        # Three generations of cooling: 2.0 -> 1.0 -> 0.5 -> 0.25.
        assert first.strategy._temperature == pytest.approx(0.25)

        resumed = GeneticEngine.resume(config, _power_measurement(),
                                       DefaultFitness(), checkpoint)
        assert resumed.strategy._temperature == pytest.approx(0.25)
        assert resumed.strategy._current is not None
        assert resumed.strategy._current.genome_key() == \
            first.strategy._current.genome_key()

    def test_hill_climb_incumbent_survives_resume(self, tiny_library,
                                                  tiny_template,
                                                  tmp_path):
        checkpoint = tmp_path / "hc.ckpt"
        config = _config(tiny_library, tiny_template, generations=6,
                         strategy="hill_climb")
        first = GeneticEngine(config, _power_measurement(),
                              DefaultFitness(),
                              checkpoint_path=checkpoint)
        first.run(generations=3)
        incumbent = first.strategy._current
        assert incumbent is not None

        resumed = GeneticEngine.resume(config, _power_measurement(),
                                       DefaultFitness(), checkpoint)
        assert resumed.strategy._current.uid == incumbent.uid
        assert resumed.strategy._current.genome_key() == \
            incumbent.genome_key()

    def test_annealer_rejects_corrupt_state(self):
        strategy = make_strategy("simulated_annealing")
        with pytest.raises(ConfigError, match="unexpected key"):
            strategy.load_state({"pressure": 3.0})
        with pytest.raises(ConfigError, match="non-positive temperature"):
            strategy.load_state({"temperature": -1.0})
        with pytest.raises(ConfigError, match="not an Individual"):
            strategy.load_state({"current": "nope"})

    def test_hill_climb_rejects_corrupt_state(self):
        strategy = make_strategy("hill_climb")
        with pytest.raises(ConfigError, match="unexpected key"):
            strategy.load_state({"temperature": 1.0})
        with pytest.raises(ConfigError, match="not an Individual"):
            strategy.load_state({"current": 42})


class TestPruningSelectionMatrix:
    """Both pruning strategies under every selection operator run, and
    their statistics count only real fitnesses."""

    @pytest.mark.parametrize("selection", ["tournament", "roulette",
                                           "rank"])
    @pytest.mark.parametrize("name", ["static_rank", "surrogate"])
    def test_run_completes_with_honest_statistics(
            self, tiny_library, tiny_template, tmp_path, name, selection):
        # Both strategies prune from generation 1 on, so generation 2 is
        # bred from a population holding pruned individuals: the
        # surrogate trains on generation 0 alone, and a high mutation
        # rate keeps the offspring fresh.
        class EarlySurrogate(SurrogateStrategy):
            MIN_TRAIN = 6

        strategy = EarlySurrogate() if name == "surrogate" \
            else make_strategy(name)
        config = _config(tiny_library, tiny_template, generations=3,
                         strategy=name)
        config.ga.parent_selection_method = selection
        config.ga.mutation_rate = 0.5
        recorder = OutputRecorder(tmp_path / "run")
        history = GeneticEngine(config, _power_measurement(),
                                DefaultFitness(), recorder=recorder,
                                strategy=strategy).run()
        assert len(history.generations) == 3
        assert all(g.surrogate["pruned"] for g in history.generations[1:])
        assert history.best_individual.measurements
        files = recorder.population_files()
        assert len(files) == 3
        for stats, path in zip(history.generations, files):
            fitnesses = [i.fitness for i in load_population(path)
                         if i.fitness is not None]
            assert min(fitnesses) >= 0.0
            total = 0.0
            for fitness in fitnesses:
                total += fitness
            assert stats.mean_fitness == total / len(fitnesses)


# ---------------------------------------------------------------------------
# checkpoint versioning and migration
# ---------------------------------------------------------------------------

def _rewrite_checkpoint(path, **changes):
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    removals = [key for key, value in changes.items() if value is None]
    for key in removals:
        payload.pop(key, None)
        changes.pop(key)
    payload.update(changes)
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=4)
    return payload


class TestCheckpointMigration:
    def _checkpointed_run(self, tiny_library, tiny_template, tmp_path,
                          strategy="genetic"):
        checkpoint = tmp_path / "run.ckpt"
        config = _config(tiny_library, tiny_template, generations=6,
                         strategy=strategy)
        GeneticEngine(config, _power_measurement(), DefaultFitness(),
                      checkpoint_path=checkpoint).run(generations=3)
        return config, checkpoint

    def test_v1_checkpoint_migrates_to_genetic(self, tiny_library,
                                               tiny_template, tmp_path):
        config, checkpoint = self._checkpointed_run(
            tiny_library, tiny_template, tmp_path)
        full_history = GeneticEngine(
            _config(tiny_library, tiny_template, generations=6),
            _power_measurement(), DefaultFitness()).run()

        _rewrite_checkpoint(checkpoint, version=1, strategy=None,
                            strategy_state=None)
        resumed = GeneticEngine.resume(config, _power_measurement(),
                                       DefaultFitness(), checkpoint)
        assert resumed.strategy.name == "genetic"
        history = resumed.run(generations=6)
        assert history.generations == full_history.generations[3:]

    def test_v1_checkpoint_refuses_other_strategies(self, tiny_library,
                                                    tiny_template,
                                                    tmp_path):
        _, checkpoint = self._checkpointed_run(tiny_library,
                                               tiny_template, tmp_path)
        _rewrite_checkpoint(checkpoint, version=1, strategy=None,
                            strategy_state=None)
        config = _config(tiny_library, tiny_template, generations=6)
        with pytest.raises(ConfigError) as excinfo:
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), checkpoint,
                                 strategy="random")
        message = str(excinfo.value)
        assert "'genetic'" in message and "'random'" in message

    def test_v2_strategy_mismatch_names_both(self, tiny_library,
                                             tiny_template, tmp_path):
        _, checkpoint = self._checkpointed_run(
            tiny_library, tiny_template, tmp_path, strategy="random")
        config = _config(tiny_library, tiny_template, generations=6)
        with pytest.raises(ConfigError) as excinfo:
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), checkpoint)
        message = str(excinfo.value)
        assert "written by search strategy 'random'" in message
        assert "--strategy random" in message

    def test_unsupported_version_rejected(self, tiny_library,
                                          tiny_template, tmp_path):
        config, checkpoint = self._checkpointed_run(
            tiny_library, tiny_template, tmp_path)
        _rewrite_checkpoint(checkpoint, version=3)
        with pytest.raises(ConfigError, match="unsupported version 3"):
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), checkpoint)

    def test_foreign_state_in_checkpoint_rejected(self, tiny_library,
                                                  tiny_template,
                                                  tmp_path):
        config, checkpoint = self._checkpointed_run(
            tiny_library, tiny_template, tmp_path, strategy="random")
        _rewrite_checkpoint(checkpoint,
                            strategy_state={"temperature": 1.0})
        with pytest.raises(ConfigError, match="stateless"):
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), checkpoint,
                                 strategy="random")

    def test_non_checkpoint_file_rejected(self, tiny_library,
                                          tiny_template, tmp_path):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(pickle.dumps({"hello": "world"}))
        config = _config(tiny_library, tiny_template)
        with pytest.raises(ConfigError, match="not a checkpoint"):
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), bogus)


class TestLegacyPruningCheckpoints:
    """Which pruning checkpoints of earlier versions resume.

    ``tests/data/legacy_<name>.ckpt`` are v2 checkpoints written while
    pruned offspring still carried placeholder fitnesses below a
    ``floor`` and their uids were listed under ``pruned_uids``: the
    ``_config`` tiny search (6 generations, seed 99) stopped after
    generation 2, in which the strategy pruned.  Checkpoints written
    while the ranker wrapped any base strategy carry that base's state
    under ``base_state``, empty for the GA.
    """

    @pytest.mark.parametrize("name", ["static_rank", "surrogate"])
    def test_placeholder_checkpoints_refused(self, tiny_library,
                                             tiny_template, tmp_path, name):
        checkpoint = tmp_path / "legacy.ckpt"
        shutil.copyfile(DATA / f"legacy_{name}.ckpt", checkpoint)
        payload = pickle.loads(checkpoint.read_bytes())
        assert payload["strategy_state"]["pruned_uids"]

        config = _config(tiny_library, tiny_template, generations=6,
                         strategy=name)
        with pytest.raises(ConfigError, match="'pruned_uids'"):
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), checkpoint)

    @pytest.mark.parametrize("name", ["static_rank", "surrogate"])
    def test_wrapper_layout_checkpoints_resume(self, tiny_library,
                                               tiny_template, tmp_path,
                                               name):
        config = _config(tiny_library, tiny_template, generations=6,
                         strategy=name)
        full = GeneticEngine(config, _power_measurement(),
                             DefaultFitness()).run()
        checkpoint = tmp_path / "run.ckpt"
        GeneticEngine(config, _power_measurement(), DefaultFitness(),
                      checkpoint_path=checkpoint).run(generations=3)
        payload = pickle.loads(checkpoint.read_bytes())
        _rewrite_checkpoint(checkpoint, strategy_state={
            **payload["strategy_state"], "base_state": {}})

        resumed = GeneticEngine.resume(config, _power_measurement(),
                                       DefaultFitness(), checkpoint)
        history = resumed.run(generations=6)
        assert history.best_fitness_series() == \
            full.best_fitness_series()[3:]
        assert history.generations == full.generations[3:]
        assert [g.surrogate for g in history.generations] == \
            [g.surrogate for g in full.generations[3:]]

        # A wrapped base other than the GA left state of its own.
        _rewrite_checkpoint(checkpoint, strategy_state={
            **payload["strategy_state"],
            "base_state": {"current": None, "temperature": 1.0}})
        with pytest.raises(ConfigError, match="'base_state'"):
            GeneticEngine.resume(config, _power_measurement(),
                                 DefaultFitness(), checkpoint)

    def test_score_memo_checkpoints_resume(self, tiny_library,
                                           tiny_template, tmp_path):
        # static_rank checkpoints once carried a per-genome score memo,
        # priced by the <search metric> (ipc unless set) whatever the
        # measurement.  A resumed power search ignores it and ranks by
        # the measurement's metric, so it matches an uninterrupted run.
        config = _config(tiny_library, tiny_template, generations=6,
                         strategy="static_rank")
        full = GeneticEngine(config, _power_measurement(),
                             DefaultFitness()).run()
        checkpoint = tmp_path / "run.ckpt"
        GeneticEngine(config, _power_measurement(), DefaultFitness(),
                      checkpoint_path=checkpoint).run(generations=3)
        payload = pickle.loads(checkpoint.read_bytes())
        score_memo = {individual.genome_key(): -float(individual.uid)
                      for individual in payload["population"]}
        _rewrite_checkpoint(checkpoint, strategy_state={
            **payload["strategy_state"], "score_memo": score_memo})

        resumed = GeneticEngine.resume(config, _power_measurement(),
                                       DefaultFitness(), checkpoint)
        assert "score_memo" not in resumed.strategy.state_dict()
        history = resumed.run(generations=6)
        assert history.generations == full.generations[3:]
        assert [g.surrogate for g in history.generations] == \
            [g.surrogate for g in full.generations[3:]]


# ---------------------------------------------------------------------------
# <search> configuration block
# ---------------------------------------------------------------------------

def _minimal_xml(tmp_path, extra=""):
    (tmp_path / "template.s").write_text(".loop\n#loop_code\n.endloop\n")
    return f"""
<gest_config>
  <ga population_size="6" individual_size="8" generations="3" seed="1"/>
  <paths results_dir="results" template="template.s"/>
  {extra}
  <operands>
    <operand id="dst" type="register" values="x1 x2"/>
  </operands>
  <instructions>
    <instruction name="ADD" num_of_operands="2" operand1="dst"
                 operand2="dst" format="add op1, op1, op2"
                 type="int_short"/>
  </instructions>
</gest_config>
"""


class TestSearchConfigBlock:
    def test_absent_block_defaults_to_genetic(self, tmp_path):
        config = parse_config_text(_minimal_xml(tmp_path),
                                   base_dir=tmp_path)
        assert config.search.strategy == "genetic"

    def test_strategy_and_params_parsed(self, tmp_path):
        xml = _minimal_xml(tmp_path,
                           extra='<search strategy="static_rank"/>')
        config = parse_config_text(xml, base_dir=tmp_path)
        assert config.search == SearchParameters(strategy="static_rank")
        # A strategy takes no parameters; the one static_rank took is
        # now the measurement's metric.
        xml = _minimal_xml(
            tmp_path,
            extra='<search strategy="static_rank" metric="power"/>')
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(xml, base_dir=tmp_path)
        assert _refusal("metric") in str(excinfo.value)

    def test_unknown_strategy_rejected_with_suggestion(self, tmp_path):
        xml = _minimal_xml(
            tmp_path, extra='<search strategy="simulated_anealing"/>')
        with pytest.raises(ConfigError,
                           match="did you mean 'simulated_annealing'"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_bad_param_value_rejected(self, tmp_path):
        xml = _minimal_xml(
            tmp_path,
            extra='<search strategy="simulated_annealing" cooling="2"/>')
        with pytest.raises(ConfigError, match="does not accept "
                                              r"parameter\(s\) cooling"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_round_trip_through_xml(self, tmp_path, tiny_library,
                                    tiny_template):
        config = _config(tiny_library, tiny_template,
                         strategy="static_rank")
        xml = config_to_xml(config, template_filename="template.s",
                            results_dir="results")
        assert '<search strategy="static_rank" />' in xml
        (tmp_path / "template.s").write_text(config.template_text)
        reparsed = parse_config_text(xml, base_dir=tmp_path)
        assert reparsed.search == config.search


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCliStrategy:
    def test_strategy_flag_selects_and_reports(self, tmp_path, capsys):
        from repro.isa.catalogs import write_stock_config
        config = write_stock_config(tmp_path, "arm", "power",
                                    population_size=4, generations=2,
                                    individual_size=8)
        rc = main(["run", str(config), "--platform", "cortex_a7",
                   "--strategy", "random",
                   "--results", str(tmp_path / "results")])
        assert rc == 0
        assert "search strategy: random" in capsys.readouterr().out
        lines = (tmp_path / "results" / "stats.jsonl").read_text() \
            .strip().splitlines()
        assert all(json.loads(line)["strategy"] == "random"
                   for line in lines)

    def test_unknown_strategy_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "config.xml", "--strategy", "tabu"])


# ---------------------------------------------------------------------------
# lint (SC209 / SC210)
# ---------------------------------------------------------------------------

class TestLintSearch:
    def test_clean_config_has_no_findings(self, tiny_library,
                                          tiny_template):
        config = _config(tiny_library, tiny_template,
                         strategy="static_rank")
        assert lint_search(config) == []

    def test_unknown_selection_is_sc209(self, tiny_library,
                                        tiny_template):
        config = _config(tiny_library, tiny_template)
        config.ga.parent_selection_method = "lottery"
        diagnostics = lint_search(config)
        assert [d.code for d in diagnostics] == ["SC209"]
        assert "tournament" in diagnostics[0].message

    def test_unknown_crossover_is_sc209(self, tiny_library,
                                        tiny_template):
        config = _config(tiny_library, tiny_template)
        config.ga.crossover_operator = "two_point"
        diagnostics = lint_search(config)
        assert [d.code for d in diagnostics] == ["SC209"]
        assert "one_point" in diagnostics[0].message

    def test_unknown_strategy_is_sc210_with_suggestion(self, tiny_library,
                                                       tiny_template):
        config = _config(tiny_library, tiny_template)
        config.search = SearchParameters(strategy="simulated_anealing")
        diagnostics = lint_search(config)
        assert [d.code for d in diagnostics] == ["SC210"]
        assert "did you mean 'simulated_annealing'?" in \
            diagnostics[0].message

    # GA operators are named only in the <ga> block: a <search>
    # parameter that re-spells one is refused like any other strategy
    # parameter.
    # The pruning strategies price on the measured machine and have no
    # residual boost, so `platform` and `boost` are refused the same way.
    @pytest.mark.parametrize("strategy,param,value", [
        ("genetic", "selection", "rank"),
        ("genetic", "crossover", "uniform"),
        ("genetic", "mutation", "operand_only"),
        ("genetic", "replacement", "generational"),
        ("hill_climb", "mutation", "operand_only"),
        ("simulated_annealing", "mutation", "instruction_only"),
        ("static_rank", "platform", "cortex_a15"),
        ("surrogate", "platform", "cortex_a15"),
        ("surrogate", "boost", "2"),
    ], ids=["genetic-selection", "genetic-crossover", "genetic-mutation",
            "genetic-replacement", "hill_climb-mutation",
            "simulated_annealing-mutation", "static_rank-platform",
            "surrogate-platform", "surrogate-boost"])
    def test_operator_param_on_search_is_sc210(
            self, tmp_path, tiny_library, tiny_template, strategy, param,
            value):
        xml = _minimal_xml(
            tmp_path,
            extra=f'<search strategy="{strategy}" {param}="{value}"/>')
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(xml, base_dir=tmp_path)
        assert excinfo.value.diagnostic_code == "SC210"

        config = _with_params(_config(tiny_library, tiny_template,
                                      strategy=strategy), {param: value})
        diagnostics = lint_config(config)
        assert [d.code for d in diagnostics] == ["SC210"]
        assert _refusal(param) in diagnostics[0].message

    def test_invalid_param_value_is_sc210(self, tiny_library,
                                          tiny_template):
        config = _with_params(_config(tiny_library, tiny_template,
                                      strategy="simulated_annealing"),
                              {"cooling": "7"})
        diagnostics = lint_search(config)
        assert [d.code for d in diagnostics] == ["SC210"]

    def test_lint_config_includes_search_findings(self, tiny_library,
                                                  tiny_template):
        config = _config(tiny_library, tiny_template)
        config.search = SearchParameters(strategy="tabu")
        codes = [d.code for d in lint_config(config)]
        assert "SC210" in codes

    # Search-layer names are also rejected at *parse* time (the config
    # refuses to construct), so the file-level lint never reaches
    # lint_search for them — the ConfigError's diagnostic_code must
    # carry the dedicated code through instead of the generic SC201.
    def test_file_lint_keeps_sc210_for_parse_rejected_strategy(
            self, tmp_path):
        xml = _minimal_xml(
            tmp_path, extra='<search strategy="simulated_anealing"/>')
        (tmp_path / "config.xml").write_text(xml)
        diagnostics = lint_config_file(tmp_path / "config.xml")
        assert [d.code for d in diagnostics] == ["SC210"]
        assert "did you mean 'simulated_annealing'?" in \
            diagnostics[0].message

    def test_file_lint_keeps_sc209_for_parse_rejected_operator(
            self, tmp_path):
        xml = _minimal_xml(tmp_path).replace(
            '<ga ', '<ga crossover_operator="two_point" ', 1)
        (tmp_path / "config.xml").write_text(xml)
        diagnostics = lint_config_file(tmp_path / "config.xml")
        assert [d.code for d in diagnostics] == ["SC209"]
        assert "one_point" in diagnostics[0].message

    def test_file_lint_keeps_sc210_for_parse_rejected_param(
            self, tmp_path):
        xml = _minimal_xml(
            tmp_path,
            extra='<search strategy="simulated_annealing" cooling="7"/>')
        (tmp_path / "config.xml").write_text(xml)
        diagnostics = lint_config_file(tmp_path / "config.xml")
        assert [d.code for d in diagnostics] == ["SC210"]


#: Every strategy setting that became a class constant, and
#: ``static_rank``'s ``metric``, now the measurement's, with a value
#: the strategy once accepted.
REMOVED_PARAMS = [
    ("static_rank", "base", "genetic"),
    ("static_rank", "top_fraction", "0.5"),
    ("static_rank", "metric", "power"),
    ("surrogate", "base", "genetic"),
    ("surrogate", "top_fraction", "0.4"),
    ("surrogate", "epsilon", "0.1"),
    ("surrogate", "probe", "0"),
    ("surrogate", "l2", "1.0"),
    ("surrogate", "min_train", "8"),
    ("simulated_annealing", "initial_temperature", "1.0"),
    ("simulated_annealing", "cooling", "0.95"),
    ("simulated_annealing", "min_temperature", "0.001"),
]

removed_params = pytest.mark.parametrize(
    "strategy,param,value", REMOVED_PARAMS,
    ids=[f"{strategy}-{param}" for strategy, param, _ in REMOVED_PARAMS])


def _refusal(param):
    return (f"does not accept parameter(s) {param}; a <search> block "
            "names only its strategy")


class TestRemovedStrategyParams:
    """A strategy takes no parameters: one a strategy once took is
    refused with SC210 wherever a ``<search>`` attribute can arrive."""

    @removed_params
    def test_search_block_refused_at_parse(self, tmp_path, strategy, param,
                                           value):
        xml = _minimal_xml(
            tmp_path,
            extra=f'<search strategy="{strategy}" {param}="{value}"/>')
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(xml, base_dir=tmp_path)
        assert excinfo.value.diagnostic_code == "SC210"
        assert _refusal(param) in str(excinfo.value)

    @removed_params
    def test_cli_lint_json_refuses(self, tmp_path, capsys, strategy, param,
                                   value):
        config = tmp_path / "config.xml"
        config.write_text(_minimal_xml(
            tmp_path,
            extra=f'<search strategy="{strategy}" {param}="{value}"/>'))
        rc = main(["lint", "--json", str(config)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert [d["code"] for d in payload["diagnostics"]] == ["SC210"]
        assert _refusal(param) in payload["diagnostics"][0]["message"]

    @removed_params
    def test_stored_run_fails(self, tiny_library, tiny_template, tmp_path,
                              strategy, param, value):
        config = _with_params(_config(tiny_library, tiny_template,
                                      strategy=strategy), {param: value})
        store_path = tmp_path / "gest.sqlite"
        with RunStore(store_path) as store:
            run_id = store.submit_run(config, platform="cortex_a15")
        assert execute_run(store_path, run_id) == "failed"
        with RunStore(store_path) as store:
            row = store.get_run(run_id)
        assert row.status == "failed"
        assert _refusal(param) in row.error


class TestStaticRankMetric:
    """``static_rank`` ranks by the bound measurement's ``metric``,
    which must be one :func:`static_score` prices (ipc and the power
    family); any other is SC210 at bind rather than a silent ranking
    by the power proxy."""

    @pytest.mark.parametrize("metric", ["bogus", "IPC"])
    def test_bind_refuses(self, tiny_library, tiny_template, metric):
        declared = type("Declared", (PowerMeasurement,), {"metric": metric})
        measurement = _power_measurement(cls=declared)
        config = _config(tiny_library, tiny_template,
                         strategy="static_rank")
        with pytest.raises(ConfigError) as excinfo:
            GeneticEngine(config, measurement, DefaultFitness())
        assert excinfo.value.diagnostic_code == "SC210"
        assert f"cannot rank by {metric!r}, the metric the measurement " \
            "class declares" in str(excinfo.value)
        # Only the ranker reads the metric.
        GeneticEngine(_config(tiny_library, tiny_template,
                              strategy="surrogate"),
                      measurement, DefaultFitness()).evaluator.close()

    def test_cache_miss_search_refused(self, tiny_library, tiny_template):
        # LLC misses per kilo-instruction is no metric static_score
        # prices, so an LLC search is refused rather than pruned in uid
        # order by an IPC bound that reads the same for every offspring.
        machine = SimulatedMachine("cortex_a15", seed=99, sim_cycles=600,
                                   hierarchy=MemoryHierarchy())
        target = SimulatedTarget(machine)
        target.connect()
        measurement = CacheMissMeasurement(target, {"samples": "2"})
        assert measurement.metric == "llc_mpki"
        with pytest.raises(ConfigError) as excinfo:
            GeneticEngine(_config(tiny_library, tiny_template,
                                  strategy="static_rank"),
                          measurement, DefaultFitness())
        assert excinfo.value.diagnostic_code == "SC210"
        assert "cannot rank by 'llc_mpki'" in str(excinfo.value)
        GeneticEngine(_config(tiny_library, tiny_template,
                              strategy="genetic"),
                      measurement, DefaultFitness()).evaluator.close()


# ---------------------------------------------------------------------------
# ablation: the paper's GA-vs-random argument (Section III.A)
# ---------------------------------------------------------------------------

class TestSearchComparison:
    def test_genetic_beats_random_on_ipc(self):
        from repro.experiments import search_comparison
        result = search_comparison()
        assert set(result.histories) == set(ALL_STRATEGIES)
        assert len(result.histories["genetic"].generations) == 8
        assert all(g.strategy == "random"
                   for g in result.histories["random"].generations)
        assert result.best_fitness("genetic") > \
            result.best_fitness("random")
        assert result.ranking()[0] == "genetic"
        assert result.ranking()[-1] == "random"
        assert "genetic" in result.render()


# ---------------------------------------------------------------------------
# golden gate: shipped configs are bit-identical under the new engine
# ---------------------------------------------------------------------------

SHIPPED_CONFIGS = [
    ("arm_power", "cortex_a15"),
    ("arm_ipc", "xgene2"),
    ("arm_temperature", "xgene2"),
    ("x86_didt", "athlon_x4"),
]


class TestShippedConfigGolden:
    @pytest.mark.parametrize("name,platform", SHIPPED_CONFIGS)
    def test_generation0_bit_identical(self, name, platform, tmp_path):
        shipped = REPO_ROOT / "configs" / name
        rc = main(["run", str(shipped / "config.xml"),
                   "--platform", platform, "--generations", "1",
                   "--results", str(tmp_path / "results"), "--quiet"])
        assert rc == 0
        produced = (tmp_path / "results" / "populations" /
                    "population_0.bin").read_bytes()
        golden = (shipped / "results" / "populations" /
                  "population_0.bin").read_bytes()
        assert produced == golden
