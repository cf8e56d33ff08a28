"""Unit tests for populations and their persistence
(repro.core.population)."""

import pytest

from repro.core.errors import ConfigError
from repro.core.individual import random_individual
from repro.core.population import Population, load_population
from repro.core.rng import make_rng


def _population(library, size=6, number=0, evaluate=True, seed=0):
    rng = make_rng(seed)
    individuals = []
    for i in range(size):
        ind = random_individual(library, 8, rng, uid=i)
        if evaluate:
            ind.record_evaluation([float(i), float(i) + 0.5], float(i))
        individuals.append(ind)
    return Population(individuals, number=number)


class TestPopulation:
    def test_len_and_iteration(self, tiny_library):
        pop = _population(tiny_library, size=5)
        assert len(pop) == 5
        assert [ind.uid for ind in pop] == [0, 1, 2, 3, 4]

    def test_indexing(self, tiny_library):
        pop = _population(tiny_library)
        assert pop[0].uid == 0
        assert pop[-1].uid == 5

    def test_generation_number_stamped_on_members(self, tiny_library):
        pop = _population(tiny_library, number=3)
        assert all(ind.generation == 3 for ind in pop)

    def test_fittest(self, tiny_library):
        pop = _population(tiny_library)
        assert pop.fittest().uid == 5

    def test_fittest_empty_population(self):
        with pytest.raises(ConfigError):
            Population([]).fittest()

    def test_fittest_with_unevaluated_member(self, tiny_library):
        pop = _population(tiny_library, evaluate=False)
        with pytest.raises(ConfigError):
            pop.fittest()

    def test_ranked_descending(self, tiny_library):
        pop = _population(tiny_library)
        fitnesses = [ind.fitness for ind in pop.ranked()]
        assert fitnesses == sorted(fitnesses, reverse=True)

    def test_mean_fitness(self, tiny_library):
        pop = _population(tiny_library, size=4)
        assert pop.mean_fitness() == pytest.approx((0 + 1 + 2 + 3) / 4)

    def test_pruned_rank_last_and_skip_the_mean(self, tiny_library):
        pop = _population(tiny_library, size=4)
        pop[3].mark_pruned(1)
        pop[0].mark_pruned(0)
        assert pop.evaluated
        assert pop.fittest().uid == 2
        assert [ind.uid for ind in pop.ranked()] == [2, 1, 0, 3]
        assert pop.mean_fitness() == pytest.approx((1 + 2) / 2)

    def test_evaluated_flag(self, tiny_library):
        assert _population(tiny_library).evaluated
        assert not _population(tiny_library, evaluate=False).evaluated


class TestPersistence:
    def test_round_trip(self, tiny_library, tmp_path):
        pop = _population(tiny_library, number=4)
        path = pop.save(tmp_path / "population_4.bin")
        loaded = load_population(path)
        assert loaded.number == 4
        assert len(loaded) == len(pop)
        for a, b in zip(pop, loaded):
            assert a.uid == b.uid
            assert a.fitness == b.fitness
            assert a.measurements == b.measurements
            assert a.genome_key() == b.genome_key()
            assert a.parent_ids == b.parent_ids

    def test_round_trip_preserves_renderability(self, tiny_library,
                                                tmp_path):
        pop = _population(tiny_library)
        loaded = load_population(pop.save(tmp_path / "p.bin"))
        for ind in loaded:
            assert ind.render_body()

    def test_save_creates_parent_directories(self, tiny_library, tmp_path):
        pop = _population(tiny_library)
        path = pop.save(tmp_path / "deep" / "dir" / "p.bin")
        assert path.exists()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_population(tmp_path / "nope.bin")

    def test_load_garbage_file(self, tmp_path):
        bad = tmp_path / "bad.bin"
        import pickle
        bad.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ConfigError):
            load_population(bad)

    def test_expected_size_check(self, tiny_library, tmp_path):
        pop = _population(tiny_library, size=6)
        path = pop.save(tmp_path / "p.bin")
        load_population(path, expected_size=6)
        with pytest.raises(ConfigError):
            load_population(path, expected_size=50)
