"""Unit tests for individuals (repro.core.individual)."""

import pickle

import pytest

from repro.core.errors import ConfigError
from repro.core.individual import Individual, random_individual, \
    selection_key
from repro.core.rng import make_rng


class TestIndividual:
    def test_length(self, arm_individual):
        assert len(arm_individual) == 20

    def test_render_body_one_logical_instruction_per_line(self, tiny_library,
                                                          rng):
        ind = random_individual(tiny_library, 5, rng)
        body = ind.render_body()
        # Branch-free tiny library: exactly one line per instruction.
        assert len(body.splitlines()) == 5

    def test_opcode_sequence(self, tiny_library, rng):
        ind = random_individual(tiny_library, 10, rng)
        seq = ind.opcode_sequence()
        assert len(seq) == 10
        assert set(seq) <= {"ADD", "LDR", "NOP"}

    def test_unique_instruction_count(self, tiny_library, rng):
        ind = random_individual(tiny_library, 30, rng)
        assert 1 <= ind.unique_instruction_count() <= 3

    def test_instruction_mix_sums_to_length(self, arm_individual):
        mix = arm_individual.instruction_mix()
        assert sum(mix.values()) == len(arm_individual)

    def test_genome_key_equal_for_same_genome(self, tiny_library):
        a = random_individual(tiny_library, 8, make_rng(42))
        b = random_individual(tiny_library, 8, make_rng(42))
        assert a.genome_key() == b.genome_key()

    def test_genome_key_differs_for_different_seeds(self, tiny_library):
        a = random_individual(tiny_library, 8, make_rng(42))
        b = random_individual(tiny_library, 8, make_rng(43))
        assert a.genome_key() != b.genome_key()

    def test_clone_resets_evaluation(self, arm_individual):
        arm_individual.record_evaluation([1.5], 1.5)
        clone = arm_individual.clone(uid=77, parent_ids=(0,))
        assert clone.uid == 77
        assert clone.parent_ids == (0,)
        assert not clone.evaluated
        assert clone.genome_key() == arm_individual.genome_key()

    def test_record_evaluation(self, arm_individual):
        arm_individual.record_evaluation([2.0, 2.5], 2.0)
        assert arm_individual.evaluated
        assert arm_individual.fitness == 2.0
        assert arm_individual.measurements == [2.0, 2.5]
        assert not arm_individual.compile_failed

    def test_record_compile_failure(self, arm_individual):
        arm_individual.record_evaluation([0.0], 0.0, compile_failed=True)
        assert arm_individual.compile_failed
        assert arm_individual.fitness == 0.0

    def test_unevaluated_fitness_is_none(self, arm_individual):
        assert arm_individual.fitness is None
        assert not arm_individual.evaluated

    def test_instructions_are_immutable_tuple(self, arm_individual):
        assert isinstance(arm_individual.instructions, tuple)

    def test_default_ids(self, tiny_library, rng):
        ind = random_individual(tiny_library, 4, rng)
        assert ind.uid == -1
        assert ind.parent_ids == ()
        assert ind.generation == -1


class TestRandomIndividual:
    def test_requested_size(self, tiny_library, rng):
        for size in (1, 5, 50):
            assert len(random_individual(tiny_library, size, rng)) == size

    def test_deterministic_for_seed(self, tiny_library):
        a = random_individual(tiny_library, 12, make_rng(9))
        b = random_individual(tiny_library, 12, make_rng(9))
        assert a.genome_key() == b.genome_key()

    def test_uses_whole_library_eventually(self, tiny_library):
        rng = make_rng(1)
        names = set()
        for _ in range(20):
            names.update(random_individual(tiny_library, 10, rng)
                         .opcode_sequence())
        assert names == {"ADD", "LDR", "NOP"}

    def test_uid_passthrough(self, tiny_library, rng):
        assert random_individual(tiny_library, 3, rng, uid=5).uid == 5


class TestPrunedStatus:
    def test_mark_pruned_settles_without_fitness(self, arm_individual):
        assert not arm_individual.pruned
        assert arm_individual.pruned_rank is None
        arm_individual.mark_pruned(3)
        assert arm_individual.pruned and arm_individual.pruned_rank == 3
        assert arm_individual.fitness is None
        assert arm_individual.measurements == []
        assert arm_individual.evaluated

    def test_unpruned_pickle_has_no_pruned_slot(self, arm_individual):
        arm_individual.record_evaluation([1.5], 1.5)
        payload = pickle.dumps(arm_individual, protocol=4)
        assert b"_pruned_rank" not in payload
        assert not pickle.loads(payload).pruned

    def test_pruned_status_survives_pickle(self, arm_individual):
        arm_individual.mark_pruned(2)
        loaded = pickle.loads(pickle.dumps(arm_individual, protocol=4))
        assert loaded.pruned_rank == 2 and loaded.fitness is None

    def test_clone_is_unpruned(self, arm_individual):
        arm_individual.mark_pruned(0)
        assert not arm_individual.clone(uid=9).pruned


class TestSelectionKey:
    def test_fitness_above_pruned_in_ranker_order(self):
        scored_zero, scored_high = Individual([], uid=0), Individual([], uid=1)
        scored_zero.record_evaluation([], 0.0, compile_failed=True)
        scored_high.record_evaluation([2.0], 2.0)
        first, second = Individual([], uid=2), Individual([], uid=3)
        first.mark_pruned(0)
        second.mark_pruned(1)
        ascending = sorted([scored_high, second, scored_zero, first],
                           key=selection_key)
        assert ascending == [second, first, scored_zero, scored_high]

    def test_unevaluated_rejected(self):
        with pytest.raises(ConfigError, match="has not been evaluated"):
            selection_key(Individual([], uid=4))
