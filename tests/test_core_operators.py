"""Unit tests for GA operators (repro.search.operators)."""

import pytest

from repro.core.errors import ConfigError
from repro.core.individual import Individual, random_individual
from repro.core.rng import make_rng
from repro.search import CROSSOVER_OPERATORS
from repro.search.operators import (mutate, one_point_crossover,
                                    tournament_select, uniform_crossover)


def _evaluated(library, rng, fitness, size=10):
    ind = random_individual(library, size, rng)
    ind.record_evaluation([fitness], fitness)
    return ind


class TestTournamentSelect:
    def test_returns_member_of_population(self, tiny_library, rng):
        population = [_evaluated(tiny_library, rng, float(i))
                      for i in range(10)]
        for _ in range(20):
            assert tournament_select(population, rng, 5) in population

    def test_oversized_tournament_clamped_with_warning(self, tiny_library,
                                                       rng):
        import warnings

        from repro.search import operators as ops

        population = [_evaluated(tiny_library, rng, float(i))
                      for i in range(6)]
        ops._CLAMP_WARNED.clear()
        with pytest.warns(RuntimeWarning) as caught:
            winner = tournament_select(population, rng, 200)
        assert winner in population
        # The warning names both values, and fires once, not per call.
        message = str(caught[0].message)
        assert "200" in message and "6" in message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tournament_select(population, rng, 200)

    def test_clamped_tournament_draws_population_size(self, tiny_library):
        # A clamped tournament behaves exactly like one sized to the
        # population: same draws from the same stream.
        population = [_evaluated(tiny_library, make_rng(0), float(i))
                      for i in range(6)]
        a = tournament_select(population, make_rng(7), 200)
        b = tournament_select(population, make_rng(7), 6)
        assert a is b

    def test_selection_pressure_favours_fit(self, tiny_library):
        rng = make_rng(3)
        population = [_evaluated(tiny_library, rng, float(i))
                      for i in range(20)]
        wins = [tournament_select(population, rng, 5).fitness
                for _ in range(300)]
        assert sum(wins) / len(wins) > 14.0   # uniform mean would be 9.5

    def test_tournament_size_one_is_uniform(self, tiny_library):
        rng = make_rng(3)
        population = [_evaluated(tiny_library, rng, float(i))
                      for i in range(10)]
        picks = {tournament_select(population, rng, 1).fitness
                 for _ in range(300)}
        assert len(picks) >= 8   # nearly all individuals get picked

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ConfigError):
            tournament_select([], rng, 5)

    def test_unevaluated_population_rejected(self, tiny_library, rng):
        population = [random_individual(tiny_library, 5, rng)
                      for _ in range(5)]
        with pytest.raises(ConfigError):
            tournament_select(population, rng, 5)

    def test_bad_tournament_size(self, tiny_library, rng):
        population = [_evaluated(tiny_library, rng, 1.0)]
        with pytest.raises(ConfigError):
            tournament_select(population, rng, 0)


class TestOnePointCrossover:
    def test_children_have_parent_length(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=12)
        p2 = _evaluated(tiny_library, rng, 2.0, size=12)
        c1, c2 = one_point_crossover(p1, p2, rng)
        assert len(c1) == len(c2) == 12

    def test_children_swap_halves(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=10)
        p2 = _evaluated(tiny_library, rng, 2.0, size=10)
        c1, c2 = one_point_crossover(p1, p2, rng)
        # Find the cut: c1 matches p1 up to it, p2 after it.
        for cut in range(1, 10):
            if (list(c1[:cut]) == list(p1.instructions[:cut]) and
                    list(c1[cut:]) == list(p2.instructions[cut:])):
                assert list(c2[:cut]) == list(p2.instructions[:cut])
                assert list(c2[cut:]) == list(p1.instructions[cut:])
                return
        pytest.fail("no valid one-point cut found")

    def test_every_gene_comes_from_a_parent(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=15)
        p2 = _evaluated(tiny_library, rng, 2.0, size=15)
        c1, _ = one_point_crossover(p1, p2, rng)
        pool = set(p1.instructions) | set(p2.instructions)
        assert set(c1) <= pool

    def test_single_instruction_parents(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=1)
        p2 = _evaluated(tiny_library, rng, 2.0, size=1)
        c1, c2 = one_point_crossover(p1, p2, rng)
        assert len(c1) == len(c2) == 1

    def test_length_mismatch_rejected(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=5)
        p2 = _evaluated(tiny_library, rng, 2.0, size=6)
        with pytest.raises(ConfigError):
            one_point_crossover(p1, p2, rng)

    def test_preserves_contiguous_runs(self, tiny_library, rng):
        """One-point keeps instruction order within each inherited
        half — the property the paper prefers it for."""
        p1 = _evaluated(tiny_library, rng, 1.0, size=20)
        p2 = _evaluated(tiny_library, rng, 2.0, size=20)
        c1, _ = one_point_crossover(p1, p2, rng)
        # c1 must be expressible as prefix-of-p1 + suffix-of-p2.
        matches = [cut for cut in range(1, 20)
                   if list(c1[:cut]) == list(p1.instructions[:cut])
                   and list(c1[cut:]) == list(p2.instructions[cut:])]
        assert matches


class TestUniformCrossover:
    def test_children_have_parent_length(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=14)
        p2 = _evaluated(tiny_library, rng, 2.0, size=14)
        c1, c2 = uniform_crossover(p1, p2, rng)
        assert len(c1) == len(c2) == 14

    def test_slots_complementary(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=14)
        p2 = _evaluated(tiny_library, rng, 2.0, size=14)
        c1, c2 = uniform_crossover(p1, p2, rng)
        for slot in range(14):
            pair = {c1[slot], c2[slot]}
            assert pair == {p1.instructions[slot], p2.instructions[slot]}

    def test_mixes_both_parents(self, tiny_library):
        rng = make_rng(11)
        p1 = _evaluated(tiny_library, rng, 1.0, size=30)
        p2 = _evaluated(tiny_library, rng, 2.0, size=30)
        c1, _ = uniform_crossover(p1, p2, rng)
        from_p1 = sum(1 for s in range(30)
                      if c1[s] is p1.instructions[s])
        assert 3 < from_p1 < 27   # not a pure copy of either parent

    def test_length_mismatch_rejected(self, tiny_library, rng):
        p1 = _evaluated(tiny_library, rng, 1.0, size=5)
        p2 = _evaluated(tiny_library, rng, 2.0, size=7)
        with pytest.raises(ConfigError):
            uniform_crossover(p1, p2, rng)

    def test_registry_contains_both(self):
        assert set(CROSSOVER_OPERATORS) == {"one_point", "uniform"}


class TestMutate:
    def test_zero_rate_is_identity(self, tiny_library, rng):
        genome = list(random_individual(tiny_library, 20, rng).instructions)
        assert mutate(genome, tiny_library, rng, 0.0) == genome

    def test_rate_one_mutates_probabilistically_everything(self,
                                                           tiny_library):
        rng = make_rng(2)
        genome = list(random_individual(tiny_library, 50, rng).instructions)
        mutated = mutate(genome, tiny_library, rng, 1.0,
                         operand_mutation_share=0.0)
        # Whole-instruction mutation resamples every slot; identical
        # re-draws are possible but rare across 50 slots.
        changed = sum(1 for a, b in zip(genome, mutated) if a != b)
        assert changed > 25

    def test_expected_mutation_count_near_rate(self, tiny_library):
        """2% at 50 instructions ≈ 1 mutation per individual
        (paper's rule of thumb)."""
        rng = make_rng(4)
        total_changed = 0
        trials = 200
        for _ in range(trials):
            genome = list(random_individual(tiny_library, 50,
                                            rng).instructions)
            mutated = mutate(genome, tiny_library, rng, 0.02,
                             operand_mutation_share=0.0)
            total_changed += sum(1 for a, b in zip(genome, mutated)
                                 if a != b)
        mean = total_changed / trials
        assert 0.5 < mean < 1.6

    def test_operand_mutation_keeps_opcode(self, tiny_library):
        rng = make_rng(6)
        genome = list(random_individual(tiny_library, 40, rng).instructions)
        mutated = mutate(genome, tiny_library, rng, 1.0,
                         operand_mutation_share=1.0)
        for before, after in zip(genome, mutated):
            # Operand-less instructions fall back to whole-instruction
            # mutation; all others keep their opcode.
            if before.spec.num_operands > 0:
                assert after.name == before.name

    def test_returns_new_list(self, tiny_library, rng):
        genome = list(random_individual(tiny_library, 10, rng).instructions)
        mutated = mutate(genome, tiny_library, rng, 0.5)
        assert mutated is not genome

    def test_bad_rate_rejected(self, tiny_library, rng):
        genome = list(random_individual(tiny_library, 5, rng).instructions)
        with pytest.raises(ConfigError):
            mutate(genome, tiny_library, rng, 1.5)
        with pytest.raises(ConfigError):
            mutate(genome, tiny_library, rng, -0.1)

    def test_bad_share_rejected(self, tiny_library, rng):
        genome = list(random_individual(tiny_library, 5, rng).instructions)
        with pytest.raises(ConfigError):
            mutate(genome, tiny_library, rng, 0.1,
                   operand_mutation_share=2.0)

    def test_mutated_operands_stay_in_pools(self, tiny_library):
        rng = make_rng(8)
        genome = list(random_individual(tiny_library, 30, rng).instructions)
        mutated = mutate(genome, tiny_library, rng, 1.0)
        for instr in mutated:
            if instr.name == "ADD":
                assert instr.values[0] in {"x1", "x2", "x3"}
                assert instr.values[1] in {"x1", "x2", "x3", "x4"}
            elif instr.name == "LDR":
                assert instr.values[1] == "x10"
                assert 0 <= int(instr.values[2]) <= 256
