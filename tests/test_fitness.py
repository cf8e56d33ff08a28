"""Unit tests for fitness functions (repro.fitness)."""

import pytest

from repro.core.errors import ConfigError, MeasurementError
from repro.core.individual import random_individual
from repro.core.instruction import ConcreteInstruction, InstructionSpec
from repro.core.individual import Individual
from repro.core.rng import make_rng
from repro.fitness import (DefaultFitness, DroopOverPowerFitness,
                           TemperatureSimplicityFitness, WeightedFitness)


def _individual_with_uniques(total, unique):
    """An individual with ``total`` instructions, ``unique`` distinct
    opcodes."""
    specs = [InstructionSpec(f"OP{i}", [], f"nop // {i}", "nop")
             for i in range(unique)]
    instrs = [ConcreteInstruction(specs[i % unique], ())
              for i in range(total)]
    return Individual(instrs)


class TestDefaultFitness:
    def test_uses_first_measurement(self):
        assert DefaultFitness().get_fitness([3.5, 9.9], None) == 3.5

    def test_empty_measurements_rejected(self):
        with pytest.raises(MeasurementError):
            DefaultFitness().get_fitness([], None)

    def test_original_api_alias(self):
        """GeST's method name is getFitness."""
        assert DefaultFitness().getFitness([2.0], None) == 2.0

    def test_returns_float(self):
        value = DefaultFitness().get_fitness([7], None)
        assert isinstance(value, float)


class TestTemperatureSimplicityFitness:
    @pytest.fixture
    def fitness(self):
        return TemperatureSimplicityFitness(idle_temperature_c=40.0,
                                            max_temperature_c=90.0)

    def test_paper_simplicity_examples(self, fitness):
        """Paper: 25 unique of 50 -> 0.5, 15 unique of 50 -> 0.7
        (before the 0.5 weight)."""
        assert fitness.simplicity_score(
            _individual_with_uniques(50, 25)) == pytest.approx(0.5)
        assert fitness.simplicity_score(
            _individual_with_uniques(50, 15)) == pytest.approx(0.7)

    def test_temperature_score_normalisation(self, fitness):
        assert fitness.temperature_score(40.0) == pytest.approx(0.0)
        assert fitness.temperature_score(90.0) == pytest.approx(1.0)
        assert fitness.temperature_score(65.0) == pytest.approx(0.5)

    def test_temperature_score_clamped(self, fitness):
        assert fitness.temperature_score(20.0) == 0.0
        assert fitness.temperature_score(150.0) == 1.0

    def test_equation1_equal_weights(self, fitness):
        ind = _individual_with_uniques(50, 25)
        value = fitness.get_fitness([65.0], ind)
        assert value == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)

    def test_fitness_bounded_zero_one(self, fitness):
        ind = _individual_with_uniques(50, 1)
        assert 0.0 <= fitness.get_fitness([300.0], ind) <= 1.0

    def test_rewards_fewer_uniques_at_same_temperature(self, fitness):
        simple = _individual_with_uniques(50, 10)
        complex_ = _individual_with_uniques(50, 40)
        assert fitness.get_fitness([70.0], simple) > \
            fitness.get_fitness([70.0], complex_)

    def test_rewards_temperature_at_same_simplicity(self, fitness):
        ind = _individual_with_uniques(50, 20)
        assert fitness.get_fitness([85.0], ind) > \
            fitness.get_fitness([55.0], ind)

    def test_custom_weights(self):
        fitness = TemperatureSimplicityFitness(
            40.0, 90.0, temperature_weight=1.0, simplicity_weight=0.0)
        ind = _individual_with_uniques(50, 1)
        assert fitness.get_fitness([90.0], ind) == pytest.approx(1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            TemperatureSimplicityFitness(90.0, 40.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            TemperatureSimplicityFitness(40.0, 90.0,
                                         temperature_weight=-1.0)

    def test_empty_individual_simplicity_zero(self, fitness):
        assert fitness.simplicity_score(Individual([])) == 0.0

    def test_empty_measurements_rejected(self, fitness):
        with pytest.raises(MeasurementError):
            fitness.get_fitness([], _individual_with_uniques(10, 2))


class TestWeightedFitness:
    def test_single_term(self):
        fitness = WeightedFitness([(0, 1.0, 2.0)])
        assert fitness.get_fitness([8.0], None) == pytest.approx(4.0)

    def test_multi_term_signed(self):
        fitness = WeightedFitness([(0, 1.0, 1.0), (1, -0.5, 2.0)])
        assert fitness.get_fitness([3.0, 4.0], None) == \
            pytest.approx(3.0 - 1.0)

    def test_missing_measurement_index(self):
        fitness = WeightedFitness([(3, 1.0, 1.0)])
        with pytest.raises(MeasurementError):
            fitness.get_fitness([1.0], None)

    def test_empty_terms_rejected(self):
        with pytest.raises(ConfigError):
            WeightedFitness([])

    def test_zero_normaliser_rejected(self):
        with pytest.raises(ConfigError):
            WeightedFitness([(0, 1.0, 0.0)])

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            WeightedFitness([(-1, 1.0, 1.0)])


class TestDroopOverPowerFitness:
    def test_prefers_droop_and_penalises_power(self):
        fitness = DroopOverPowerFitness(droop_normaliser_v=0.2,
                                        power_normaliser_w=100.0)
        # measurements: [pkpk, droop, v_min, v_max, avg_power]
        noisy_cool = [0.3, 0.2, 1.0, 1.3, 50.0]
        noisy_hot = [0.3, 0.2, 1.0, 1.3, 100.0]
        quiet = [0.05, 0.02, 1.2, 1.25, 50.0]
        assert fitness.get_fitness(noisy_cool, None) > \
            fitness.get_fitness(noisy_hot, None)
        assert fitness.get_fitness(noisy_hot, None) > \
            fitness.get_fitness(quiet, None)

    def test_bad_normalisers_rejected(self):
        with pytest.raises(ConfigError):
            DroopOverPowerFitness(0.0, 1.0)
        with pytest.raises(ConfigError):
            DroopOverPowerFitness(1.0, -1.0)
