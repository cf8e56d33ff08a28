"""Property-based tests (hypothesis) on core data structures and model
invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.individual import Individual, random_individual
from repro.core.operand import ImmediateOperand, RegisterOperand
from repro.core.rng import make_rng, spawn
from repro.cpu.microarch import PDNParams, ThermalParams, microarch_for
from repro.cpu.pdn import PDNModel
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.power import value_toggle_activity
from repro.cpu.thermal import ThermalModel
from repro.isa import ArmAssembler, arm_library
from repro.search.operators import (mutate, one_point_crossover,
                                    tournament_select, uniform_crossover)

LIB = arm_library()
ASM = ArmAssembler()


# ---------------------------------------------------------------------------
# operand pools
# ---------------------------------------------------------------------------

@given(minimum=st.integers(-1000, 1000), span=st.integers(0, 2000),
       stride=st.integers(1, 97))
def test_immediate_pool_membership(minimum, span, stride):
    op = ImmediateOperand("imm", minimum, minimum + span, stride)
    values = [int(v) for v in op.choices()]
    assert values[0] == minimum
    assert all(minimum <= v <= minimum + span for v in values)
    assert all((v - minimum) % stride == 0 for v in values)
    assert op.cardinality() == span // stride + 1


@given(names=st.lists(st.sampled_from([f"x{i}" for i in range(16)]),
                      min_size=1, max_size=30))
def test_register_pool_dedup_preserves_order(names):
    op = RegisterOperand("r", names)
    choices = list(op.choices())
    assert len(choices) == len(set(choices))
    # Order of first occurrence is preserved.
    firsts = []
    for n in names:
        if n not in firsts:
            firsts.append(n)
    assert choices == firsts


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60))
def test_random_individual_always_assembles(seed, size):
    """Any individual the GA can generate from the stock ARM catalog is
    valid input for the ARM assembler."""
    ind = random_individual(LIB, size, make_rng(seed))
    program = ASM.assemble(ind.render_body())
    assert program.loop_length >= size   # branches add label lines only


# ---------------------------------------------------------------------------
# GA operators
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 40))
@settings(max_examples=40)
def test_one_point_crossover_preserves_multiset(seed, size):
    rng = make_rng(seed)
    p1 = random_individual(LIB, size, rng)
    p2 = random_individual(LIB, size, rng)
    p1.record_evaluation([1.0], 1.0)
    p2.record_evaluation([2.0], 2.0)
    c1, c2 = one_point_crossover(p1, p2, rng)
    combined_children = sorted(
        (i.name, i.values) for i in list(c1) + list(c2))
    combined_parents = sorted(
        (i.name, i.values)
        for i in list(p1.instructions) + list(p2.instructions))
    assert combined_children == combined_parents


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40))
@settings(max_examples=40)
def test_uniform_crossover_preserves_multiset(seed, size):
    rng = make_rng(seed)
    p1 = random_individual(LIB, size, rng)
    p2 = random_individual(LIB, size, rng)
    p1.record_evaluation([1.0], 1.0)
    p2.record_evaluation([2.0], 2.0)
    c1, c2 = uniform_crossover(p1, p2, rng)
    for slot in range(size):
        assert {c1[slot], c2[slot]} == \
            {p1.instructions[slot], p2.instructions[slot]}


@given(seed=st.integers(0, 2**32 - 1),
       rate=st.floats(0.0, 1.0, allow_nan=False),
       size=st.integers(1, 40))
@settings(max_examples=40)
def test_mutation_preserves_length_and_validity(seed, rate, size):
    rng = make_rng(seed)
    genome = list(random_individual(LIB, size, rng).instructions)
    mutated = mutate(genome, LIB, rng, rate)
    assert len(mutated) == size
    # Every mutated instruction still renders and assembles.
    ASM.assemble(Individual(mutated).render_body())


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 20),
       tsize=st.integers(1, 10))
@settings(max_examples=40)
def test_tournament_winner_never_below_population_min(seed, size, tsize):
    rng = make_rng(seed)
    population = []
    for i in range(size):
        ind = random_individual(LIB, 5, rng)
        ind.record_evaluation([float(i)], float(i))
        population.append(ind)
    winner = tournament_select(population, rng, tsize)
    assert winner.fitness >= 0.0


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**63 - 1))
def test_spawned_streams_differ_from_parent(seed):
    parent = make_rng(seed)
    child = spawn(parent, 1)
    a = [child.random() for _ in range(5)]
    parent2 = make_rng(seed)
    b = [parent2.random() for _ in range(5)]
    assert a != b


# ---------------------------------------------------------------------------
# power / thermal / PDN invariants
# ---------------------------------------------------------------------------

@given(value=st.integers(0, 2**64 - 1))
def test_toggle_activity_bounded(value):
    assert 0.0 <= value_toggle_activity(value) <= 1.0


@given(value=st.integers(0, 2**64 - 1))
def test_toggle_activity_invariant_under_complement(value):
    """Complementing every bit preserves adjacent-bit transitions."""
    complement = value ^ (2**64 - 1)
    assert value_toggle_activity(value) == pytest.approx(
        value_toggle_activity(complement))


@given(power=st.floats(0.0, 200.0, allow_nan=False),
       elapsed=st.floats(0.0, 100.0, allow_nan=False))
def test_thermal_bounded_by_steady_state(power, elapsed):
    model = ThermalModel(ThermalParams(25.0, 1.5, 3.0))
    t = model.temperature_c(power, elapsed)
    assert 25.0 <= t <= model.steady_state_c(power) + 1e-9


@given(power_a=st.floats(0.0, 100.0), power_b=st.floats(0.0, 100.0),
       elapsed=st.floats(0.01, 50.0))
def test_thermal_monotone_in_power(power_a, power_b, elapsed):
    model = ThermalModel(ThermalParams(25.0, 1.5, 3.0))
    lo, hi = sorted((power_a, power_b))
    assert model.temperature_c(lo, elapsed) <= \
        model.temperature_c(hi, elapsed) + 1e-9


@given(level=st.floats(1.0, 50.0), supply=st.floats(0.8, 1.5))
@settings(max_examples=25)
def test_pdn_dc_solution(level, supply):
    model = PDNModel(PDNParams(2e-3, 8e-12, 3e-7), 3e9)
    trace = model.simulate(np.full(3000, level), supply)
    assert trace.mean == pytest.approx(supply - 2e-3 * level, abs=1e-4)
    assert trace.peak_to_peak < 1e-5


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_pipeline_ipc_bounded_by_width(seed):
    arch = microarch_for("cortex_a15")
    ind = random_individual(LIB, 30, make_rng(seed))
    program = ASM.assemble(ind.render_body())
    trace = PipelineSimulator(arch).execute(program, max_cycles=300)
    assert 0.0 <= trace.ipc <= arch.issue_width
    assert trace.instructions_issued == \
        sum(len(c) for c in trace.issued_per_cycle)
