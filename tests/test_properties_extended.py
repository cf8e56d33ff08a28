"""Additional property-based tests covering the extension subsystems:
the C-like compiler, the abstract workload model, the cache hierarchy
and the engine's checkpoint determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstractmodel import WorkloadProfile, generate_loop
from repro.core.rng import make_rng
from repro.cpu.cache import Cache, CacheConfig, MemoryHierarchy
from repro.isa import ArmAssembler, clike_library, compile_clike

ASM = ArmAssembler()
CLIKE_LIB = clike_library()


# ---------------------------------------------------------------------------
# C-like compiler
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 30))
@settings(max_examples=40)
def test_any_clike_statement_sequence_compiles_and_assembles(seed, size):
    """Whatever the C-level GA can generate must survive the full
    toolchain: C statements -> SimISA -> decoded program."""
    rng = make_rng(seed)
    statements = []
    for _ in range(size):
        name = CLIKE_LIB.names[rng.randrange(len(CLIKE_LIB.names))]
        spec = CLIKE_LIB.spec(name)
        statements.append(spec.render(CLIKE_LIB.sample_values(spec, rng)))
    source = "loop {\n" + "\n".join(statements) + "\n}\n"
    program = ASM.assemble(compile_clike(source))
    # Every statement lowers to exactly one instruction, plus the loop
    # edge (subs + bne) the compiler appends.
    assert program.loop_length == size + 2


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_clike_compile_is_deterministic(seed):
    rng = make_rng(seed)
    name = CLIKE_LIB.names[rng.randrange(len(CLIKE_LIB.names))]
    spec = CLIKE_LIB.spec(name)
    statement = spec.render(CLIKE_LIB.sample_values(spec, rng))
    source = f"loop {{\n{statement}\n}}\n"
    assert compile_clike(source) == compile_clike(source)


# ---------------------------------------------------------------------------
# abstract workload model
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60))
@settings(max_examples=40)
def test_generated_abstract_code_always_assembles(seed, size):
    rng = make_rng(seed)
    profile = WorkloadProfile.random(rng)
    program = ASM.assemble(generate_loop(profile, size, rng))
    assert program.loop_length == size


class _WildProfile(WorkloadProfile):
    """Mutation steps wide enough to hit every clamp."""

    MUTATION_SIGMA = 1.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_profile_operator_closure(seed):
    """Mutation and crossover always yield valid profiles."""
    rng = make_rng(seed)
    a = WorkloadProfile.random(rng)
    b = WorkloadProfile.random(rng)
    a.crossover(b, rng).validate()
    a.mutate(rng).validate()
    _WildProfile.random(rng).mutate(rng).validate()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_normalized_mix_is_distribution(seed):
    profile = WorkloadProfile.random(make_rng(seed))
    mix = profile.normalized_mix()
    assert sum(mix.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in mix.values())


# ---------------------------------------------------------------------------
# cache hierarchy
# ---------------------------------------------------------------------------

@given(addresses=st.lists(st.integers(0, 2**22), min_size=1,
                          max_size=300))
@settings(max_examples=30)
def test_cache_stats_always_consistent(addresses):
    cache = Cache(CacheConfig("t", 4096, 64, 4, 2, 1.0))
    for address in addresses:
        cache.lookup(address)
    stats = cache.stats
    assert stats.accesses == len(addresses)
    assert 0 <= stats.hits <= stats.accesses
    assert 0.0 <= stats.miss_rate <= 1.0


@given(addresses=st.lists(st.integers(0, 2**22), min_size=1,
                          max_size=200))
@settings(max_examples=30)
def test_hierarchy_inclusion_of_counts(addresses):
    """L2 sees exactly the L1's misses."""
    hierarchy = MemoryHierarchy()
    for address in addresses:
        hierarchy.access(address)
    assert hierarchy.l2.stats.accesses == hierarchy.l1.stats.misses
    assert hierarchy.llc_misses() <= hierarchy.l2.stats.accesses


@given(address=st.integers(0, 2**22))
def test_repeated_access_eventually_hits(address):
    hierarchy = MemoryHierarchy()
    hierarchy.access(address)
    assert hierarchy.access(address).level == "l1"


# ---------------------------------------------------------------------------
# value-toggle / immediate interplay (regression-style property)
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_machine_runs_are_reproducible(seed):
    """Identical machines produce identical observable results for the
    same program — the substrate is a pure function of (seed, code)."""
    from repro.cpu import SimulatedMachine
    source = (".loop\nadd x1, x2, x3\nvmul v0, v8, v9\n"
              "ldr x7, [x10, #8]\n.endloop\n")
    a = SimulatedMachine("cortex_a7", seed=seed, sim_cycles=400)
    b = SimulatedMachine("cortex_a7", seed=seed, sim_cycles=400)
    ra, rb = a.run_source(source), b.run_source(source)
    assert ra.power_samples_w == rb.power_samples_w
    assert ra.temperature_samples_c == rb.temperature_samples_c
    assert ra.voltage.v_min == rb.voltage.v_min


# ---------------------------------------------------------------------------
# shmoo / timing-model invariants
# ---------------------------------------------------------------------------

@given(fraction=st.floats(0.5, 1.5, allow_nan=False))
@settings(max_examples=25)
def test_critical_voltage_monotone_in_frequency(fraction):
    from repro.cpu import SimulatedMachine
    machine = SimulatedMachine("athlon_x4", seed=0, sim_cycles=400)
    reclocked = machine.at_frequency(
        machine.nominal_frequency_hz * fraction)
    if fraction >= 1.0:
        assert reclocked.critical_voltage_v() >= \
            machine.critical_voltage_v() - 1e-12
    else:
        assert reclocked.critical_voltage_v() <= \
            machine.critical_voltage_v() + 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_diversity_metrics_bounded_on_random_populations(seed):
    from repro.analysis import population_diversity
    from repro.core.individual import random_individual
    from repro.core.population import Population
    from repro.isa import arm_library
    rng = make_rng(seed)
    library = arm_library()
    population = Population([random_individual(library, 10, rng)
                             for _ in range(8)])
    stats = population_diversity(population)
    assert 0 < stats.unique_fraction <= 1.0
    assert stats.mean_slot_entropy_bits >= 0.0
    assert 0.0 < stats.dominant_opcode_share <= 1.0
