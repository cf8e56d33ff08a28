"""Unit tests for the abstract-workload-model GA (repro.abstractmodel)."""

import pytest

from repro.abstractmodel import (AbstractEngine, CATEGORIES,
                                 WorkloadProfile, generate_loop)
from repro.core.errors import ConfigError
from repro.core.rng import make_rng
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.fitness import DefaultFitness
from repro.isa import ArmAssembler, arm_template
from repro.isa.model import InstrClass
from repro.measurement import PowerMeasurement

from .scripted import ScriptedMeasurement


class TestWorkloadProfile:
    def test_default_is_valid(self):
        WorkloadProfile().validate()

    def test_random_profiles_valid(self):
        rng = make_rng(1)
        for _ in range(50):
            WorkloadProfile.random(rng).validate()

    def test_normalized_mix_sums_to_one(self):
        profile = WorkloadProfile.random(make_rng(2))
        assert sum(profile.normalized_mix().values()) == pytest.approx(1.0)

    def test_mutation_produces_valid_profiles(self):
        rng = make_rng(3)
        profile = WorkloadProfile.random(rng)
        for _ in range(100):
            profile = profile.mutate(rng)
            profile.validate()

    def test_mutation_changes_something_eventually(self):
        rng = make_rng(4)
        base = WorkloadProfile.random(rng)
        assert any(base.mutate(rng) != base for _ in range(10))

    def test_crossover_blends_within_parent_range(self):
        rng = make_rng(5)
        p1 = WorkloadProfile.random(rng)
        p2 = WorkloadProfile.random(rng)
        child = p1.crossover(p2, rng)
        child.validate()
        for category in CATEGORIES:
            low = min(p1.mix[category], p2.mix[category])
            high = max(p1.mix[category], p2.mix[category])
            assert low - 1e-9 <= child.mix[category] <= high + 1e-9

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(mix={"int_short": 1.0}).validate()
        bad_mix = {c: 0.0 for c in CATEGORIES}
        with pytest.raises(ConfigError):
            WorkloadProfile(mix=bad_mix).validate()
        with pytest.raises(ConfigError):
            WorkloadProfile(dependency_distance=0).validate()
        with pytest.raises(ConfigError):
            WorkloadProfile(fma_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            WorkloadProfile(mem_stride=48).validate()

    def test_describe_mentions_knobs(self):
        text = WorkloadProfile().describe()
        assert "dep=" in text and "stride=" in text


class TestGenerator:
    def test_generates_requested_size(self):
        profile = WorkloadProfile()
        body = generate_loop(profile, 40, make_rng(0))
        program = ArmAssembler().assemble(body)
        assert program.loop_length == 40

    def test_generated_code_always_assembles(self):
        rng = make_rng(1)
        asm = ArmAssembler()
        for _ in range(30):
            profile = WorkloadProfile.random(rng)
            asm.assemble(generate_loop(profile, 30, rng))

    def test_mix_statistics_follow_profile(self):
        mix = {c: 0.0 for c in CATEGORIES}
        mix["simd"] = 3.0
        mix["mem_load"] = 1.0
        profile = WorkloadProfile(mix=mix)
        body = generate_loop(profile, 400, make_rng(2))
        program = ArmAssembler().assemble(body)
        counts = program.class_counts()
        simd = counts.get(InstrClass.SIMD, 0)
        loads = counts.get(InstrClass.MEM_LOAD, 0)
        assert simd + loads == 400
        assert 2.0 < simd / max(1, loads) < 4.5   # ~3:1

    def test_pure_branch_profile(self):
        mix = {c: 0.0 for c in CATEGORIES}
        mix["branch"] = 1.0
        body = generate_loop(WorkloadProfile(mix=mix), 10, make_rng(3))
        program = ArmAssembler().assemble(body)
        assert program.class_counts()[InstrClass.BRANCH] == 10

    def test_determinism_per_seed(self):
        profile = WorkloadProfile.random(make_rng(4))
        a = generate_loop(profile, 25, make_rng(9))
        b = generate_loop(profile, 25, make_rng(9))
        assert a == b

    def test_dependency_distance_affects_ilp(self):
        """Small dependency distance serialises the float pipeline."""
        from repro.cpu import PipelineSimulator
        from repro.cpu.microarch import microarch_for
        mix = {c: 0.0 for c in CATEGORIES}
        mix["float"] = 1.0
        sim = PipelineSimulator(microarch_for("cortex_a15"))
        asm = ArmAssembler()

        def ipc(dep):
            profile = WorkloadProfile(mix=mix, dependency_distance=dep,
                                      fma_fraction=0.0)
            body = generate_loop(profile, 30, make_rng(5))
            return sim.execute(asm.assemble(body), 400).ipc

        assert ipc(12) > ipc(2) * 1.2

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            generate_loop(WorkloadProfile(), 0, make_rng(0))


class TestAbstractEngine:
    def _engine(self, **kwargs):
        machine = SimulatedMachine("cortex_a15", seed=8, sim_cycles=600)
        target = SimulatedTarget(machine)
        target.connect()
        defaults = dict(population_size=8, generations=5, loop_size=20,
                        tournament_size=3, seed=8)
        defaults.update(kwargs)
        return AbstractEngine(
            PowerMeasurement(target, {"samples": "2"}),
            DefaultFitness(), arm_template(), **defaults)

    def test_search_improves(self):
        engine = self._engine(generations=8)
        best = engine.run()
        series = engine.best_fitness_series()
        assert best.fitness >= series[0]
        assert series[-1] >= series[0]

    def test_history_length(self):
        engine = self._engine()
        engine.run()
        assert len(engine.history) == 5

    def test_best_individual_has_realisation(self):
        engine = self._engine()
        best = engine.run()
        assert best.loop_body
        assert best.measurements
        ArmAssembler().assemble(best.loop_body)

    def test_deterministic_per_seed(self):
        a = self._engine().run()
        b = self._engine().run()
        assert a.fitness == b.fitness
        assert a.profile == b.profile

    def test_elitism_keeps_best_monotone(self):
        engine = self._engine(generations=8)
        engine.run()
        series = engine.best_fitness_series()
        assert all(b >= a - 0.02 * series[-1]
                   for a, b in zip(series, series[1:]))

    def test_each_evaluation_follows_the_repeat_policy(self):
        # As in the instruction-level engine, an evaluation samples a
        # repeats="3" measurement three times.
        measurement = ScriptedMeasurement(lambda individual: [1.0],
                                          {"repeats": "3"})
        AbstractEngine(measurement, DefaultFitness(), arm_template(),
                       loop_size=20, population_size=4, generations=1,
                       seed=8).run()
        assert measurement.calls == 3 * 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            self._engine(population_size=1)
        with pytest.raises(ConfigError):
            self._engine(generations=0)
