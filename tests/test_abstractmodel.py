"""Unit tests for the abstract-workload-model GA (repro.abstractmodel)."""

import pytest

from repro.abstractmodel import (CATEGORIES, AbstractProfileStrategy,
                                 ProfileIndividual, WorkloadProfile,
                                 generate_loop)
from repro.core import GAParameters, RunConfig, Template
from repro.core.engine import GeneticEngine
from repro.core.errors import ConfigError
from repro.core.output import FileRecorder
from repro.core.population import load_population
from repro.core.rng import make_rng
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.evaluation import (EvaluationCache, EvaluationPipeline,
                              ProcessPoolBackend, SerialBackend)
from repro.experiments import (GAScale, abstract_comparison, evolve_virus,
                               make_engine, make_machine)
from repro.fitness import DefaultFitness
from repro.isa import ArmAssembler, arm_library, arm_template, x86_library
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


def _config(**ga):
    """The abstract search's settings as a ``<ga>`` block: population
    8, 5 generations, 20-instruction loops, tournaments of 3."""
    settings = dict(population_size=8, individual_size=20, generations=5,
                    tournament_size=3, seed=8)
    settings.update(ga)
    return RunConfig(ga=GAParameters(**settings), library=arm_library(),
                     template_text=arm_template())


def _measurement(platform="cortex_a15"):
    machine = SimulatedMachine(platform, seed=8, sim_cycles=600)
    return PowerMeasurement(SimulatedTarget(machine), {"samples": "2"})


def _engine(measurement=None, config=None, **kwargs):
    """The abstract search on :class:`GeneticEngine`; ``<ga>`` settings
    among ``kwargs`` go to :func:`_config`, the rest to the engine."""
    ga = {key: kwargs.pop(key) for key in list(kwargs)
          if key in GAParameters.__dataclass_fields__}
    if measurement is None:
        measurement = _measurement()
    return GeneticEngine(config or _config(**ga), measurement,
                         DefaultFitness(),
                         strategy=AbstractProfileStrategy(), **kwargs)


def _trajectory(history):
    """Everything a run decides: its generations and every final
    genome with its measurements."""
    return (history.generations,
            [(i.uid, i.parent_ids, i.genome_key(), i.measurements)
             for i in history.final_population])


class TestAbstractEngine:
    """The abstract-workload search, run as a strategy on
    :class:`GeneticEngine`."""

    def test_search_improves(self):
        history = _engine(generations=8).run()
        series = history.best_fitness_series()
        assert history.best_individual.fitness >= series[0]
        assert series[-1] >= series[0]

    def test_history_length(self):
        assert len(_engine().run().generations) == 5

    def test_best_individual_has_realisation(self):
        best = _engine().run().best_individual
        assert best.render_body()
        assert best.measurements
        ArmAssembler().assemble(best.render_body())

    def test_deterministic_per_seed(self):
        a = _engine().run().best_individual
        b = _engine().run().best_individual
        assert a.fitness == b.fitness
        assert a.profile == b.profile

    def test_elitism_keeps_best_monotone(self):
        series = _engine(generations=8).run().best_fitness_series()
        assert all(b >= a - 0.02 * series[-1]
                   for a, b in zip(series, series[1:]))

    @pytest.mark.serial_evaluation
    def test_each_evaluation_follows_the_repeat_policy(self):
        # As in the instruction-level engine, an evaluation samples a
        # repeats="3" measurement three times.
        measurement = ScriptedMeasurement(lambda individual: [1.0],
                                          {"repeats": "3"})
        _engine(measurement, population_size=4, generations=1).run()
        assert measurement.calls == 3 * 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            _engine(population_size=1)
        with pytest.raises(ConfigError):
            _engine(generations=0)


class TestAbstractSearchContract:
    """The engine's guarantees hold for the abstract search: one noise
    key per source, P x G measurements, any executor or cache, exact
    resume, readable population binaries."""

    @pytest.mark.parametrize("platform", ["cortex_a15", "xgene2"])
    def test_comparison_winner_remeasures_bit_for_bit(self, platform):
        result = abstract_comparison(platform, seed=61,
                                     scale=GAScale(6, 3, samples=4))
        best = result.abstract_best
        pipeline = EvaluationPipeline(
            template=Template(arm_template()),
            measurement=PowerMeasurement(
                SimulatedTarget(make_machine(platform, seed=61)),
                {"samples": "4"}),
            fitness=DefaultFitness(), noise_seed=61)
        again = pipeline.evaluate(best)
        assert again.fitness == best.fitness
        assert list(again.measurements) == best.measurements

    def test_both_sides_measure_population_times_generations(self):
        scale = GAScale(population_size=6, generations=4,
                        individual_size=20, samples=2)
        abstract = make_engine(make_machine("cortex_a15", seed=3), "power",
                               3, scale,
                               strategy=AbstractProfileStrategy()).run()
        instruction_level = evolve_virus("cortex_a15", "power", 3,
                                         scale=scale, use_cache=False)
        assert sum(g.measured for g in abstract.generations) == 6 * 4
        assert sum(g.measured for g in
                   instruction_level.history.generations) == 6 * 4

    def test_executors_and_cache_give_equal_histories(self):
        serial = _engine(backend=SerialBackend()).run()
        pooled = _engine(backend=ProcessPoolBackend(2)).run()
        cached = _engine(backend=SerialBackend(),
                         cache=EvaluationCache("test")).run()
        assert _trajectory(serial) == _trajectory(pooled) == \
            _trajectory(cached)

    def test_resume_continues_the_uninterrupted_run(self, tmp_path):
        uninterrupted = _engine().run()
        checkpoint = tmp_path / "run.ckpt"
        _engine(checkpoint_path=checkpoint).run(generations=3)
        resumed = GeneticEngine.resume(
            _config(), _measurement(), DefaultFitness(), checkpoint,
            strategy=AbstractProfileStrategy()).run()
        assert [g.number for g in resumed.generations] == [3, 4]
        assert resumed.generations == uninterrupted.generations[3:]
        assert _trajectory(resumed)[1] == _trajectory(uninterrupted)[1]

    def test_population_binaries_load_as_profiles(self, tmp_path):
        history = _engine(recorder=FileRecorder(tmp_path)).run()
        loaded = load_population(tmp_path / "populations" /
                                 "population_2.bin")
        assert len(loaded) == 8
        assert all(isinstance(i, ProfileIndividual) for i in loaded)
        assert all(isinstance(i.profile, WorkloadProfile) for i in loaded)
        final = load_population(tmp_path / "populations" /
                                "population_4.bin")
        assert [i.genome_key() for i in final] == \
            [i.genome_key() for i in history.final_population]

    def test_x86_machine_refused_at_bind(self):
        config = _config()
        config.library = x86_library()
        with pytest.raises(ConfigError, match="ARM"):
            _engine(_measurement("athlon_x4"), config)

    def test_instruction_level_seed_population_refused(self, tmp_path):
        GeneticEngine(_config(generations=1), _measurement(),
                      DefaultFitness(), recorder=FileRecorder(tmp_path)).run()
        config = _config()
        config.seed_population_file = \
            tmp_path / "populations" / "population_0.bin"
        with pytest.raises(ConfigError, match="instruction-level"):
            _engine(config=config).run()

    def test_profile_seed_population_honoured(self, tmp_path):
        first = _engine(generations=1, recorder=FileRecorder(tmp_path)).run()
        config = _config()
        config.seed_population_file = \
            tmp_path / "populations" / "population_0.bin"
        seeded = _engine(config=config).run(generations=1)
        assert [i.genome_key() for i in seeded.final_population] == \
            [i.genome_key() for i in first.final_population]
