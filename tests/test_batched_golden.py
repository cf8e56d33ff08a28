"""Golden equivalence suite for the population-batched evaluation path.

The batched pipeline (:class:`repro.cpu.machine.BatchedMachine`,
:class:`repro.evaluation.backends.BatchedBackend`) promises *bitwise*
identical per-individual observables to the serial path — not merely
statistically equivalent — and the very same trace, tiled kernel
included: with steady-state detection on it schedules each row through
the machine's own pipeline, and only with detection off does it run
the lockstep scheduler.  These tests enforce that promise and that
routing across microarchitecture presets (in-order and out-of-order),
steady-state detection on and off, cache-modelled machines (which the
batched path schedules serially), repeated measurements, noisy
environments, and ragged generations where screen failures and
evaluation-cache hits interleave with the batch.
"""

import random

import numpy as np
import pytest

from repro.core.config import RunConfig, parse_config_file
from repro.core.engine import GeneticEngine
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu.cache import MemoryHierarchy
from repro.cpu.machine import BatchedMachine, SimulatedMachine
from repro.cpu.target import SimulatedTarget
from repro.evaluation import EvaluationCache
from repro.evaluation.backends import (AutoSelectBackend, BatchedBackend,
                                       ProcessPoolBackend, SerialBackend,
                                       supports_batching)
from repro.evaluation.pipeline import EvaluationPipeline, noise_key
from repro.fitness.default_fitness import DefaultFitness
from repro.measurement.oscilloscope import OscilloscopeMeasurement
from repro.measurement.power import PowerMeasurement
from repro.staticcheck.screen import StaticScreen

CONFIG = "configs/arm_power/config.xml"

#: In-order (cortex_a7) and out-of-order presets, per the golden matrix.
PRESETS = ("cortex_a15", "cortex_a7", "xgene2", "cortex_a57")


@pytest.fixture(scope="module")
def config() -> RunConfig:
    return parse_config_file(CONFIG)


def _programs(machine: SimulatedMachine, config: RunConfig, count: int,
              seed: int = 42):
    template = Template(config.template_text)
    rng = random.Random(seed)
    programs = []
    for uid in range(count):
        individual = random_individual(config.library,
                                       config.ga.individual_size, rng,
                                       uid=uid)
        source = template.instantiate(individual.render_body())
        programs.append(machine.assembler.assemble(source,
                                                   name=f"g{uid}.s"))
    return programs


def _assert_run_results_equal(serial, batched):
    assert serial.ipc == batched.ipc
    assert serial.core_power_w == batched.core_power_w
    assert serial.chip_power_w == batched.chip_power_w
    assert serial.power_samples_w == batched.power_samples_w
    assert serial.temperature_samples_c == batched.temperature_samples_c
    assert np.array_equal(serial.voltage.voltage, batched.voltage.voltage)
    assert serial.voltage.warmup_samples == batched.voltage.warmup_samples
    assert serial.crashed == batched.crashed
    assert serial.noc_power_w == batched.noc_power_w
    assert serial.trace.prefix_cycles == batched.trace.prefix_cycles
    assert serial.trace.period_cycles == batched.trace.period_cycles
    assert serial.trace.simulated_cycles == batched.trace.simulated_cycles


class TestBatchedMachineGoldens:
    """run_batch vs machine.run, bit for bit."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("detection", [True, False],
                             ids=["detect", "full-sim"])
    def test_presets_and_detection(self, config, preset, detection):
        machine = SimulatedMachine(preset, sim_cycles=400,
                                   steady_state_detection=detection)
        programs = _programs(machine, config, 12)
        keys = [noise_key(3, p.name) for p in programs]
        serial = []
        for key, program in zip(keys, programs):
            machine.reseed(key)
            serial.append(machine.run(program, duration_s=1.0,
                                      power_sample_count=3))
        batched = BatchedMachine(machine).run_batch(
            programs, duration_s=1.0, power_sample_count=3,
            noise_keys=keys)
        for reference, rounds in zip(serial, batched):
            assert len(rounds) == 1
            _assert_run_results_equal(reference, rounds[0])

    @pytest.mark.parametrize("detection", [True, False],
                             ids=["detect", "full-sim"])
    def test_lockstep_serves_only_detection_off(self, config, monkeypatch,
                                                detection):
        """One steady-state detector: with detection on every row is
        scheduled by ``machine.pipeline``; the lockstep scheduler runs
        once over the whole batch only when detection is off."""
        import repro.cpu.machine as machine_module
        calls = []
        lockstep = machine_module.simulate_population

        def recorder(programs, *args, **kwargs):
            calls.append(list(programs))
            return lockstep(programs, *args, **kwargs)
        monkeypatch.setattr(machine_module, "simulate_population", recorder)
        machine = SimulatedMachine("cortex_a15", sim_cycles=400,
                                   steady_state_detection=detection)
        programs = _programs(machine, config, 6)
        BatchedMachine(machine).run_batch(programs, duration_s=1.0,
                                          power_sample_count=3)
        if detection:
            assert calls == []
        else:
            assert len(calls) == 1
            assert calls[0] == programs

    def test_noisy_environment_and_repeats(self, config):
        machine = SimulatedMachine("cortex_a15", sim_cycles=400,
                                   environment="os")
        programs = _programs(machine, config, 8)
        keys = [noise_key(9, p.name) for p in programs]
        serial = []
        for key, program in zip(keys, programs):
            machine.reseed(key)
            serial.append([machine.run(program, duration_s=1.0,
                                       power_sample_count=4)
                           for _ in range(3)])
        batched = BatchedMachine(machine).run_batch(
            programs, duration_s=1.0, power_sample_count=4,
            noise_keys=keys, repeats=3)
        for reference_rounds, rounds in zip(serial, batched):
            assert len(rounds) == 3
            for reference, result in zip(reference_rounds, rounds):
                _assert_run_results_equal(reference, result)

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_cache_hierarchy_falls_back_bit_identically(self, config,
                                                        repeats):
        """Cache-modelled machines schedule serially; repeats still
        equal that many serial ``machine.run`` rounds, noise included."""
        def build():
            return SimulatedMachine("cortex_a15", sim_cycles=400,
                                    environment="os",
                                    hierarchy=MemoryHierarchy())
        machine = build()
        programs = _programs(machine, config, 6)
        keys = [noise_key(5, p.name) for p in programs]
        serial = []
        for key, program in zip(keys, programs):
            machine.reseed(key)
            serial.append([machine.run(program, duration_s=1.0,
                                       power_sample_count=3)
                           for _ in range(repeats)])
        replica = build()
        replica_programs = _programs(replica, config, 6)
        batched = BatchedMachine(replica).run_batch(
            replica_programs, duration_s=1.0, power_sample_count=3,
            noise_keys=keys, repeats=repeats)
        for reference_rounds, rounds in zip(serial, batched):
            assert len(rounds) == repeats
            for reference, result in zip(reference_rounds, rounds):
                _assert_run_results_equal(reference, result)
                assert result.cache is not None
                assert result.cache == reference.cache

    def test_ragged_steady_state_periods(self, config):
        """Mixed detected/undetected periods in one batch still match."""
        machine = SimulatedMachine("cortex_a15", sim_cycles=400)
        programs = _programs(machine, config, 16, seed=7)
        keys = [noise_key(11, p.name) for p in programs]
        batched = BatchedMachine(machine).run_batch(
            programs, duration_s=1.0, power_sample_count=3,
            noise_keys=keys)
        periods = {rounds[0].trace.period_cycles for rounds in batched}
        assert len(periods) > 1, "fixture lost its ragged-period property"
        for key, program, rounds in zip(keys, programs, batched):
            machine.reseed(key)
            _assert_run_results_equal(
                machine.run(program, duration_s=1.0, power_sample_count=3),
                rounds[0])


class _ScriptedMeasure(PowerMeasurement):
    def measure(self, source_text, individual):
        return [1.0]


class _ScriptedRepeated(PowerMeasurement):
    def measure_repeated(self, source_text, individual):
        return [1.0]


class _UnderVolted(PowerMeasurement):
    """Runs at 0.9x nominal supply, as a V_MIN sweep step would."""

    def execute_on_target(self, source_text, supply_v=None):
        return super().execute_on_target(
            source_text, supply_v=0.9 * self.target.machine.supply_v)


class _ShiftedNoise(PowerMeasurement):
    def reseed_noise(self, key):
        super().reseed_noise(key + 1)


#: One PowerMeasurement subclass per step a batch skips, each
#: overriding that step so that its values change.
_SKIPPED_STEPS = {
    "measure": _ScriptedMeasure,
    "measure_repeated": _ScriptedRepeated,
    "execute_on_target": _UnderVolted,
    "reseed_noise": _ShiftedNoise,
}


def _build_pipeline(config, measurement_cls=PowerMeasurement,
                    screen=False, hierarchy=False, params=None):
    machine = SimulatedMachine(
        "cortex_a15", seed=config.ga.seed or 0, sim_cycles=400,
        hierarchy=MemoryHierarchy() if hierarchy else None)
    target = SimulatedTarget(machine)
    target.connect()
    measurement = measurement_cls(
        target, dict(params or {"duration": "1", "samples": "3"}))
    return EvaluationPipeline(
        template=Template(config.template_text), measurement=measurement,
        fitness=DefaultFitness(),
        screen=StaticScreen.for_machine(machine) if screen else None,
        noise_seed=config.ga.seed or 0)


def _jobs(pipeline, config, count, seed=21, corrupt=()):
    rng = random.Random(seed)
    jobs = []
    for uid in range(count):
        individual = random_individual(config.library,
                                       config.ga.individual_size, rng,
                                       uid=uid)
        source = pipeline.render(individual)
        if uid in corrupt:
            source = source.replace("#loop_code", "", 1) \
                .replace("\n", "\nnot_an_opcode zz\n", 1)
        jobs.append((individual, source))
    return jobs


class TestBatchedBackendGoldens:
    """BatchedBackend vs SerialBackend over the full pipeline."""

    @pytest.mark.parametrize("measurement_cls",
                             [PowerMeasurement, OscilloscopeMeasurement])
    def test_equivalence_with_screen_failures(self, config,
                                              measurement_cls):
        results = {}
        for name, backend in (("serial", SerialBackend()),
                              ("batched", BatchedBackend())):
            pipeline = _build_pipeline(config, measurement_cls,
                                       screen=True)
            jobs = _jobs(pipeline, config, 12, corrupt={3, 8})
            results[name] = backend.evaluate(pipeline, jobs)
        assert len(results["serial"]) == len(results["batched"]) == 12
        for serial, batched in zip(results["serial"], results["batched"]):
            assert serial == batched or (
                serial.uid == batched.uid
                and serial.measurements == batched.measurements
                and serial.fitness == batched.fitness
                and serial.screen_failed == batched.screen_failed
                and serial.compile_failed == batched.compile_failed)
        flagged = [r.uid for r in results["batched"] if r.screen_failed]
        assert flagged == [3, 8]

    def test_repeats_and_median_aggregate(self, config):
        params = {"duration": "1", "samples": "3", "repeats": "3",
                  "aggregate": "median"}
        serial_pipeline = _build_pipeline(config, params=params)
        batched_pipeline = _build_pipeline(config, params=params)
        jobs_serial = _jobs(serial_pipeline, config, 10)
        jobs_batched = _jobs(batched_pipeline, config, 10)
        serial = SerialBackend().evaluate(serial_pipeline, jobs_serial)
        batched = BatchedBackend().evaluate(batched_pipeline, jobs_batched)
        for left, right in zip(serial, batched):
            assert left.measurements == right.measurements
            assert left.fitness == right.fitness

    def test_cache_hits_interleaved_with_misses(self, config):
        """A generation that is part cache-replay, part fresh batch."""
        def run(backend):
            from repro.evaluation.evaluator import StagedEvaluator
            pipeline = _build_pipeline(config)
            cache = EvaluationCache("golden")
            evaluator = StagedEvaluator(pipeline, backend=backend,
                                        cache=cache)
            jobs = _jobs(pipeline, config, 8)

            class _Population(list):
                number = 0
            first = _Population(ind for ind, _ in jobs[:5])
            evaluator.evaluate_population(first)
            # Individuals stay unevaluated (the engine, not the
            # evaluator, attaches results), so re-running the full
            # population re-renders the first five and replays them
            # from the cache, interleaved with three fresh misses.
            everyone = _Population(ind for ind, _ in jobs)
            outcome = evaluator.evaluate_population(everyone)
            return outcome

        serial = run(SerialBackend())
        batched = run(BatchedBackend())
        assert serial.cache_hits == batched.cache_hits == 5
        assert [r.uid for r in serial.results] \
            == [r.uid for r in batched.results]
        for left, right in zip(serial.results, batched.results):
            assert left.measurements == right.measurements
            assert left.fitness == right.fitness
            assert left.cache_hit == right.cache_hit

    def test_non_batchable_pipeline_falls_back(self, config):
        pipeline = _build_pipeline(config)

        class Custom(PowerMeasurement):
            def measure(self, source_text, individual):
                return [1.0]
        custom = Custom.__new__(Custom)
        custom.__dict__.update(pipeline.measurement.__dict__)
        Custom.measure_from_result = \
            PowerMeasurement.__mro__[1].measure_from_result
        assert not custom.supports_batching()
        pipeline.measurement = custom
        assert not supports_batching(pipeline)
        jobs = _jobs(pipeline, config, 4)
        results = BatchedBackend().evaluate(pipeline, jobs)
        assert [r.measurements for r in results] == [[1.0]] * 4

    @pytest.mark.parametrize("method", list(_SKIPPED_STEPS))
    def test_overridden_measure_is_never_batched(self, config, method):
        """A batch skips measure(), measure_repeated(),
        execute_on_target() and reseed_noise(); a subclass overriding
        any of them keeps its own procedure under every executor, even
        where the auto-selector would otherwise batch."""
        params = {"duration": "1", "samples": "3", "repeats": "3"}
        pipeline = _build_pipeline(
            config, measurement_cls=_SKIPPED_STEPS[method], params=params)
        assert not pipeline.measurement.supports_batching()
        assert not supports_batching(pipeline)
        backend = AutoSelectBackend()
        serial = backend.evaluate(pipeline, _jobs(pipeline, config, 8))
        assert backend.name == "serial"
        if method in ("measure", "measure_repeated"):
            assert [r.measurements for r in serial] == [[1.0]] * 8
        stock = _build_pipeline(config, params=params)
        assert [r.measurements for r in serial] != [
            r.measurements
            for r in SerialBackend().evaluate(stock,
                                              _jobs(stock, config, 8))]
        pool = ProcessPoolBackend(2)
        try:
            for other in (BatchedBackend(), pool):
                pipeline = _build_pipeline(
                    config, measurement_cls=_SKIPPED_STEPS[method],
                    params=params)
                results = other.evaluate(pipeline,
                                         _jobs(pipeline, config, 8))
                assert [(r.uid, r.measurements, r.fitness)
                        for r in results] == [
                    (r.uid, r.measurements, r.fitness) for r in serial]
        finally:
            pool.close()

    def test_auto_select_records_choice(self, config):
        backend = AutoSelectBackend(pool_workers=1)
        pipeline = _build_pipeline(config)
        backend.evaluate(pipeline, _jobs(pipeline, config, 64))
        assert backend.name == "serial"
        assert "64 jobs at repeats=1" in backend.reason
        repeated = _build_pipeline(
            config, params={"duration": "1", "samples": "3", "repeats": "3"})
        backend.evaluate(repeated, _jobs(repeated, config, 7))
        assert backend.name == "serial"
        assert "7 jobs at repeats=3" in backend.reason
        jobs = _jobs(repeated, config, 8)
        for individual, _ in jobs:
            individual.uid += 100
        backend.evaluate(repeated, jobs)
        assert backend.name == "batched"


class TestEngineBackendStats:
    def test_stats_record_backend_choice(self, config):
        import copy
        run_config = copy.deepcopy(config)
        run_config.ga.population_size = 10
        run_config.ga.generations = 2
        # Ten jobs a generation: serial at one repeat, batched at three.
        for repeats, expected in (("1", "serial"), ("3", "batched")):
            machine = SimulatedMachine("cortex_a15",
                                       seed=run_config.ga.seed or 0,
                                       sim_cycles=400)
            target = SimulatedTarget(machine)
            target.connect()
            measurement = PowerMeasurement(
                target,
                {"duration": "1", "samples": "3", "repeats": repeats})
            engine = GeneticEngine(
                run_config, measurement, DefaultFitness(),
                backend=AutoSelectBackend(pool_workers=1))
            history = engine.run(2)
            assert all(g.backend == expected for g in history.generations)
            assert all(g.backend_reason for g in history.generations)
