"""Pluggable executor backends (the paper's "multiple boards").

GeST measures a generation's individuals on however many target boards
are attached; the backend abstraction reproduces that degree of
freedom.  A backend takes the pre-rendered jobs the driver could not
satisfy from cache and returns one :class:`EvaluationResult` per job,
**in submission order** — the driver merges them back into the
population in deterministic uid order, so every backend yields
bit-identical checkpoints, populations and run histories.

* :class:`SerialBackend` — the default: evaluates in the driver
  process against the live plug-in objects, sharing their state
  (screen counters, call counters in test doubles) exactly as the old
  monolithic engine loop did.

* :class:`ProcessPoolBackend` — fans jobs out over N forked worker
  processes.  Each worker inherits a *replica* of the whole pipeline —
  its own :class:`~repro.cpu.machine.SimulatedMachine`, measurement,
  fitness and screen — so per-board state never races.  Requires the
  ``fork`` start method (the pipeline deliberately replicates by
  inheritance so even unpicklable user plug-ins parallelise); results
  and the per-job individuals are pickled across the process boundary.

An :class:`EmptyMeasurementError` raised inside a worker is returned
*in band* as the result item for its job; the driver applies every
result before the failure point, checkpoints, and re-raises — so a
plug-in bug costs at most one generation regardless of backend.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..cpu.machine import BatchedMachine, SimulatedMachine
from ..isa.splice import TemplateSplicer
from .pipeline import EmptyMeasurementError, EvaluationPipeline, \
    EvaluationResult, StageTimings, noise_key

__all__ = ["ExecutorBackend", "SerialBackend", "BatchedBackend",
           "ProcessPoolBackend", "AutoSelectBackend", "supports_batching"]

#: A unit of work: the individual plus its pre-rendered source.
Job = Tuple[Individual, str]
#: Backends return results or, in band, the error that stopped a job.
ResultOrError = Union[EvaluationResult, EmptyMeasurementError]


class ExecutorBackend(ABC):
    """Strategy interface for evaluating a batch of pipeline jobs."""

    #: True when the backend evaluates against the driver's live
    #: plug-in objects (their in-process state — screen counters, test
    #: doubles — observes the evaluations).  Replicating backends set
    #: this False so the driver knows to sync observable counters from
    #: the returned results instead.
    shares_state = True

    @abstractmethod
    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        """Evaluate ``jobs``; results in submission order.

        Stops dispatching after the first
        :class:`EmptyMeasurementError`, which is appended in band as
        the final item.
        """

    def close(self) -> None:
        """Release any execution resources (idempotent)."""


def _serial_loop(pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
    """Per-job pipeline evaluation, stopping at the first in-band error."""
    results: List[ResultOrError] = []
    for individual, source in jobs:
        try:
            results.append(pipeline.evaluate(individual, source=source))
        except EmptyMeasurementError as exc:
            results.append(exc)
            break
    return results


class SerialBackend(ExecutorBackend):
    """Evaluate in the driver process — bit-identical to the engine's
    historical single loop, and the default."""

    shares_state = True

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        return _serial_loop(pipeline, jobs)


def supports_batching(pipeline: EvaluationPipeline) -> bool:
    """True when ``pipeline`` can take the population-batched path.

    Requires a measurement that (a) opts in via
    :meth:`~repro.measurement.base.Measurement.supports_batching` —
    i.e. implements ``measure_from_result`` so one target execution
    fully determines its values, (b) exposes the stock execution
    parameters, and (c) sits on a :class:`SimulatedTarget` backed by a
    real :class:`~repro.cpu.machine.SimulatedMachine` with a reseedable
    noise stream (without per-individual reseeding the serial path's
    noise draws are order-dependent and a batch could not replicate
    them).
    """
    measurement = pipeline.measurement
    probe = getattr(measurement, "supports_batching", None)
    if not callable(probe) or not probe():
        return False
    if getattr(pipeline, "_reseed", None) is None:
        return False
    machine = getattr(getattr(measurement, "target", None), "machine", None)
    if not isinstance(machine, SimulatedMachine):
        return False
    for attr in ("duration_s", "cores", "sample_count", "repeats",
                 "source_name"):
        if not hasattr(measurement, attr):
            return False
    return callable(getattr(measurement, "aggregate_rounds", None))


class BatchedBackend(ExecutorBackend):
    """Evaluate a whole generation as one vectorized pass.

    The render→measure→score path is re-staged population-wide:
    screening stays per-individual (in job order, against the live
    screen object), every surviving source is compiled through a
    :class:`~repro.isa.splice.TemplateSplicer` (template scaffolding
    assembled once, only loop bodies re-decoded), and all programs then
    execute as a single :class:`~repro.cpu.machine.BatchedMachine` pass
    — lockstep pipeline scheduling, then per-program energy, power and
    PDN through the serial code.  Per-individual noise substreams are
    replayed afterwards in job order, so every observable is
    bit-identical to :class:`SerialBackend`.

    Pipelines that cannot batch (custom measurements without
    ``measure_from_result``, non-simulated targets) silently take the
    serial per-job loop — correctness never depends on batching.

    Stage-time accounting: screen and score remain per-individual;
    the batch's compile+execute wall time is apportioned equally
    across the batched jobs' ``measure_s``.
    """

    shares_state = True

    def __init__(self) -> None:
        self._pipeline: Optional[EvaluationPipeline] = None
        self._splicer: Optional[TemplateSplicer] = None
        self._batched: Optional[BatchedMachine] = None

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        return self.evaluate_generation(pipeline, jobs)

    def evaluate_generation(self, pipeline: EvaluationPipeline,
                            jobs: Sequence[Job]) -> List[ResultOrError]:
        if not jobs:
            return []
        if not supports_batching(pipeline):
            return _serial_loop(pipeline, jobs)
        measurement = pipeline.measurement
        machine: SimulatedMachine = measurement.target.machine
        if self._pipeline is not pipeline:
            self._pipeline = pipeline
            self._splicer = TemplateSplicer(pipeline.template,
                                            machine.assembler)
            self._batched = BatchedMachine(machine)

        n = len(jobs)
        slots: List[Optional[ResultOrError]] = [None] * n
        timings = [StageTimings() for _ in range(n)]
        runnable: List[int] = []
        for index, (individual, source) in enumerate(jobs):
            if pipeline.screen is not None:
                began = perf_counter()  # staticcheck: disable=SC404
                report = pipeline.screen.screen(source, individual)
                timings[index].screen_s += perf_counter() - began  # staticcheck: disable=SC404
                if not report.passed:
                    slots[index] = EvaluationResult(
                        uid=individual.uid, source=source,
                        measurements=[0.0], fitness=0.0,
                        compile_failed=report.assembly_failed,
                        screen_failed=True, timings=timings[index])
                    continue
            runnable.append(index)

        # Compile (spliced) and execute the whole batch.
        began_measure = perf_counter()  # staticcheck: disable=SC404
        translator = getattr(measurement.target, "translator", None)
        programs = {}
        deltas = {}
        for index in runnable:
            individual, source = jobs[index]
            hits_before = machine.compile_cache_hits
            misses_before = machine.compile_cache_misses
            text = translator(source) if translator is not None else source
            try:
                programs[index] = machine.compile(
                    text, name=measurement.source_name,
                    builder=self._splicer.compile)
            except AssemblyError:
                slots[index] = EvaluationResult(
                    uid=individual.uid, source=source,
                    measurements=[0.0], fitness=0.0,
                    compile_failed=True, timings=timings[index],
                    compile_cache_hits=machine.compile_cache_hits
                    - hits_before,
                    compile_cache_misses=machine.compile_cache_misses
                    - misses_before)
                continue
            deltas[index] = (machine.compile_cache_hits - hits_before,
                             machine.compile_cache_misses - misses_before)
        batch_rows = [index for index in runnable if index in programs]
        rounds_by_row: List[List] = []
        if batch_rows:
            rounds_by_row = self._batched.run_batch(
                [programs[index] for index in batch_rows],
                duration_s=measurement.duration_s,
                cores=measurement.cores,
                power_sample_count=measurement.sample_count,
                noise_keys=[noise_key(pipeline.noise_seed, jobs[index][1])
                            for index in batch_rows],
                repeats=measurement.repeats)
        measure_share = (perf_counter() - began_measure) \
            / max(1, len(runnable))
        for index in runnable:
            timings[index].measure_s += measure_share

        # Interpret, aggregate and score per individual, in job order.
        error_at: Optional[int] = None
        error: Optional[EmptyMeasurementError] = None
        for row, index in enumerate(batch_rows):
            individual, source = jobs[index]
            rounds = [measurement.measure_from_result(result, individual)
                      for result in rounds_by_row[row]]
            measurements = measurement.aggregate_rounds(rounds, individual)
            if not measurements:
                error_at = index
                error = EmptyMeasurementError(
                    f"measurement {type(measurement).__name__!r} returned "
                    f"an empty result list for individual "
                    f"uid={individual.uid} in generation "
                    f"{individual.generation}")
                break
            began = perf_counter()  # staticcheck: disable=SC404
            value = pipeline.score(measurements, individual)
            timings[index].score_s += perf_counter() - began  # staticcheck: disable=SC404
            hits, misses = deltas[index]
            slots[index] = EvaluationResult(
                uid=individual.uid, source=source,
                measurements=list(measurements), fitness=value,
                timings=timings[index],
                compile_cache_hits=hits, compile_cache_misses=misses)

        if error is not None:
            # Mirror the serial stop point: everything before the
            # failing job stands, the error goes in band, later results
            # (already computed, as with any parallel dispatch) drop.
            results: List[ResultOrError] = [
                item for item in slots[:error_at] if item is not None]
            results.append(error)
            return results
        return [item for item in slots if item is not None]


# -- worker-side plumbing (module-level so the pool can address it) ---------

_WORKER_PIPELINE: Optional[EvaluationPipeline] = None


def _init_worker(pipeline: EvaluationPipeline) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _run_job(job: Job) -> ResultOrError:
    individual, source = job
    try:
        return _WORKER_PIPELINE.evaluate(individual, source=source)
    except EmptyMeasurementError as exc:
        return exc


_WORKER_BATCHED: Optional[BatchedBackend] = None


def _run_subbatch(chunk: Sequence[Job]) -> List[ResultOrError]:
    """Evaluate a contiguous slice of the generation as one batch.

    The worker-global :class:`BatchedBackend` runs the slice through
    the vectorized path against the worker's forked pipeline replica —
    the pool's parallelism composes with the batch speedup instead of
    competing with it.
    """
    global _WORKER_BATCHED
    if _WORKER_BATCHED is None:
        _WORKER_BATCHED = BatchedBackend()
    return _WORKER_BATCHED.evaluate_generation(_WORKER_PIPELINE, chunk)


def _run_chunk(chunk: Sequence[Job]) -> List[ResultOrError]:
    """Evaluate a contiguous slice of the generation in one worker.

    One pickled round trip carries the whole slice's jobs out and its
    results back — per-individual dispatch costs one IPC exchange per
    *individual*, which at simulator evaluation rates dominates the
    work itself and made the pool slower than serial.  Stops at the
    first in-band failure, mirroring SerialBackend within the slice.
    """
    results: List[ResultOrError] = []
    for job in chunk:
        item = _run_job(job)
        results.append(item)
        if isinstance(item, EmptyMeasurementError):
            break
    return results


class ProcessPoolBackend(ExecutorBackend):
    """Fan a generation's unevaluated individuals over worker processes.

    The pool is created lazily on the first batch (so the fork
    snapshots the fully-constructed pipeline) and persists across
    generations; the engine closes it when the run finishes.
    """

    shares_state = False

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("evaluation workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "ProcessPoolBackend needs the 'fork' start method (worker "
                "replicas inherit the pipeline by forking); this platform "
                "offers none — use SerialBackend")
        self.workers = workers
        self._pool = None
        self._pipeline: Optional[EvaluationPipeline] = None

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        return self._fan_out(pipeline, jobs, _run_chunk)

    def evaluate_generation(self, pipeline: EvaluationPipeline,
                            jobs: Sequence[Job]) -> List[ResultOrError]:
        """Fan out as contiguous sub-batches, each evaluated through a
        worker-local :class:`BatchedBackend` — vectorized execution
        inside every worker, process parallelism across them."""
        return self._fan_out(pipeline, jobs, _run_subbatch)

    def _fan_out(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job], runner) -> List[ResultOrError]:
        if not jobs:
            return []
        pool = self._ensure_pool(pipeline)
        # One contiguous slice per worker: a single IPC round trip per
        # slice instead of one per individual.  map() preserves
        # submission order, and flattening then truncating at the first
        # in-band error reproduces SerialBackend's stop point exactly
        # (later slices may have run, as with any parallel dispatch,
        # but their results are discarded).
        n = len(jobs)
        worker_count = min(self.workers, n)
        base, extra = divmod(n, worker_count)
        chunks: List[List[Job]] = []
        start = 0
        for index in range(worker_count):
            size = base + (1 if index < extra else 0)
            chunks.append(list(jobs[start:start + size]))
            start += size
        results: List[ResultOrError] = []
        for chunk_results in pool.map(runner, chunks, chunksize=1):
            stop = False
            for item in chunk_results:
                results.append(item)
                if isinstance(item, EmptyMeasurementError):
                    stop = True
                    break
            if stop:
                break
        return results

    def _ensure_pool(self, pipeline: EvaluationPipeline):
        if self._pool is not None and self._pipeline is not pipeline:
            # A stale pool would evaluate against the old forked replica.
            self.close()
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.workers,
                                      initializer=_init_worker,
                                      initargs=(pipeline,))
            self._pipeline = pipeline
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pipeline = None


#: Measured crossover points (dev container, cortex_a15 preset,
#: sim_cycles=600, bare_metal).  Below ``_BATCH_MIN_JOBS`` misses the
#: lockstep batch's setup overhead loses to the plain serial loop;
#: forking/IPC only amortises once a generation carries at least
#: ``_POOL_MIN_CYCLE_WORK`` job·cycles of simulation *and* every worker
#: still receives a batch-worthy slice.
_BATCH_MIN_JOBS = 8
_POOL_MIN_CYCLE_WORK = 64 * 600


class AutoSelectBackend(ExecutorBackend):
    """Pick serial / batched / pooled execution per generation.

    The historical default silently used a process pool whenever
    ``workers > 1`` — on small populations or short simulations the
    fork+pickle overhead made that a net loss.  This backend sizes each
    generation (jobs × ``sim_cycles``) against measured crossover
    points and routes it to the cheapest delegate, recording the
    decision in :attr:`last_choice` / :attr:`last_reason` so each
    generation's stats row shows which engine ran it and why.
    """

    def __init__(self, pool_workers: int = 1) -> None:
        self.pool_workers = max(1, int(pool_workers))
        self._serial = SerialBackend()
        self._batched = BatchedBackend()
        self._pool: Optional[ProcessPoolBackend] = None
        self._last: ExecutorBackend = self._serial
        self.last_choice = "serial"
        self.last_reason = "no generation evaluated yet"

    @property
    def shares_state(self) -> bool:  # type: ignore[override]
        """Reflects the delegate that ran the last generation."""
        return self._last.shares_state

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        return self.evaluate_generation(pipeline, jobs)

    def evaluate_generation(self, pipeline: EvaluationPipeline,
                            jobs: Sequence[Job]) -> List[ResultOrError]:
        delegate = self._choose(pipeline, jobs)
        self._last = delegate
        if isinstance(delegate, ProcessPoolBackend):
            return delegate.evaluate_generation(pipeline, jobs)
        return delegate.evaluate(pipeline, jobs)

    def _choose(self, pipeline: EvaluationPipeline,
                jobs: Sequence[Job]) -> ExecutorBackend:
        n = len(jobs)
        if not supports_batching(pipeline):
            # Non-batchable pipelines: the only lever left is the pool.
            if self.pool_workers > 1 and n >= 2 * self.pool_workers:
                self.last_choice = "pool"
                self.last_reason = (
                    f"pipeline not batchable; {n} jobs across "
                    f"{self.pool_workers} workers")
                return self._ensure_pool()
            self.last_choice = "serial"
            self.last_reason = (
                f"pipeline not batchable; {n} jobs too few for "
                f"{self.pool_workers} workers")
            return self._serial
        if n < _BATCH_MIN_JOBS:
            self.last_choice = "serial"
            self.last_reason = (
                f"{n} jobs < batch crossover {_BATCH_MIN_JOBS}")
            return self._serial
        cycles = getattr(pipeline.measurement.target.machine,
                         "sim_cycles", 0)
        work = n * cycles
        if (self.pool_workers > 1
                and work >= _POOL_MIN_CYCLE_WORK
                and n // self.pool_workers >= _BATCH_MIN_JOBS):
            self.last_choice = "pool"
            self.last_reason = (
                f"{n} jobs x {cycles} cycles >= pool crossover "
                f"{_POOL_MIN_CYCLE_WORK}; batched sub-batches on "
                f"{self.pool_workers} workers")
            return self._ensure_pool()
        self.last_choice = "batched"
        self.last_reason = (
            f"{n} jobs >= {_BATCH_MIN_JOBS}, single vectorized pass "
            f"beats {self.pool_workers} worker(s) at {cycles} cycles")
        return self._batched

    def _ensure_pool(self) -> ProcessPoolBackend:
        if self._pool is None:
            self._pool = ProcessPoolBackend(self.pool_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
