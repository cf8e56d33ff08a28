"""Executor backends (the paper's "multiple boards").

GeST measures a generation's individuals on however many target boards
are attached; the backend abstraction reproduces that degree of
freedom.  A backend's one entry point, :meth:`ExecutorBackend.evaluate`,
takes the whole generation's pre-rendered jobs that the evaluator
could not satisfy from cache and returns one :class:`EvaluationResult`
per job, **in submission order** — the evaluator merges them back into
the population in deterministic uid order, so every backend yields
bit-identical checkpoints, populations and run histories.

* :class:`SerialBackend` — evaluates job by job in the engine's
  process against the live plug-in objects.

* :class:`BatchedBackend` — runs the pipeline's compile and screen
  stages per job and has the measurement measure the compiled programs
  as one batch, before the pipeline's own score stage.

* :class:`ProcessPoolBackend` — fans the generation out over N forked
  worker processes, one contiguous slice each, evaluated there by a
  worker-local :class:`BatchedBackend`.  Each worker inherits a
  *replica* of the whole pipeline — its own
  :class:`~repro.cpu.machine.SimulatedMachine`, measurement, fitness
  and screen — so per-board state never races.  Requires the ``fork``
  start method (the pipeline deliberately replicates by inheritance so
  even unpicklable user plug-ins parallelise); results and the per-job
  individuals are pickled across the process boundary.

* :class:`AutoSelectBackend` — what the engine runs: routes each
  generation to one of the three above.

An :class:`EmptyMeasurementError` raised while evaluating a job is
returned *in band* as the result item for its job; the engine applies
every result before the failure point, checkpoints, and re-raises — so
a plug-in bug costs at most one generation regardless of backend.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigError
from ..core.individual import Individual
from ..isa.model import Program
from .pipeline import EmptyMeasurementError, EvaluationPipeline, \
    EvaluationResult, StageTimings, noise_key

__all__ = ["ExecutorBackend", "SerialBackend", "BatchedBackend",
           "ProcessPoolBackend", "AutoSelectBackend", "supports_batching"]

#: A unit of work: the individual plus its pre-rendered source.
Job = Tuple[Individual, str]
#: Backends return results or, in band, the error that stopped a job.
ResultOrError = Union[EvaluationResult, EmptyMeasurementError]


class ExecutorBackend(ABC):
    """Strategy interface for evaluating one generation's jobs.

    Everything the evaluator records comes back in the results, so no
    executor depends on plug-in state in the engine's process.
    """

    #: Stats label of the engine that evaluated the last generation.
    name = ""
    #: Why that engine was picked (filled in by auto-selection).
    reason = ""

    @abstractmethod
    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        """Evaluate one generation's ``jobs``; results in submission
        order.

        Stops at the first :class:`EmptyMeasurementError`, which is
        appended in band as the final item.
        """

    def close(self) -> None:
        """Release any execution resources (idempotent)."""


class SerialBackend(ExecutorBackend):
    """Evaluate job by job in the engine's process."""

    name = "serial"

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        results: List[ResultOrError] = []
        for individual, source in jobs:
            try:
                results.append(pipeline.evaluate(individual, source=source))
            except EmptyMeasurementError as exc:
                results.append(exc)
                break
        return results


def supports_batching(pipeline: EvaluationPipeline) -> bool:
    """True when :meth:`Measurement.supports_batching
    <repro.measurement.base.Measurement.supports_batching>` lets a batch
    stand in for the pipeline's measure stage."""
    return pipeline.measurement.supports_batching()


class BatchedBackend(ExecutorBackend):
    """Evaluate a whole generation as one batch.

    The pipeline's compile and screen stages stay per job, in job order
    (:meth:`EvaluationPipeline.prepare
    <repro.evaluation.pipeline.EvaluationPipeline.prepare>`); the
    measurement then measures the programs they produced as one batch
    (:meth:`~repro.measurement.base.Measurement.measure_batch`) and the
    pipeline scores each row, so every observable is bit-identical to
    :class:`SerialBackend`.  Where :func:`supports_batching` is false (a
    procedure overriding ``measure``, ``measure_repeated``,
    ``execute_on_target`` or ``reseed_noise``) the serial per-job loop
    runs instead.  The backend holds no state.

    Stage-time accounting: compile, screen and score remain per job;
    the batch's run and interpretation time is split equally across the
    batched jobs' ``measure_s``.
    """

    name = "batched"

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        if not supports_batching(pipeline):
            return SerialBackend().evaluate(pipeline, jobs)

        results: List[EvaluationResult] = []
        batch: List[Tuple[int, Program]] = []
        for individual, source in jobs:
            program, result = pipeline.prepare(individual, source,
                                               StageTimings())
            if program is not None:
                batch.append((len(results), program))
            results.append(result)

        machine = pipeline.machine
        hits, misses = machine.schedule_memo_hits, \
            machine.schedule_memo_misses
        run = StageTimings()
        with run.stage("measure"):
            values = pipeline.measurement.measure_batch(
                [program for _, program in batch],
                [jobs[index][0] for index, _ in batch],
                [noise_key(pipeline.noise_seed, jobs[index][1])
                 for index, _ in batch])
        for index, _ in batch:
            results[index].timings.measure_s += run.measure_s / len(batch)
        if batch:
            first = results[batch[0][0]]
            first.schedule_memo_hits = machine.schedule_memo_hits - hits
            first.schedule_memo_misses = \
                machine.schedule_memo_misses - misses

        # Score per individual, in job order.
        for (index, _), measurements in zip(batch, values):
            try:
                pipeline.scored(results[index], jobs[index][0],
                                measurements)
            except EmptyMeasurementError as exc:
                # Mirror the serial stop point: everything before the
                # failing job stands, the error goes in band, later
                # results (already computed, as with any parallel
                # dispatch) drop.
                return results[:index] + [exc]
        return results


# -- worker-side plumbing (module-level so the pool can address it) ---------

_WORKER_PIPELINE: Optional[EvaluationPipeline] = None


def _init_worker(pipeline: EvaluationPipeline) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _run_subbatch(chunk: Sequence[Job]) -> List[ResultOrError]:
    """Evaluate a contiguous slice of the generation as one batch.

    A :class:`BatchedBackend` runs the slice against the worker's
    forked pipeline replica — the pool's parallelism composes with the
    batch speedup instead of competing with it.
    """
    return BatchedBackend().evaluate(_WORKER_PIPELINE, chunk)


class ProcessPoolBackend(ExecutorBackend):
    """Fan a generation's unevaluated individuals over worker processes.

    Each worker gets one contiguous slice of the generation and
    evaluates it through a worker-local :class:`BatchedBackend` —
    batched inside every worker, process-parallel across them.  The
    pool is created lazily on the first generation (so the fork
    snapshots the fully-constructed pipeline) and persists across
    generations; the engine closes it when the run finishes.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("evaluation workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "ProcessPoolBackend needs the 'fork' start method (worker "
                "replicas inherit the pipeline by forking); this platform "
                "offers none — run with workers=1")
        self.workers = workers
        self._pool = None
        self._pipeline: Optional[EvaluationPipeline] = None

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
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
        for chunk_results in pool.map(_run_subbatch, chunks, chunksize=1):
            for item in chunk_results:
                results.append(item)
                if isinstance(item, EmptyMeasurementError):
                    return results
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


#: Forking and IPC amortise once a generation carries
#: ``_POOL_MIN_CYCLE_WORK`` job·cycles of simulation and every worker
#: still receives at least ``_POOL_MIN_SLICE`` jobs.  Below that, the
#: in-process batch takes only repeated measurements of at least
#: ``_BATCH_MIN_JOBS`` jobs; at 3 repeats it beat the serial loop on
#: every measured platform from 4 jobs.  At one repeat its medians ran
#: 0.79-1.10x serial from 8 to 64 jobs but it won only some seeds, so
#: single-repeat generations stay serial (stock ``sim_cycles=1600``,
#: 2-core host; docs/PERFORMANCE.md).
_BATCH_MIN_JOBS = 8
_POOL_MIN_SLICE = 8
_POOL_MIN_CYCLE_WORK = 64 * 600


class AutoSelectBackend(ExecutorBackend):
    """Pick serial / batched / pooled execution per generation.

    Every engine evaluates through this backend.  It sizes each
    generation (jobs, measurement repeats, jobs × ``sim_cycles``)
    against measured crossover points and routes it to the cheapest
    delegate; ``pool_workers`` only caps the process pool (1 = never
    pool).  :attr:`name` and :attr:`reason` record which delegate ran
    the last generation and why, so each generation's stats row shows
    it.
    """

    def __init__(self, pool_workers: int = 1) -> None:
        self.pool_workers = max(1, int(pool_workers))
        self._serial = SerialBackend()
        self._batched = BatchedBackend()
        self._pool: Optional[ProcessPoolBackend] = None
        self._last: ExecutorBackend = self._serial
        self.reason = "no generation evaluated yet"

    @property
    def name(self) -> str:  # type: ignore[override]
        """The delegate that ran the last generation."""
        return self._last.name

    def evaluate(self, pipeline: EvaluationPipeline,
                 jobs: Sequence[Job]) -> List[ResultOrError]:
        self._last, self.reason = self._choose(pipeline, len(jobs))
        return self._last.evaluate(pipeline, jobs)

    def _choose(self, pipeline: EvaluationPipeline,
                n: int) -> Tuple[ExecutorBackend, str]:
        workers = self.pool_workers
        if not supports_batching(pipeline):
            # Non-batchable pipelines: the only lever left is the pool.
            if workers > 1 and n >= 2 * workers:
                return self._ensure_pool(), (
                    f"pipeline not batchable; {n} jobs across "
                    f"{workers} workers")
            return self._serial, (
                f"pipeline not batchable; {n} jobs too few for "
                f"{workers} workers")
        cycles = pipeline.machine.sim_cycles
        work = n * cycles
        if (workers > 1 and work >= _POOL_MIN_CYCLE_WORK
                and n // workers >= _POOL_MIN_SLICE):
            return self._ensure_pool(), (
                f"{n} jobs x {cycles} cycles >= pool crossover "
                f"{_POOL_MIN_CYCLE_WORK}; batched sub-batches on "
                f"{workers} workers")
        repeats = pipeline.measurement.repeats
        if repeats > 1 and n >= _BATCH_MIN_JOBS:
            return self._batched, (
                f"{n} jobs at repeats={repeats}: one batched pass "
                f"replays the noise instead of re-running each repeat")
        return self._serial, (
            f"{n} jobs at repeats={repeats}: below the batch and pool "
            f"crossovers for {workers} worker(s) at {cycles} cycles")

    def _ensure_pool(self) -> ProcessPoolBackend:
        if self._pool is None:
            self._pool = ProcessPoolBackend(self.pool_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
