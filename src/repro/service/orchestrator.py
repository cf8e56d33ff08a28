"""Asyncio run orchestrator (GeST-as-a-service execution layer).

The store (:mod:`repro.store`) is the coordination channel: ``gest
submit`` INSERTs a queued run, and this orchestrator claims queued
runs atomically and executes them on a bounded pool of worker slots.
Each slot drives the ordinary engine machinery —
:class:`~repro.core.engine.GeneticEngine` with a
:class:`~repro.store.StoreRecorder` subscriber and a
:class:`~repro.store.SharedEvaluationCache` — in a thread via
``asyncio.to_thread``, so N runs progress concurrently while the event
loop stays responsive for claiming, shutdown and (in tests) clean
``until_idle`` draining.

Lifecycle guarantees:

* **Graceful cancellation** — ``RunStore.request_cancel`` flips a flag
  the engine polls between generations; the run checkpoints its last
  completed generation and lands in status ``cancelled``.
* **Crash-resume** — a run left in status ``running`` by a dead
  orchestrator is re-queued on startup and resumed from the checkpoint
  blob in the store, reproducing exactly what the uninterrupted run
  would have produced (the engine's bit-identical resume contract).
"""

from __future__ import annotations

import asyncio
import pickle
import tempfile
import traceback
from pathlib import Path
from typing import List, Optional, Union

from ..core.engine import GeneticEngine
from ..core.events import RunRecorder
from ..core.loader import instantiate, load_class
from ..core.output import FileRecorder
from ..cpu.machine import SimulatedMachine
from ..cpu.target import SimulatedTarget
from ..evaluation import cache_fingerprint
from ..measurement.base import Measurement
from ..staticcheck import StaticScreen
from ..store import RunStore, SharedEvaluationCache, StoreRecorder

__all__ = ["Orchestrator", "execute_run"]


def execute_run(store_path: Union[str, Path], run_id: str,
                workdir: Optional[Union[str, Path]] = None,
                workers: int = 1) -> str:
    """Execute one stored run to completion; returns its final status.

    Runs synchronously on the calling thread (the orchestrator wraps
    it in ``asyncio.to_thread``).  The run's configuration, platform
    and strategy come from the store; outputs go back into the store
    through a :class:`StoreRecorder`, plus the paper's directory layout
    under ``<workdir>/<run_id>/`` when a workdir is given.  A stored
    checkpoint (crash or cancellation leftover) is resumed, not
    restarted.  Failures are recorded as status ``failed`` with the
    error message; the exception is not re-raised, so one bad run
    never takes the service down.  Whatever the outcome, the cache
    flushes its hit/miss activity and the recorders close.
    """
    store = RunStore(store_path)
    cache: Optional[SharedEvaluationCache] = None
    recorders: List[RunRecorder] = []
    try:
        row = store.get_run(run_id)
        config = store.load_config(run_id)
        total = row.generations if row.generations is not None \
            else config.ga.generations

        target = SimulatedTarget(
            SimulatedMachine(row.platform, seed=config.ga.seed or 0))
        measurement = instantiate(config.measurement_class, Measurement,
                                  target, config.measurement_params)
        fitness = load_class(config.fitness_class)()
        screen = StaticScreen()
        cache = SharedEvaluationCache(
            store_path, cache_fingerprint(measurement, config.ga.seed or 0),
            run_id=run_id)

        recorders.append(StoreRecorder(RunStore(store_path)))
        if workdir is not None:
            run_dir = Path(workdir) / run_id
            recorders.append(FileRecorder(run_dir))
        else:
            run_dir = None

        with tempfile.TemporaryDirectory(prefix="gest-run-") as scratch:
            checkpoint_path = (run_dir or Path(scratch)) / "checkpoint.bin"
            stored = store.load_checkpoint(run_id)
            if stored is not None:
                generation, payload = stored
                checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
                checkpoint_path.write_bytes(payload)
                state = pickle.loads(payload)
                complete = all(ind.evaluated
                               for ind in state["population"])
                if complete and generation >= total - 1:
                    # The previous session checkpointed its final
                    # generation but died before the ledger update:
                    # nothing left to compute, just close the books.
                    best = state.get("best")
                    store.finish_run(
                        run_id,
                        best.uid if best is not None else None,
                        best.fitness if best is not None else None)
                    return "finished"
                engine = GeneticEngine.resume(
                    config, measurement, fitness,
                    checkpoint_path=checkpoint_path,
                    recorder=recorders, screen=screen, cache=cache,
                    workers=workers, strategy=row.strategy,
                    run_id=run_id)
            else:
                engine = GeneticEngine(
                    config, measurement, fitness, recorder=recorders,
                    checkpoint_path=checkpoint_path, screen=screen,
                    cache=cache, workers=workers, strategy=row.strategy,
                    run_id=run_id)

            history = engine.run(
                total, stop_check=lambda: store.cancel_requested(run_id))

        best = history.best_individual
        store.finish_run(run_id,
                         best.uid if best is not None else None,
                         best.fitness if best is not None else None,
                         cancelled=history.cancelled)
        return "cancelled" if history.cancelled else "finished"
    except Exception as exc:  # noqa: BLE001 - failures land in the ledger
        store.fail_run(run_id,
                       f"{type(exc).__name__}: {exc}\n"
                       f"{traceback.format_exc(limit=5)}")
        return "failed"
    finally:
        if cache is not None:
            cache.close()
        for recorder in recorders:
            recorder.close()
        store.close()


class Orchestrator:
    """Bounded-concurrency run service over one result store.

    Parameters
    ----------
    store_path:
        The sqlite store file (created on first use).
    workers:
        Concurrent run slots — each executes one run at a time on its
        own thread.
    queue_limit:
        Bound on runs claimed from the store but not yet started;
        keeps a huge backlog in the database (visible to ``gest
        runs``), not in process memory.
    workdir:
        When set, every run also records the paper's results-directory
        layout under ``<workdir>/<run_id>/``.
    evaluation_workers:
        Per-run evaluation worker processes (the engine's ``workers``
        knob); 1 keeps each run serial and lets run-level concurrency
        come from the slots.
    """

    #: Seconds between store polls when idle.
    POLL_INTERVAL_S = 0.1

    def __init__(self, store_path: Union[str, Path], workers: int = 2,
                 queue_limit: int = 8,
                 workdir: Optional[Union[str, Path]] = None,
                 evaluation_workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.store_path = Path(store_path)
        self.workers = workers
        self.queue_limit = queue_limit
        self.workdir = Path(workdir) if workdir is not None else None
        self.evaluation_workers = evaluation_workers
        self._active = 0
        self.completed: List[str] = []

    # -- store helpers (short-lived handles: thread-pool friendly) ----------

    def _claim_one(self) -> Optional[str]:
        with RunStore(self.store_path) as store:
            return store.claim_next()

    def _recover(self) -> List[str]:
        with RunStore(self.store_path) as store:
            return store.requeue_interrupted()

    # -- serving ------------------------------------------------------------

    async def serve(self, until_idle: bool = False,
                    shutdown: Optional[asyncio.Event] = None) -> List[str]:
        """Claim and execute runs until stopped.

        ``until_idle=True`` returns once the store holds no more
        queued runs and every claimed run has finished (the CI smoke
        and tests use this); otherwise serve until ``shutdown`` is set
        or the task is cancelled.  Returns the run ids executed by
        this call, in completion order.
        """
        recovered = await asyncio.to_thread(self._recover)
        if recovered:
            ids = ", ".join(recovered)
            print(f"recovered {len(recovered)} interrupted run(s): {ids}")
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_limit)
        self.completed = []
        worker_tasks = [asyncio.create_task(self._worker(queue))
                        for _ in range(self.workers)]
        try:
            while True:
                if shutdown is not None and shutdown.is_set():
                    break
                claimed = None
                if not queue.full():
                    claimed = await asyncio.to_thread(self._claim_one)
                if claimed is not None:
                    await queue.put(claimed)
                    continue
                if until_idle and queue.empty() and self._active == 0:
                    break
                await asyncio.sleep(self.POLL_INTERVAL_S)
        finally:
            for _ in worker_tasks:
                await queue.put(None)
            await asyncio.gather(*worker_tasks)
        return list(self.completed)

    def serve_until_idle(self) -> List[str]:
        """Synchronous convenience: drain the queue, then return."""
        return asyncio.run(self.serve(until_idle=True))

    async def _worker(self, queue: asyncio.Queue) -> None:
        while True:
            run_id = await queue.get()
            if run_id is None:
                queue.task_done()
                return
            self._active += 1
            try:
                status = await asyncio.to_thread(
                    execute_run, self.store_path, run_id,
                    workdir=self.workdir,
                    workers=self.evaluation_workers)
                print(f"{run_id}: {status}")
                self.completed.append(run_id)
            finally:
                self._active -= 1
                queue.task_done()
