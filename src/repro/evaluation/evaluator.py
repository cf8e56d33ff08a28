"""The generation-level evaluation driver.

:class:`StagedEvaluator` is what the GA engine talks to: it takes a
population, renders every unevaluated individual (render stays in the
driver so cache addressing never crosses a process boundary), satisfies
what it can from the :class:`~repro.evaluation.cache.EvaluationCache`,
passes the misses to its
:class:`~repro.evaluation.backends.ExecutorBackend` as one generation,
and hands back a :class:`GenerationOutcome` whose results are sorted
in uid order — the canonical merge order that makes every
backend/cache combination produce identical populations, checkpoints
and run histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .backends import AutoSelectBackend, ExecutorBackend, Job
from .cache import EvaluationCache
from .pipeline import EmptyMeasurementError, EvaluationPipeline, \
    EvaluationResult, StageTimings

__all__ = ["GenerationOutcome", "StagedEvaluator"]


@dataclass
class GenerationOutcome:
    """One generation's evaluation pass, ready to merge.

    ``results`` is uid-ordered and covers every individual evaluated in
    this pass; on a plug-in failure (``error`` set) it covers the
    results completed before the failure point plus all cache hits —
    the driver applies them, checkpoints, then re-raises ``error``.
    """

    results: List[EvaluationResult] = field(default_factory=list)
    error: Optional[EmptyMeasurementError] = None
    timings: StageTimings = field(default_factory=StageTimings)
    cache_hits: int = 0
    measured: int = 0
    screened: int = 0
    #: Target-machine compile-cache traffic summed over the fresh
    #: (non-evaluation-cache-hit) results of this pass.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: Schedule-memo traffic summed over the same results.
    schedule_memo_hits: int = 0
    schedule_memo_misses: int = 0
    #: Which execution engine ran the generation's misses ("serial",
    #: "batched", "pool") and why the backend picked it.
    backend: str = ""
    backend_reason: str = ""


class StagedEvaluator:
    """Evaluates populations through cache → backend → uid-order merge.

    Only a result that produced measurements is stored in the cache; a
    compile or screen failure goes through the pipeline again, so the
    failing stage is always the replaying run's own."""

    def __init__(self, pipeline: EvaluationPipeline,
                 backend: Optional[ExecutorBackend] = None,
                 cache: Optional[EvaluationCache] = None) -> None:
        self.pipeline = pipeline
        self.backend = backend if backend is not None \
            else AutoSelectBackend()
        self.cache = cache

    def evaluate_population(self, population) -> GenerationOutcome:
        outcome = GenerationOutcome()
        jobs: List[Job] = []
        for individual in population:
            if individual.evaluated:
                continue
            with outcome.timings.stage("render"):
                source = self.pipeline.render(individual)
            cached = self.cache.get(source) if self.cache is not None \
                else None
            if cached is not None:
                outcome.results.append(
                    self._replay(individual, source, cached,
                                 outcome.timings))
                outcome.cache_hits += 1
            else:
                jobs.append((individual, source))

        for item in self.backend.evaluate(self.pipeline, jobs):
            if isinstance(item, EmptyMeasurementError):
                outcome.error = item
                break
            outcome.results.append(item)
            outcome.timings.add(item.timings)
            outcome.compile_cache_hits += item.compile_cache_hits
            outcome.compile_cache_misses += item.compile_cache_misses
            outcome.schedule_memo_hits += item.schedule_memo_hits
            outcome.schedule_memo_misses += item.schedule_memo_misses
            if self.cache is not None and item.measured:
                self.cache.put(item.source, item.measurements)

        self._sync_counters(outcome)
        outcome.backend = self.backend.name
        outcome.backend_reason = self.backend.reason
        outcome.results.sort(key=lambda result: result.uid)
        return outcome

    def close(self) -> None:
        """Release backend resources (worker pools)."""
        self.backend.close()

    # -- internals ----------------------------------------------------------

    def _replay(self, individual, source: str,
                measurements: Tuple[float, ...],
                timings: StageTimings) -> EvaluationResult:
        """Reconstruct a result from cached measurements (score
        re-runs)."""
        with timings.stage("score"):
            fitness = self.pipeline.score(measurements, individual)
        return EvaluationResult(
            uid=individual.uid, source=source,
            measurements=list(measurements), fitness=fitness,
            cache_hit=True)

    def _sync_counters(self, outcome: GenerationOutcome) -> None:
        """Count the pass's fresh results: ``measured`` (produced
        measurements) and, with a screen, ``screened``.  Derived from
        the results alone, so every executor reports the same counts."""
        fresh = [r for r in outcome.results if not r.cache_hit]
        outcome.measured = sum(1 for r in fresh if r.measured)
        if self.pipeline.screen is not None:
            outcome.screened = len(fresh)
