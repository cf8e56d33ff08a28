"""Staged evaluation layer: pipeline, executor backends, cache.

The paper's framework treats measurement as a pluggable component and
drives multiple target boards in parallel; this package is that
architecture extracted from the GA engine.  The engine owns selection,
crossover, mutation and bookkeeping; everything between "here is an
unevaluated individual" and "here are its measurements and fitness"
lives here:

* :class:`EvaluationPipeline` — the explicit render → compile → screen
  → measure → score stages for one individual, with per-stage
  wall-time and a per-source noise-substream contract that makes every
  evaluation a pure function (the key to everything below);
* :class:`SerialBackend` / :class:`ProcessPoolBackend` — executors
  behind the auto-selecting backend the engine runs; the pool backend
  replicates the whole pipeline (machine, measurement, screen) into N
  forked workers, the paper's "multiple boards", with results merged
  in deterministic uid order;
* :class:`EvaluationCache` — content-addressed memoisation keyed on
  (target fingerprint, rendered source), so elitism clones and resumed
  runs skip the pipeline model;
* :class:`StagedEvaluator` — the engine-facing driver composing the
  three.

Same config + seed produces bit-identical populations and run
histories under any backend, with the cache on or off.
"""

from .backends import ExecutorBackend, ProcessPoolBackend, SerialBackend
from .cache import EvaluationCache, cache_fingerprint
from .evaluator import GenerationOutcome, StagedEvaluator
from .pipeline import (EmptyMeasurementError, EvaluationPipeline,
                       EvaluationResult, FitnessProtocol, ScreenProtocol,
                       ScreenReportProtocol, StageTimings, noise_key)

__all__ = [
    "ExecutorBackend", "ProcessPoolBackend", "SerialBackend",
    "EvaluationCache", "cache_fingerprint",
    "GenerationOutcome", "StagedEvaluator",
    "EmptyMeasurementError", "EvaluationPipeline", "EvaluationResult",
    "FitnessProtocol", "ScreenProtocol", "ScreenReportProtocol",
    "StageTimings", "noise_key",
]
