"""The staged evaluation pipeline (render → compile → screen → measure
→ score).

Measurement dominates a GeST search — the paper runs generations of
individuals against multiple target boards in parallel precisely
because the GA itself is cheap.  This module extracts the evaluation of
*one* individual into an explicit pipeline object so executor backends
(:mod:`repro.evaluation.backends`) can replicate it across worker
processes, the cache (:mod:`repro.evaluation.cache`) can skip it, and
the engine (:mod:`repro.core.engine`) shrinks to pure GA logic.

The measurement is a :class:`~repro.measurement.base.Measurement` on a
:class:`~repro.cpu.machine.SimulatedMachine` (paper III.C: a procedure
subclasses the abstract class); the pipeline refuses anything else.
Stages:

1. **render** — instantiate the template with the individual's loop body;
2. **compile** — :meth:`EvaluationPipeline.compile`, once per
   evaluation, into the machine's compile cache (timed as measure); a
   source that does not compile takes the zero-fitness path;
3. **screen** — optional pre-measurement static screen
   (:class:`repro.staticcheck.screen.StaticScreen`) of the compiled
   program; failures skip the pipeline model at zero fitness;
4. **measure** — ``measure_repeated`` on the measurement, whose own
   compile hits the cache entry stage 2 made;
   :class:`~repro.core.errors.AssemblyError` still becomes a
   zero-fitness compile failure;
5. **score** — the fitness plug-in maps measurements to one value.

Determinism contract
--------------------
Before each measure stage the pipeline reseeds the measurement's noise
stream with a key derived from the GA seed and a digest of the rendered
source (:func:`noise_key`).  Each evaluation is therefore a pure
function of (source, target, measurement parameters) — independent of
the order individuals are measured in and of which process measures
them.  That single property is what makes ``SerialBackend``,
``ProcessPoolBackend`` and cache-hit replay produce bit-identical
populations and run histories.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, List, Optional, Protocol, Sequence, Tuple

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..core.template import Template
from ..cpu.machine import SimulatedMachine
from ..isa.model import Program
from ..measurement.base import Measurement

__all__ = ["FitnessProtocol", "ScreenProtocol", "ScreenReportProtocol",
           "StageTimings", "EvaluationResult", "EmptyMeasurementError",
           "EvaluationPipeline", "noise_key"]


# ---------------------------------------------------------------------------
# Plug-in protocols (moved here from repro.core.engine; re-exported there)
# ---------------------------------------------------------------------------

class FitnessProtocol(Protocol):
    """What the evaluation layer needs from a fitness object (III.C)."""

    def get_fitness(self, measurements: Sequence[float],
                    individual: Individual) -> float:
        ...


class ScreenReportProtocol(Protocol):
    """Verdict shape returned by a static screen."""

    passed: bool


class ScreenProtocol(Protocol):
    """What the evaluation layer needs from a pre-measurement static
    screen (see :class:`repro.staticcheck.screen.StaticScreen`)."""

    def screen(self, program: Program,
               individual: Individual) -> ScreenReportProtocol:
        ...


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class StageTimings:
    """Cumulative wall-clock seconds spent per pipeline stage.

    Under a process-pool backend the stage clocks tick concurrently in
    the workers, so totals may exceed the generation's wall time — they
    are *work* accounting, not elapsed time.  :meth:`stage` is the
    evaluation layer's one clock.
    """

    render_s: float = 0.0
    screen_s: float = 0.0
    measure_s: float = 0.0
    score_s: float = 0.0

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Add the wall time of the ``with`` block, exceptions
        included, to the ``<name>_s`` field."""
        attr = f"{name}_s"
        began = perf_counter()  # staticcheck: disable=SC404
        try:
            yield
        finally:
            setattr(self, attr, getattr(self, attr)
                    + (perf_counter() - began))

    def add(self, other: "StageTimings") -> None:
        self.render_s += other.render_s
        self.screen_s += other.screen_s
        self.measure_s += other.measure_s
        self.score_s += other.score_s

    @property
    def total_s(self) -> float:
        return self.render_s + self.screen_s + self.measure_s + self.score_s


@dataclass
class EvaluationResult:
    """Everything one trip through the pipeline produced.

    Results cross process boundaries (workers pickle them back to the
    driver), so they carry the individual's ``uid`` rather than the
    individual itself; the driver re-attaches measurements to *its*
    population objects during the deterministic uid-ordered merge.

    A zero-fitness result has ``measurements == [0.0]``:
    ``compile_failed`` when the source did not compile (then
    ``screen_failed`` too exactly when a screen is configured) or the
    measurement raised AssemblyError, ``screen_failed`` alone when the
    screen rejected the program.
    """

    uid: int
    source: str
    measurements: List[float]
    fitness: float
    compile_failed: bool = False
    screen_failed: bool = False
    cache_hit: bool = False
    timings: StageTimings = field(default_factory=StageTimings)
    #: Target-machine compile-cache traffic of this evaluation's compile
    #: stage.  Carried on the result because pool workers compile in
    #: *replica* machines whose counters the driver never sees.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: Schedule-memo traffic of this evaluation's measure stage (see
    #: :meth:`SimulatedMachine._schedule
    #: <repro.cpu.machine.SimulatedMachine._schedule>`), carried for
    #: the same reason.  A batch records its whole traffic on its first
    #: measured row.
    schedule_memo_hits: int = 0
    schedule_memo_misses: int = 0

    @property
    def measured(self) -> bool:
        """Whether the measure stage produced ``measurements``."""
        return not (self.compile_failed or self.screen_failed)


class EmptyMeasurementError(ConfigError):
    """A measurement plug-in returned no values at all — a plug-in bug
    the engine turns into a checkpoint-then-abort so an hours-long run
    does not lose its partial generation."""


# ---------------------------------------------------------------------------
# Noise keying
# ---------------------------------------------------------------------------

#: Large odd constant decorrelating the GA seed from the source digest.
_NOISE_MIX = 0x9E3779B97F4A7C15


def noise_key(base_seed: int, source_text: str) -> int:
    """Deterministic per-source noise-substream key.

    Uses sha256 (not the salted builtin ``hash``) so every worker
    process derives the same key for the same rendered source, and so
    identical sources — elitism clones, cache hits — always observe
    identical measurement noise.
    """
    digest = hashlib.sha256(source_text.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big")
            ^ ((base_seed * _NOISE_MIX) & (2 ** 64 - 1)))


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class EvaluationPipeline:
    """Evaluates one individual through the staged pipeline.

    Parameters
    ----------
    template:
        The run's :class:`~repro.core.template.Template`.
    measurement:
        A :class:`~repro.measurement.base.Measurement` whose target's
        machine is a :class:`~repro.cpu.machine.SimulatedMachine`;
        anything else raises :class:`ConfigError` at construction.
    fitness:
        A plug-in satisfying :class:`FitnessProtocol`; one without
        ``get_fitness`` raises :class:`ConfigError` at construction.
    screen:
        Optional pre-measurement static screen of the compiled program.
    noise_seed:
        Base seed mixed into each individual's noise-substream key
        (normally the GA seed, so one config+seed pins the whole run).
    """

    def __init__(self, template: Template, measurement: Measurement,
                 fitness: FitnessProtocol,
                 screen: Optional[ScreenProtocol] = None,
                 noise_seed: int = 0) -> None:
        if not (isinstance(measurement, Measurement) and isinstance(
                measurement.target.machine, SimulatedMachine)):
            raise ConfigError(
                f"measurement {type(measurement).__name__!r} is not a "
                "Measurement on a simulated machine; subclass "
                "repro.measurement.base.Measurement and give it a "
                "SimulatedTarget")
        if not callable(getattr(fitness, "get_fitness", None)):
            raise ConfigError(
                f"fitness {type(fitness).__name__!r} does not implement "
                "get_fitness()")
        self.template = template
        self.measurement = measurement
        self.fitness = fitness
        self.screen = screen
        self.noise_seed = noise_seed
        #: The simulated machine the measurement compiles for and runs on.
        self.machine: SimulatedMachine = measurement.target.machine

    # -- stages -------------------------------------------------------------

    def render(self, individual: Individual) -> str:
        """Stage 1: instantiate the template with the loop body."""
        return self.template.instantiate(individual.render_body())

    def score(self, measurements: Sequence[float],
              individual: Individual) -> float:
        """Stage 5, standalone — used for cache-hit replay."""
        return float(self.fitness.get_fitness(measurements, individual))

    def compile(self, source: str) -> Program:
        """The program the measurement compiles from ``source`` (raises
        AssemblyError), cached where the measurement's own compile finds
        it."""
        return self.measurement.compile_source(source)

    def prepare(self, individual: Individual, source: str,
                timings: StageTimings
                ) -> Tuple[Optional[Program], EvaluationResult]:
        """Stages 2 and 3: compile ``source`` once, then screen it.

        Returns the program to measure (None when the source does not
        compile or the screen rejects it) and the individual's result,
        at zero fitness until :meth:`scored` fills it in.  The result
        carries the compile's compile-cache traffic.
        """
        machine = self.machine
        hits, misses = machine.compile_cache_hits, \
            machine.compile_cache_misses
        try:
            with timings.stage("measure"):
                program: Optional[Program] = self.compile(source)
        except AssemblyError:
            program = None
        result = EvaluationResult(
            uid=individual.uid, source=source,
            measurements=[0.0], fitness=0.0,
            compile_failed=program is None,
            screen_failed=program is None and self.screen is not None,
            timings=timings,
            compile_cache_hits=machine.compile_cache_hits - hits,
            compile_cache_misses=machine.compile_cache_misses - misses)
        if program is not None and self.screen is not None:
            with timings.stage("screen"):
                result.screen_failed = \
                    not self.screen.screen(program, individual).passed
            if result.screen_failed:
                program = None
        return program, result

    def scored(self, result: EvaluationResult, individual: Individual,
               measurements: Sequence[float]) -> EvaluationResult:
        """Stage 5: score ``measurements`` into the individual's result.

        Raises :class:`EmptyMeasurementError` when the measurement
        returned no values.
        """
        if not measurements:
            raise EmptyMeasurementError(
                f"measurement {type(self.measurement).__name__!r} returned "
                f"an empty result list for individual "
                f"uid={individual.uid} in generation "
                f"{individual.generation}")
        with result.timings.stage("score"):
            result.fitness = self.score(measurements, individual)
        result.measurements = list(measurements)
        return result

    def evaluate(self, individual: Individual,
                 source: Optional[str] = None) -> EvaluationResult:
        """Run the full pipeline for one individual.

        ``source`` may be pre-rendered by the driver (it renders
        eagerly for cache lookups); the render stage is then skipped
        and its time is accounted on the driver side.

        Raises :class:`EmptyMeasurementError` when the measurement
        returns an empty list — executor backends convert this into an
        in-band result item so the driver can checkpoint the partial
        generation before aborting.
        """
        timings = StageTimings()
        if source is None:
            with timings.stage("render"):
                source = self.render(individual)
        program, result = self.prepare(individual, source, timings)
        if program is None:
            return result
        machine = self.machine
        hits, misses = machine.schedule_memo_hits, \
            machine.schedule_memo_misses
        try:
            with timings.stage("measure"):
                self.measurement.reseed_noise(
                    noise_key(self.noise_seed, source))
                measurements = self.measurement.measure_repeated(
                    source, individual)
        except AssemblyError:
            result.compile_failed = True
            return result
        result.schedule_memo_hits = machine.schedule_memo_hits - hits
        result.schedule_memo_misses = machine.schedule_memo_misses - misses
        return self.scored(result, individual, measurements)
