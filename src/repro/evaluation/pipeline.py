"""The staged evaluation pipeline (render → screen → measure → score).

Measurement dominates a GeST search — the paper runs generations of
individuals against multiple target boards in parallel precisely
because the GA itself is cheap.  This module extracts the evaluation of
*one* individual into an explicit pipeline object so executor backends
(:mod:`repro.evaluation.backends`) can replicate it across worker
processes, the cache (:mod:`repro.evaluation.cache`) can skip it, and
the engine (:mod:`repro.core.engine`) shrinks to pure GA logic.

Stages, mirroring what the engine's old monolithic loop interleaved:

1. **render** — instantiate the template with the individual's loop body;
2. **screen** — optional pre-measurement static screen
   (:class:`repro.staticcheck.screen.StaticScreen`) of the compiled
   program; failures skip the pipeline model at zero fitness;
3. **measure** — ``measure_repeated`` on the measurement plug-in;
   :class:`~repro.core.errors.AssemblyError` becomes a zero-fitness
   compile failure;
4. **score** — the fitness plug-in maps measurements to one value.

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
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, \
    Tuple

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..core.template import Template
from ..cpu.machine import SimulatedMachine
from ..isa.model import Program
from ..isa.splice import TemplateSplicer
from ..measurement.base import Measurement

__all__ = ["MeasurementProtocol", "FitnessProtocol", "ScreenProtocol",
           "ScreenReportProtocol", "StageTimings", "EvaluationResult",
           "EmptyMeasurementError", "EvaluationPipeline", "noise_key"]


# ---------------------------------------------------------------------------
# Plug-in protocols (moved here from repro.core.engine; re-exported there)
# ---------------------------------------------------------------------------

class MeasurementProtocol(Protocol):
    """What the evaluation layer needs from a measurement object
    (paper III.C).

    Both methods are required: the pipeline always dispatches through
    :meth:`measure_repeated`, so a plug-in that omits it fails loudly at
    engine construction instead of silently measuring single-shot.
    Subclasses of :class:`repro.measurement.base.Measurement` inherit
    both and override ``measure_from_result`` or ``measure``.
    """

    def measure(self, source_text: str,
                individual: Individual) -> List[float]:
        """Compile and run ``source_text`` on the target, returning the
        list of measurement values (first one is the default fitness)."""
        ...

    def measure_repeated(self, source_text: str,
                         individual: Individual) -> List[float]:
        """Run :meth:`measure` under the plug-in's repetition/aggregation
        policy (identical to one ``measure`` call when repeats == 1)."""
        ...


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
    """

    uid: int
    source: str
    measurements: List[float]
    fitness: float
    compile_failed: bool = False
    screen_failed: bool = False
    cache_hit: bool = False
    timings: StageTimings = field(default_factory=StageTimings)
    #: Target-machine compile-cache traffic of this evaluation's first
    #: compile (the screen stage's with a screen, else the measure
    #: stage's).  Carried on the result because pool workers compile in
    #: *replica* machines whose counters the driver never sees.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0


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
    measurement, fitness:
        Plug-in objects satisfying the protocols above.  The
        measurement is validated eagerly: missing ``measure`` *or*
        ``measure_repeated`` raises :class:`ConfigError` at
        construction.
    screen:
        Optional pre-measurement static screen; refused with
        :class:`ConfigError` when the measurement cannot compile.
    noise_seed:
        Base seed mixed into each individual's noise-substream key
        (normally the GA seed, so one config+seed pins the whole run).
    """

    def __init__(self, template: Template,
                 measurement: MeasurementProtocol,
                 fitness: FitnessProtocol,
                 screen: Optional[ScreenProtocol] = None,
                 noise_seed: int = 0) -> None:
        for required in ("measure", "measure_repeated"):
            if not callable(getattr(measurement, required, None)):
                raise ConfigError(
                    f"measurement {type(measurement).__name__!r} does not "
                    f"implement {required}(); MeasurementProtocol requires "
                    "both measure() and measure_repeated() — subclass "
                    "repro.measurement.base.Measurement or define both")
        if not callable(getattr(fitness, "get_fitness", None)):
            raise ConfigError(
                f"fitness {type(fitness).__name__!r} does not implement "
                "get_fitness()")
        self.template = template
        self.measurement = measurement
        self.fitness = fitness
        self.screen = screen
        self.noise_seed = noise_seed
        self._reseed = getattr(measurement, "reseed_noise", None)
        if self._reseed is not None and not callable(self._reseed):
            self._reseed = None
        #: The simulated machine a :class:`Measurement` compiles for,
        #: else None: the one rule for whether the run may screen and
        #: the strategy is bound an arch and a compile.
        machine = getattr(getattr(measurement, "target", None),
                          "machine", None)
        self.machine = machine if isinstance(measurement, Measurement) \
            and isinstance(machine, SimulatedMachine) else None
        if screen is not None and self.machine is None:
            raise ConfigError(
                f"a static screen needs a measurement that compiles; "
                f"{type(measurement).__name__!r} is not a Measurement on "
                "a SimulatedTarget")
        self._splicer = TemplateSplicer(template, self.machine.assembler) \
            if self.machine is not None else None

    # -- stages -------------------------------------------------------------

    def render(self, individual: Individual) -> str:
        """Stage 1: instantiate the template with the loop body."""
        return self.template.instantiate(individual.render_body())

    def score(self, measurements: Sequence[float],
              individual: Individual) -> float:
        """Stage 4, standalone — used for cache-hit replay."""
        return float(self.fitness.get_fitness(measurements, individual))

    def compile(self, source: str) -> Program:
        """The program the measurement compiles from ``source`` (raises
        AssemblyError), cached where the measurement's own compile finds
        it.  Requires :attr:`machine`."""
        return self.measurement.compile_source(
            source, builder=self._splicer.compile)

    def screen_failure(self, individual: Individual, source: str,
                       timings: StageTimings,
                       tally: Callable[[], Tuple[int, int]]
                       ) -> Optional[EvaluationResult]:
        """Stage 2: the zero-fitness result when ``source`` does not
        compile or the screen rejects its program; None when it passes
        or there is no screen.

        Same zero-fitness path as a compile failure (``tally`` read
        after the screen's compile, the evaluation's first), but the
        individual never enters the pipeline model.
        """
        if self.screen is None:
            return None
        with timings.stage("screen"):
            try:
                program = self.compile(source)
            except AssemblyError:
                program = None
            if program is not None and \
                    self.screen.screen(program, individual).passed:
                return None
        rejected = self.compile_failure(individual, source, timings,
                                        tally())
        rejected.compile_failed = program is None
        rejected.screen_failed = True
        return rejected

    def compile_tally(self) -> Callable[[], Tuple[int, int]]:
        """Start counting the target's compile-cache traffic.

        The returned callable gives the (hits, misses) since this call;
        (0, 0) for measurements without a simulated machine.
        """
        machine = self.machine
        if machine is None:
            return lambda: (0, 0)
        hits, misses = machine.compile_cache_hits, \
            machine.compile_cache_misses
        return lambda: (machine.compile_cache_hits - hits,
                        machine.compile_cache_misses - misses)

    def compile_failure(self, individual: Individual, source: str,
                        timings: StageTimings,
                        compile_cache: Tuple[int, int]) -> EvaluationResult:
        """Stage 3's zero-fitness result for a source that does not
        assemble; ``compile_cache`` is its (hits, misses) tally."""
        hits, misses = compile_cache
        return EvaluationResult(
            uid=individual.uid, source=source,
            measurements=[0.0], fitness=0.0,
            compile_failed=True, timings=timings,
            compile_cache_hits=hits, compile_cache_misses=misses)

    def scored(self, individual: Individual, source: str,
               measurements: Sequence[float], timings: StageTimings,
               compile_cache: Tuple[int, int]) -> EvaluationResult:
        """Stage 4: score ``measurements`` into the individual's result.

        Raises :class:`EmptyMeasurementError` when the measurement
        returned no values.
        """
        if not measurements:
            raise EmptyMeasurementError(
                f"measurement {type(self.measurement).__name__!r} returned "
                f"an empty result list for individual "
                f"uid={individual.uid} in generation "
                f"{individual.generation}")
        with timings.stage("score"):
            value = self.score(measurements, individual)
        hits, misses = compile_cache
        return EvaluationResult(
            uid=individual.uid, source=source,
            measurements=list(measurements), fitness=value,
            timings=timings,
            compile_cache_hits=hits, compile_cache_misses=misses)

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

        tally = self.compile_tally()
        rejected = self.screen_failure(individual, source, timings, tally)
        if rejected is not None:
            return rejected
        screen_compile = tally() if self.screen is not None else None

        try:
            with timings.stage("measure"):
                if self._reseed is not None:
                    self._reseed(noise_key(self.noise_seed, source))
                measurements = self.measurement.measure_repeated(
                    source, individual)
        except AssemblyError:
            return self.compile_failure(individual, source, timings,
                                        screen_compile or tally())
        return self.scored(individual, source, measurements, timings,
                           screen_compile or tally())
