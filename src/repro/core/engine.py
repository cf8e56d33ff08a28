"""The search engine (paper Section III.A, Figure 2).

The engine is a thin orchestrator over two pluggable layers.  A
:class:`~repro.search.SearchStrategy` proposes populations — the
default ``genetic`` strategy is the paper's GA (selection, crossover,
mutation, elitism); ``static_rank`` and ``surrogate`` are that GA with a
ranker pruning offspring before measurement, and ``random`` /
``hill_climb`` / ``simulated_annealing`` serve the paper's baseline
comparisons.  The run's one RNG stream is seeded from ``<ga seed>``.
Evaluation — render, compile, screen, measure, score — lives in the staged
:mod:`repro.evaluation` layer, which the engine drives through a
:class:`~repro.evaluation.evaluator.StagedEvaluator`: an auto-selecting
executor (serial, batched, or a process pool replicating the simulated
board per worker — the paper measures on multiple boards the same way)
plus an optional content-addressed evaluation cache.  Results merge
back in deterministic uid order, so every backend/cache/strategy
combination yields bit-identical populations, checkpoints and run
histories for the same strategy and seed.

The loop per generation: evaluate → ``strategy.observe`` (internal
state updates, e.g. the annealer's accept/reject walk) → record +
checkpoint → ``strategy.next_population``.  Checkpoints carry the
strategy's name and serialized state, so a resumed run continues the
same search from exactly where it stopped.

Compile failures are tolerated: an individual whose generated source
does not assemble receives fitness 0 and stays in the records, it just
never wins a tournament.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from ..evaluation.backends import AutoSelectBackend, ExecutorBackend
from ..evaluation.cache import EvaluationCache, cache_fingerprint
from ..evaluation.evaluator import GenerationOutcome, StagedEvaluator
from ..evaluation.pipeline import (EvaluationPipeline, FitnessProtocol,
                                   ScreenProtocol, ScreenReportProtocol,
                                   StageTimings)
from ..measurement.base import Measurement
from ..search import SearchStrategy, make_strategy
from .config import RunConfig, config_to_xml, measurement_config_to_xml
from .errors import ConfigError
from .events import (STATS_SCHEMA_VERSION, CheckpointWritten,
                     GenerationCompleted, IndividualEvaluated, RunEvent,
                     RunFinished, RunRecorder, RunStarted, as_recorders)
from .individual import Individual
from .population import Population
from .rng import make_rng
from .template import Template

__all__ = ["FitnessProtocol", "ScreenProtocol", "ScreenReportProtocol",
           "GenerationStats", "RunHistory", "GeneticEngine",
           "WORKERS_ENV_VAR", "derive_run_id"]

#: Environment override for the evaluation worker budget (CI runs the
#: suite with a 2-worker pool available this way).  An explicit
#: ``workers`` argument wins over the environment.
WORKERS_ENV_VAR = "GEST_EVAL_WORKERS"


@dataclass
class GenerationStats:
    """Per-generation summary used for convergence analysis.

    The observability fields (``compare=False``) — per-stage timings
    and cache/screen/measure counters — are excluded from equality so
    run histories compare identical across executor backends and cache
    settings, where wall-clock and hit counts legitimately differ.
    """

    number: int
    best_fitness: float
    #: Mean over the individuals that have a fitness; pruned
    #: individuals (see :class:`~repro.search.pruning.PruningStrategy`)
    #: have none and are left out.
    mean_fitness: float
    best_uid: int
    compile_failures: int
    #: Individuals rejected by the static screen before measurement
    #: (subset of the zero-fitness individuals; assembly-failure screens
    #: are also counted in ``compile_failures``).
    screen_failures: int = 0
    best_measurements: List[float] = field(default_factory=list)
    #: Which search strategy proposed this generation; lets analysis
    #: scripts tell GA and baseline runs apart in stats.jsonl.
    strategy: str = "genetic"
    #: Pruning record for this generation, when the strategy publishes
    #: one through ``generation_metrics()``: the ``static_rank`` and
    #: ``surrogate`` strategies (the GA with a ranker) report their
    #: simulated/pruned/replayed counts and the Spearman rank
    #: correlation between the ranker's predictions and the measured
    #: fitnesses here, plus ranker fields (``metric``;
    #: ``explored``/``training_size``/``probe``, the probe's cycle
    #: budget).  ``base`` always reads ``genetic``.  It lands in
    #: stats.jsonl; excluded from equality like the other
    #: observability fields.
    surrogate: Optional[dict] = field(default=None, compare=False)
    #: Individuals satisfied from the evaluation cache this pass.
    cache_hits: int = field(default=0, compare=False)
    #: Individuals whose measure stage produced measurements this pass
    #: (compile and screen failures are not counted).
    measured: int = field(default=0, compare=False)
    #: Individuals that entered the screen stage this pass.
    screened: int = field(default=0, compare=False)
    #: Target-machine compile-cache traffic of each evaluation's
    #: compile stage (the measure stage's own compile then hits).
    #: Under the pruning wrappers the ranker compiles first, so these
    #: read hits.
    compile_cache_hits: int = field(default=0, compare=False)
    compile_cache_misses: int = field(default=0, compare=False)
    #: Measure-stage schedules re-tiled from a program's kept segment
    #: (hits) and scheduled by the pipeline (misses) on the measured
    #: machine; both stay 0 with steady-state detection off or a
    #: memory hierarchy, where the memo is not used.
    schedule_memo_hits: int = field(default=0, compare=False)
    schedule_memo_misses: int = field(default=0, compare=False)
    #: Cumulative per-stage evaluation seconds for this generation.
    timings: StageTimings = field(default_factory=StageTimings,
                                  compare=False)
    #: Which execution engine evaluated this generation's cache misses
    #: ("serial", "batched", "pool") and — for auto-selecting backends
    #: — why it was chosen.  Observability only, like the timings.
    backend: str = field(default="", compare=False)
    backend_reason: str = field(default="", compare=False)


@dataclass
class RunHistory:
    """The full trace of a GA run."""

    generations: List[GenerationStats] = field(default_factory=list)
    final_population: Optional[Population] = None
    best_individual: Optional[Individual] = None
    #: Which run produced this history (stable content-derived id, or
    #: the id a service assigned at submission).
    run_id: Optional[str] = None
    #: True when the run stopped early through a ``stop_check`` hook
    #: (graceful service cancellation) rather than finishing all
    #: requested generations.
    cancelled: bool = False

    def best_fitness_series(self) -> List[float]:
        return [g.best_fitness for g in self.generations]

    def mean_fitness_series(self) -> List[float]:
        return [g.mean_fitness for g in self.generations]


def derive_run_id(config: RunConfig, strategy_name: str) -> str:
    """A stable, content-derived run identifier.

    Hashes the serialized configuration, its measurement parameters and
    the strategy name, so the same search is the same run id on every
    machine and every replay — no wall clock, no hostname.  Services
    that need *distinct* ids for repeated submissions of one config
    assign their own (:meth:`repro.store.RunStore.submit_run`) and pass
    it to the engine instead.
    """
    digest = hashlib.sha256()
    digest.update(config_to_xml(config, template_filename="template.s",
                                results_dir="results").encode("utf-8"))
    if config.measurement_params:
        digest.update(b"\x00")
        digest.update(measurement_config_to_xml(
            config.measurement_params).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(strategy_name.encode("utf-8"))
    return "run-" + digest.hexdigest()[:12]


def _workers_from_environment() -> Optional[int]:
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer worker count")


def _pool_workers(workers: Optional[int], config: RunConfig) -> int:
    """The auto-selector's pool size: the ``workers`` argument, else
    ``GEST_EVAL_WORKERS``, else the config; 0 sizes from the machine."""
    if workers is None:
        workers = _workers_from_environment()
    if workers is None:
        workers = config.evaluation.workers
    if workers < 0:
        raise ConfigError(
            f"evaluation workers must be >= 0 (0 = auto), got {workers}")
    return workers or os.cpu_count() or 1


class _UidCounter:
    """The run's uid allocator.  The strategy calls it; the engine
    checkpoints and restores :attr:`next`.  It is bound into the
    strategy instead of an engine method, so the strategy holds no
    reference back to the engine and a finished engine (with its
    pipeline, machine and compile cache) is freed when dropped, not
    when the cyclic collector next runs."""

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next = 0

    def __call__(self) -> int:
        uid = self.next
        self.next += 1
        return uid


class GeneticEngine:
    """Runs one GA search.

    Parameters
    ----------
    config:
        The run configuration (GA parameters, instruction library,
        template text, optional seed-population file, evaluation
        settings).
    measurement:
        A :class:`~repro.measurement.base.Measurement` subclass instance
        on a simulated target (paper III.C: a procedure subclasses the
        abstract class); anything else raises :class:`ConfigError`
        here, at construction.
    fitness:
        Plug-in object satisfying
        :class:`~repro.evaluation.pipeline.FitnessProtocol`.
    recorder:
        Optional :class:`~repro.core.events.RunRecorder` — or a
        sequence of them — subscribed to the engine's event stream
        (run_started, individual_evaluated, generation_completed,
        checkpoint_written, run_finished).  A
        :class:`~repro.core.output.FileRecorder` here reproduces the
        paper's results-directory layout; a
        :class:`~repro.store.StoreRecorder` persists the run into the
        sqlite result store; both at once tee the stream.
    checkpoint_path:
        Optional file updated after every generation with the full
        engine state (population, RNG stream, uid counter).  A run of
        the paper's scale is hours of measurements; ``resume`` restarts
        an interrupted search from the last completed generation with
        bit-identical behaviour.
    screen:
        Optional pre-measurement static screen (see
        :class:`repro.staticcheck.screen.StaticScreen`, which fails
        only a program with an empty measured loop).  Individuals the
        screen rejects are recorded as zero-fitness screen failures
        without entering the measurement path; counts appear in
        :class:`GenerationStats`.  It checks the program the pipeline
        compiled once for the measurement.
    backend:
        Optional :class:`ExecutorBackend` instance replacing the
        default :class:`AutoSelectBackend`, which routes each
        generation to serial, batched or pooled execution from what it
        can observe (job count, measurement repeats, simulated cycles).
    cache:
        Optional explicit :class:`EvaluationCache`; defaults to a fresh
        cache when ``config.evaluation.cache`` is set.  It stores and
        replays measurements only (never a compile or screen failure);
        no strategy reads it.
    workers:
        Process-pool size available to :class:`AutoSelectBackend` (1 =
        never pool; unused when ``backend`` is given); wins over the
        ``GEST_EVAL_WORKERS`` environment variable, which in turn wins
        over ``config.evaluation.workers``.  ``0`` means "size the pool
        from the machine" in the argument, the environment variable and
        the config alike.
    strategy:
        Which search proposes populations: a registered strategy name,
        a ready :class:`~repro.search.SearchStrategy` instance, or
        ``None`` for the config's ``<search>`` block (default
        ``genetic`` — the paper's GA).  The strategy is bound to the
        measured machine's microarchitecture and compile and to the
        measurement's metric, and draws from the run's RNG stream,
        seeded from ``config.ga.seed``.
    run_id:
        Explicit run identity stamped into every stats record and
        event; defaults to the content-derived :func:`derive_run_id`.
    """

    def __init__(self, config: RunConfig,
                 measurement: Measurement,
                 fitness: FitnessProtocol,
                 recorder: Union[None, RunRecorder,
                                 Sequence[RunRecorder]] = None,
                 checkpoint_path: Optional[Union[str, Path]] = None,
                 screen: Optional[ScreenProtocol] = None,
                 backend: Optional[ExecutorBackend] = None,
                 cache: Optional[EvaluationCache] = None,
                 workers: Optional[int] = None,
                 strategy: Optional[Union[str, SearchStrategy]] = None,
                 run_id: Optional[str] = None
                 ) -> None:
        config.validate()
        self.config = config
        self.measurement = measurement
        self.fitness = fitness
        self.recorders = as_recorders(recorder)
        self.rng = make_rng(config.ga.seed)
        self.screen = screen
        self.template = Template(config.template_text)
        self._uids = _UidCounter()
        self._best: Optional[Individual] = None
        self.checkpoint_path = Path(checkpoint_path) \
            if checkpoint_path is not None else None
        self._resume_state: Optional[dict] = None
        self._last_outcome: Optional[GenerationOutcome] = None

        if strategy is None:
            strategy = config.search.strategy
        self.strategy = strategy if isinstance(strategy, SearchStrategy) \
            else make_strategy(strategy)

        pipeline = EvaluationPipeline(
            template=self.template, measurement=measurement,
            fitness=fitness, screen=screen,
            noise_seed=config.ga.seed if config.ga.seed is not None else 0)
        # Strategies that price offspring (the pruning wrappers) do so
        # on the program this run measures, on the machine it measures,
        # for the metric it measures.
        self.strategy.bind(config, self.rng, self._uids,
                           pipeline.machine.arch, pipeline.compile,
                           measurement.metric)
        if backend is None:
            backend = AutoSelectBackend(_pool_workers(workers, config))
        elif not isinstance(backend, ExecutorBackend):
            raise TypeError(
                f"backend must be an ExecutorBackend instance, got "
                f"{backend!r}")
        if cache is None and config.evaluation.cache:
            cache = EvaluationCache(
                cache_fingerprint(measurement, pipeline.noise_seed))
        self.evaluator = StagedEvaluator(pipeline, backend=backend,
                                         cache=cache)
        self.run_id = run_id if run_id is not None \
            else derive_run_id(config, self.strategy.name)

    # -- public API ---------------------------------------------------------

    def run(self, generations: Optional[int] = None,
            stop_check: Optional[Callable[[], bool]] = None) -> RunHistory:
        """Execute the search for ``generations`` (default: config
        value).

        ``stop_check`` is polled between generations; returning True
        stops the run gracefully after the current generation is fully
        recorded and checkpointed (``history.cancelled`` is set).  The
        service layer uses it for cooperative cancellation — a
        cancelled run resumes later from its checkpoint.
        """
        total = generations if generations is not None \
            else self.config.ga.generations
        if total < 1:
            raise ConfigError("generations must be >= 1")

        history = RunHistory(run_id=self.run_id)
        resumed = self._resume_state is not None
        self._emit(RunStarted(
            run_id=self.run_id, config=self.config,
            strategy=self.strategy.name, seed=self.config.ga.seed,
            resumed=resumed))
        if self._resume_state is not None:
            state = self._resume_state
            self._resume_state = None
            population = state["population"]
            self._uids.next = state["next_uid"]
            self._best = state["best"]
            self.rng.setstate(state["rng_state"])
            if any(not individual.evaluated for individual in population):
                # A mid-generation checkpoint (e.g. the empty-measurement
                # abort path): finish evaluating this generation before
                # breeding past it instead of discarding the unevaluated
                # individuals.
                start = state["generation"]
                if start >= total:
                    raise ConfigError(
                        f"checkpoint holds a partially evaluated "
                        f"generation {start}, past the requested "
                        f"{total}-generation run")
            else:
                start = state["generation"] + 1
                if start >= total:
                    raise ConfigError(
                        f"checkpoint already covers generation "
                        f"{state['generation']} of a {total}-generation "
                        "run")
                population = self.strategy.next_population(population, start)
        else:
            population = self.strategy.initial_population()
            start = 0
        try:
            for number in range(start, total):
                population.number = number
                for individual in population:
                    individual.generation = number
                self._evaluate_population(population)
                self.strategy.observe(population)
                self._record_generation(population, history)
                if number < total - 1:
                    if stop_check is not None and stop_check():
                        history.cancelled = True
                        break
                    population = self.strategy.next_population(
                        population, number + 1)
        finally:
            self.evaluator.close()

        history.final_population = population
        history.best_individual = self._best
        self._emit(RunFinished(
            run_id=self.run_id, best=self._best,
            generations=len(history.generations),
            cancelled=history.cancelled))
        return history

    def render_source(self, individual: Individual) -> str:
        """Instantiate the template with an individual's loop body."""
        return self.evaluator.pipeline.render(individual)

    # -- search steps ---------------------------------------------------------

    def _evaluate_population(self, population: Population) -> None:
        """Drive the staged evaluator and merge results in uid order."""
        outcome = self.evaluator.evaluate_population(population)
        self._last_outcome = outcome
        by_uid = {individual.uid: individual for individual in population}
        for result in outcome.results:
            individual = by_uid[result.uid]
            individual.record_evaluation(
                result.measurements, result.fitness,
                compile_failed=result.compile_failed,
                screen_failed=result.screen_failed)
            self._emit(IndividualEvaluated(
                run_id=self.run_id, individual=individual,
                source=result.source))
            self._update_best(individual)
        if outcome.error is not None:
            # Persist what this generation has produced so far — an
            # hours-long run should not lose the partial generation to
            # a measurement plug-in bug.
            if self.checkpoint_path is not None:
                self.save_checkpoint(population)
            raise outcome.error

    # -- bookkeeping -----------------------------------------------------------

    def _emit(self, event: RunEvent) -> None:
        for recorder in self.recorders:
            recorder.handle(event)

    def _update_best(self, individual: Individual) -> None:
        if individual.fitness is None:
            return
        if self._best is None or (self._best.fitness is not None and
                                  individual.fitness > self._best.fitness):
            self._best = individual

    # -- checkpoint / resume ----------------------------------------------

    def save_checkpoint(self, population: Population) -> Path:
        """Persist the engine state after a completed generation.

        Version 2 carries the search-strategy name and its serialized
        state next to the population/RNG/uid snapshot, so any strategy
        — not just the stateless-between-generations GA — resumes from
        exactly where it stopped.
        """
        if self.checkpoint_path is None:
            raise ConfigError("engine has no checkpoint path configured")
        payload = {
            "format": "gest-repro-checkpoint",
            "version": 2,
            "generation": population.number,
            "population": population,
            "next_uid": self._uids.next,
            "best": self._best,
            "rng_state": self.rng.getstate(),
            "strategy": self.strategy.name,
            "strategy_state": self.strategy.state_dict(),
            "run_id": self.run_id,
        }
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.checkpoint_path.with_suffix(".tmp")
        with open(temp, "wb") as handle:
            pickle.dump(payload, handle, protocol=4)
        temp.replace(self.checkpoint_path)
        self._emit(CheckpointWritten(
            run_id=self.run_id, path=self.checkpoint_path,
            generation=population.number))
        return self.checkpoint_path

    @classmethod
    def resume(cls, config: RunConfig,
               measurement: Measurement,
               fitness: FitnessProtocol,
               checkpoint_path: Union[str, Path],
               recorder: Union[None, RunRecorder,
                               Sequence[RunRecorder]] = None,
               screen: Optional[ScreenProtocol] = None,
               backend: Optional[ExecutorBackend] = None,
               cache: Optional[EvaluationCache] = None,
               workers: Optional[int] = None,
               strategy: Optional[Union[str, SearchStrategy]] = None,
               run_id: Optional[str] = None
               ) -> "GeneticEngine":
        """Rebuild an engine from a checkpoint file.

        The next :meth:`run` continues from the generation after the
        checkpointed one and reproduces exactly what the uninterrupted
        run would have produced (population, RNG stream, uid counter
        and strategy state are all restored).  A checkpoint holding a
        *partially evaluated* generation — written by the abort path
        when a measurement plug-in returns no values — is finished
        first: its unevaluated individuals go back through the
        evaluation pipeline before breeding continues.

        A version-1 checkpoint (pre-search-layer) is migrated in place:
        those were written by the only search that existed — the
        paper's GA — so it resumes under the ``genetic`` strategy and
        under nothing else.  The checkpoint's strategy must match the
        engine's: resuming a ``random`` checkpoint under ``genetic``
        would silently turn one search into another, so it fails with
        both names spelled out instead.
        """
        checkpoint_path = Path(checkpoint_path)
        if not checkpoint_path.exists():
            raise ConfigError(
                f"checkpoint {checkpoint_path} does not exist")
        with open(checkpoint_path, "rb") as handle:
            payload = pickle.load(handle)
        if not isinstance(payload, dict) or \
                payload.get("format") != "gest-repro-checkpoint":
            raise ConfigError(
                f"{checkpoint_path} is not a checkpoint file")
        version = payload.get("version")
        if version == 1:
            # Pre-search-layer checkpoints carry no strategy marker;
            # they were necessarily written by the genetic engine.
            payload = dict(payload)
            payload["strategy"] = "genetic"
            payload["strategy_state"] = {}
        elif version != 2:
            raise ConfigError(
                f"checkpoint {checkpoint_path} has unsupported version "
                f"{version!r}; this build reads versions 1 (migrated "
                "to the genetic strategy) and 2 — re-run the search or "
                "convert the checkpoint with the writing version")
        if run_id is None:
            # A checkpoint written by this build remembers its run
            # identity; adopt it so the resumed half of the run lands
            # under the same id in stores and stats records.
            run_id = payload.get("run_id")
        engine = cls(config, measurement, fitness, recorder=recorder,
                     checkpoint_path=checkpoint_path, screen=screen,
                     backend=backend, cache=cache, workers=workers,
                     strategy=strategy, run_id=run_id)
        saved_strategy = payload.get("strategy")
        if saved_strategy != engine.strategy.name:
            raise ConfigError(
                f"checkpoint {checkpoint_path} was written by search "
                f"strategy {saved_strategy!r} but this run uses "
                f"{engine.strategy.name!r}; resume with "
                f"strategy={saved_strategy!r} (CLI: --strategy "
                f"{saved_strategy}) or start a fresh run")
        engine.strategy.load_state(payload.get("strategy_state") or {})
        engine._resume_state = payload
        return engine

    def _record_generation(self, population: Population,
                           history: RunHistory) -> None:
        best = population.fittest()
        outcome = self._last_outcome
        stats = GenerationStats(
            number=population.number,
            best_fitness=best.fitness if best.fitness is not None else 0.0,
            mean_fitness=population.mean_fitness(),
            best_uid=best.uid,
            compile_failures=sum(1 for i in population if i.compile_failed),
            screen_failures=sum(1 for i in population
                                if getattr(i, "screen_failed", False)),
            best_measurements=list(best.measurements),
            strategy=self.strategy.name,
        )
        metrics = getattr(self.strategy, "generation_metrics", None)
        if callable(metrics):
            stats.surrogate = metrics(population.number)
        if outcome is not None:
            stats.cache_hits = outcome.cache_hits
            stats.measured = outcome.measured
            stats.screened = outcome.screened
            stats.compile_cache_hits = outcome.compile_cache_hits
            stats.compile_cache_misses = outcome.compile_cache_misses
            stats.schedule_memo_hits = outcome.schedule_memo_hits
            stats.schedule_memo_misses = outcome.schedule_memo_misses
            stats.timings = outcome.timings
            stats.backend = outcome.backend
            stats.backend_reason = outcome.backend_reason
        history.generations.append(stats)
        record = {"schema": STATS_SCHEMA_VERSION, "run_id": self.run_id,
                  **asdict(stats)}
        self._emit(GenerationCompleted(
            run_id=self.run_id, population=population, stats=record))
        if self.checkpoint_path is not None:
            self.save_checkpoint(population)
