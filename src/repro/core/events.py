"""Typed run events and the :class:`RunRecorder` subscriber interface.

The engine used to write its outputs (individual sources, population
binaries, stats lines) directly through one hard-wired recorder object.
That coupling is gone: the engine now *emits* a stream of typed events
— ``run_started``, ``individual_evaluated``, ``generation_completed``,
``checkpoint_written``, ``run_finished`` — and any number of
:class:`RunRecorder` subscribers consume them.  The paper's directory
layout survives as exactly one such subscriber
(:class:`~repro.core.output.FileRecorder`); the sqlite-backed
:class:`~repro.store.StoreRecorder` is another, and tests plug in
in-memory recorders to observe a run without touching the filesystem.

Events are plain frozen dataclasses.  They carry live framework objects
(individuals, populations, the run configuration) rather than
serialized copies — each subscriber decides its own persistence format.
Subscribers must not mutate what they are handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .config import RunConfig
from .individual import Individual
from .population import Population

__all__ = ["RunEvent", "RunStarted", "IndividualEvaluated",
           "GenerationCompleted", "CheckpointWritten", "RunFinished",
           "RunRecorder", "as_recorders",
           "STATS_SCHEMA_VERSION"]

#: Version stamped into every ``stats.jsonl`` record (and the
#: ``generation_completed`` event payload) as the ``schema`` field.
#: Bump when a record's keys change meaning; readers must tolerate
#: unknown keys so the version can move without breaking them.
STATS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunEvent:
    """Base class: every event names the run that produced it."""

    run_id: str


@dataclass(frozen=True)
class RunStarted(RunEvent):
    """A run's identity is established (engine construction).

    Emitted before any evaluation happens — also on resume, where the
    same run id picks up from its last checkpoint.
    """

    config: RunConfig
    strategy: str
    seed: Optional[int]
    resumed: bool = False


@dataclass(frozen=True)
class IndividualEvaluated(RunEvent):
    """One individual came back from the evaluation pipeline."""

    individual: Individual
    source: str


@dataclass(frozen=True)
class GenerationCompleted(RunEvent):
    """A full generation is evaluated, observed and summarized.

    ``stats`` is the serializable stats record — already stamped with
    ``schema`` (:data:`STATS_SCHEMA_VERSION`) and ``run_id`` — exactly
    what lands as one ``stats.jsonl`` line.
    """

    population: Population
    stats: dict = field(compare=False)


@dataclass(frozen=True)
class CheckpointWritten(RunEvent):
    """The engine persisted a resume point after ``generation``."""

    path: Path
    generation: int


@dataclass(frozen=True)
class RunFinished(RunEvent):
    """The run left the generation loop.

    ``cancelled`` distinguishes a graceful stop (service cancellation)
    from natural completion; either way ``generations`` generations
    were fully evaluated and recorded.
    """

    best: Optional[Individual]
    generations: int
    cancelled: bool = False


class RunRecorder:
    """Subscriber base class: override the hooks you care about.

    :meth:`handle` dispatches an event to its ``on_*`` hook; the
    default hooks do nothing, so a subscriber implements only the
    events it consumes.  Recorders are called synchronously in emission
    order from the engine thread — a recorder that needs to do slow I/O
    should buffer internally.
    """

    def handle(self, event: RunEvent) -> None:
        if isinstance(event, RunStarted):
            self.on_run_started(event)
        elif isinstance(event, IndividualEvaluated):
            self.on_individual_evaluated(event)
        elif isinstance(event, GenerationCompleted):
            self.on_generation_completed(event)
        elif isinstance(event, CheckpointWritten):
            self.on_checkpoint_written(event)
        elif isinstance(event, RunFinished):
            self.on_run_finished(event)
        else:  # pragma: no cover - future event types
            self.on_event(event)

    # -- hooks (no-op defaults) --------------------------------------------

    def on_run_started(self, event: RunStarted) -> None:
        pass

    def on_individual_evaluated(self, event: IndividualEvaluated) -> None:
        pass

    def on_generation_completed(self, event: GenerationCompleted) -> None:
        pass

    def on_checkpoint_written(self, event: CheckpointWritten) -> None:
        pass

    def on_run_finished(self, event: RunFinished) -> None:
        pass

    def on_event(self, event: RunEvent) -> None:
        """Fallback for event types this build does not know."""

    def close(self) -> None:
        """Release any resources (files, database connections)."""


def as_recorders(recorder: Union[None, RunRecorder,
                                 Sequence[RunRecorder]]
                 ) -> List[RunRecorder]:
    """Normalize the engine's ``recorder`` argument to a list."""
    if recorder is None:
        return []
    if isinstance(recorder, RunRecorder):
        return [recorder]
    return list(recorder)
