"""Pre-measurement static screening (the engine's correctness gate).

The paper measures every individual and turns only compile failures
into zero fitness.  The screen adds one rule in front of the
measurement: a program whose measured loop is empty fails with a
single ``SC103`` diagnostic, because the measure stage cannot run it
(:meth:`~repro.cpu.pipeline.PipelineSimulator.execute` raises
:class:`~repro.core.errors.SimulationError` on an empty loop).

The evaluation pipeline's compile stage compiles the rendered source
once, for the measurement, and the screen checks that program; a
source that does not compile fails there and is recorded as a compile
and a screen failure.  Failed individuals take the zero-fitness route
without ever paying for pipeline simulation; the engine records them
as screen failures in :class:`~repro.core.engine.GenerationStats`.

The screen runs no dataflow pass: every other diagnostic that pass
(:mod:`repro.staticcheck.dataflow`) emits is a warning or a note, so
``gest check`` and the cost model run it where its results are read.
A stricter gate is a user's own
:class:`~repro.evaluation.pipeline.ScreenProtocol` object.

Determinism note: the staged evaluation layer
(:mod:`repro.evaluation`) pins a per-source noise substream before
every measurement, so a screened individual skipping its measurement
can never shift the noise another individual observes — screening is
order-free by construction, under any executor backend and with the
evaluation cache on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..isa.model import Program
from .dataflow import empty_loop_diagnostic
from .diagnostics import Diagnostic

__all__ = ["ScreenReport", "StaticScreen"]


@dataclass
class ScreenReport:
    """Verdict of one screening."""

    passed: bool
    diagnostics: List[Diagnostic]


class StaticScreen:
    """The engine-facing screening object.

    Stateless and with nothing to set: each :meth:`screen` returns its
    verdict, and the engine counts screenings and failures from the
    evaluation results (``GenerationStats.screened`` /
    ``screen_failures``), so the counts are the same under every
    executor.
    """

    @classmethod
    def for_machine(cls, machine) -> "StaticScreen":
        """The screen for ``machine``: the rule reads no machine
        setting, so this is ``StaticScreen()``."""
        return cls()

    def screen(self, program: Program, individual=None) -> ScreenReport:
        """Pass a program with a non-empty measured loop; fail any
        other with one SC103 diagnostic.  Never raises."""
        if program.loop:
            return ScreenReport(passed=True, diagnostics=[])
        name = f"uid{individual.uid}.s" if individual is not None \
            else program.name
        return ScreenReport(passed=False,
                            diagnostics=[empty_loop_diagnostic(name)])
