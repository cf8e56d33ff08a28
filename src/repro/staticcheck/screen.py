"""Pre-measurement static screening (the engine's correctness gate).

Measurement is the expensive part of a GeST search — the paper's runs
spend hours driving real hardware, and this reproduction's cycle-level
:mod:`repro.cpu` model is the analogous hot path.  The screen runs the
cheap static passes on each individual *before* it enters that path:

1. the evaluation pipeline's compile stage compiles the rendered
   source once, for the measurement, which then reuses the program (a
   source that does not compile fails there and is recorded as a
   compile and a screen failure);
2. the screen runs the dataflow pass (:mod:`repro.staticcheck.dataflow`)
   over the compiled program;
3. it fails the individual when any diagnostic reaches
   ``fail_severity`` (default: error).

Failed individuals take the same zero-fitness route as
:class:`~repro.core.errors.AssemblyError` compile failures, but without
ever paying for pipeline simulation; the engine records them as screen
failures in :class:`~repro.core.engine.GenerationStats`.

Determinism note: the staged evaluation layer
(:mod:`repro.evaluation`) pins a per-source noise substream before
every measurement, so a screened individual skipping its measurement
can never shift the noise another individual observes — screening is
order-free by construction, under any executor backend and with the
evaluation cache on or off, and raising ``fail_severity`` to
``WARNING`` is purely a strictness choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.model import Program
from .dataflow import DEFAULT_LINE_BYTES, StaticProfile, analyze_program
from .diagnostics import Diagnostic, Severity

__all__ = ["ScreenReport", "StaticScreen"]


@dataclass
class ScreenReport:
    """Verdict of one screening."""

    passed: bool
    diagnostics: List[Diagnostic]
    profile: StaticProfile


class StaticScreen:
    """The engine-facing screening object.

    Stateless per call: each :meth:`screen` returns its verdict, and the
    engine counts screenings and failures from the evaluation results
    (``GenerationStats.screened`` / ``screen_failures``), so the counts
    are the same under every executor.

    Parameters
    ----------
    fail_severity:
        Minimum dataflow-diagnostic severity that fails an individual.
    l1_bytes / l2_bytes:
        Cache geometry for the footprint bound; None disables the
        corresponding check.
    """

    def __init__(self, fail_severity: Severity = Severity.ERROR,
                 l1_bytes: Optional[int] = None,
                 l2_bytes: Optional[int] = None,
                 line_bytes: int = DEFAULT_LINE_BYTES) -> None:
        self.fail_severity = fail_severity
        self.l1_bytes = l1_bytes
        self.l2_bytes = l2_bytes
        self.line_bytes = line_bytes

    @classmethod
    def for_machine(cls, machine, **kwargs) -> "StaticScreen":
        """A screen whose cache geometry matches ``machine``.

        Threads the machine's configured hierarchy through to the
        footprint bound, so SC104 compares against the cache sizes the
        simulation actually uses instead of the stock defaults.
        Additional keyword arguments pass through to the constructor.
        """
        hierarchy = getattr(machine, "hierarchy", None)
        if hierarchy is not None:
            kwargs.setdefault("l1_bytes", hierarchy.l1_config.size_bytes)
            kwargs.setdefault("l2_bytes", hierarchy.l2_config.size_bytes)
            kwargs.setdefault("line_bytes", hierarchy.l1_config.line_bytes)
        return cls(**kwargs)

    def screen(self, program: Program, individual=None) -> ScreenReport:
        """Screen one compiled program; never raises on bad programs."""
        name = f"uid{individual.uid}.s" if individual is not None \
            else program.name
        report = analyze_program(program, l1_bytes=self.l1_bytes,
                                 l2_bytes=self.l2_bytes,
                                 line_bytes=self.line_bytes,
                                 source_file=name)
        failing = [d for d in report.diagnostics
                   if d.severity >= self.fail_severity]
        return ScreenReport(passed=not failing,
                            diagnostics=report.diagnostics,
                            profile=report.profile)
