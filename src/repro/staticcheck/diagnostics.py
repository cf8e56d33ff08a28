"""The shared diagnostic model of the static-analysis subsystem.

Every pass — program dataflow, config/library lint, pre-measurement
screening and the framework determinism self-lint — reports findings as
:class:`Diagnostic` values: a stable code (``SC101``), a severity, a
location and a human-readable message.  Diagnostics are plain data and
JSON-serialisable, so the CLI can emit them for CI consumption and the
engine can attach them to screen failures without dragging in any pass
internals.

Code ranges:

=========  =======================================================
``SC1xx``  program dataflow analysis (:mod:`repro.staticcheck.dataflow`)
``SC2xx``  config & instruction-library lint (:mod:`~.configlint`)
``SC3xx``  static cost model (:mod:`~.costmodel`)
``SC4xx``  framework determinism self-lint (:mod:`~.selflint`)
=========  =======================================================

The full table lives in :data:`CODES`; ``docs/API.md`` documents each
code with a triggering example.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["Severity", "Location", "Diagnostic", "CODES",
           "make_diagnostic", "has_errors", "worst_severity",
           "sort_diagnostics", "diagnostics_to_json",
           "format_diagnostics", "summarise"]


class Severity(enum.IntEnum):
    """Ordered severities: comparisons follow the integer values."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}; expected one of "
                             f"{[s.label for s in cls]}") from None


#: code → (default severity, short title).  The title is the stable
#: one-line description shown by ``gest lint`` summaries and the docs.
CODES: Dict[str, tuple] = {
    # -- program dataflow ------------------------------------------------
    "SC101": (Severity.WARNING, "read of a never-initialised register"),
    "SC102": (Severity.INFO, "dead register write"),
    "SC103": (Severity.ERROR, "empty measured loop body"),
    "SC104": (Severity.INFO, "static memory footprint exceeds a cache level"),
    "SC105": (Severity.INFO, "fully serialised dependency chain"),
    # -- config & instruction-library lint -------------------------------
    "SC201": (Severity.ERROR, "configuration does not parse"),
    "SC202": (Severity.ERROR, "operand range can never assemble"),
    "SC203": (Severity.WARNING, "operand range partially assembles"),
    "SC204": (Severity.ERROR, "instruction unreachable by the generator "
                              "(no form assembles)"),
    "SC205": (Severity.WARNING, "operand definition unused by any "
                                "instruction"),
    "SC206": (Severity.ERROR, "#loop_code marker missing, duplicated or "
                              "outside the .loop section"),
    "SC207": (Severity.ERROR, "template does not assemble"),
    "SC208": (Severity.WARNING, "template has no .loop/.endloop section"),
    "SC209": (Severity.ERROR, "unknown GA operator name"),
    "SC210": (Severity.ERROR, "unknown search strategy, a strategy "
                              "parameter, or a metric it cannot rank by"),
    # -- static cost model -----------------------------------------------
    "SC301": (Severity.WARNING, "serializing loop-carried chain dominates "
                                "issue width"),
    "SC302": (Severity.INFO, "structurally idle unit class contradicts "
                             "the stress intent"),
    "SC303": (Severity.WARNING, "static bound incompatible with the "
                                "fitness target"),
    # -- framework determinism self-lint ---------------------------------
    "SC400": (Severity.ERROR, "framework source does not parse"),
    "SC401": (Severity.ERROR, "unseeded module-level random.* call"),
    "SC402": (Severity.WARNING, "iteration over a set"),
    "SC403": (Severity.ERROR, "order-sensitive dict.popitem()"),
    "SC404": (Severity.WARNING, "wall-clock read"),
}


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    All fields are optional; each pass fills what it knows — a config
    lint names the instruction and operand, the dataflow pass names the
    loop-body index, the self-lint names file and line.
    """

    file: Optional[str] = None
    line: Optional[int] = None
    instruction: Optional[str] = None     # library instruction name
    operand: Optional[str] = None         # operand definition id
    index: Optional[int] = None           # loop-body instruction index

    def describe(self) -> str:
        parts: List[str] = []
        if self.file:
            parts.append(self.file if self.line is None
                         else f"{self.file}:{self.line}")
        elif self.line is not None:
            parts.append(f"line {self.line}")
        if self.index is not None:
            parts.append(f"loop[{self.index}]")
        if self.instruction:
            parts.append(f"instruction {self.instruction!r}")
        if self.operand:
            parts.append(f"operand {self.operand!r}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {k: v for k, v in (("file", self.file), ("line", self.line),
                                  ("instruction", self.instruction),
                                  ("operand", self.operand),
                                  ("index", self.index)) if v is not None}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    code: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)

    @property
    def title(self) -> str:
        entry = CODES.get(self.code)
        return entry[1] if entry else self.code

    def format(self) -> str:
        where = self.location.describe()
        prefix = f"{self.code} {self.severity.label:7s}"
        return f"{prefix} {where}: {self.message}" if where \
            else f"{prefix} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "title": self.title,
            "message": self.message,
            "location": self.location.to_dict(),
        }


def make_diagnostic(code: str, message: str,
                    **location_fields) -> Diagnostic:
    """Build a diagnostic with the code's severity from :data:`CODES`."""
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}")
    return Diagnostic(code=code, severity=CODES[code][0], message=message,
                      location=Location(**location_fields))


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity >= Severity.ERROR for d in diagnostics)


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    worst: Optional[Severity] = None
    for diag in diagnostics:
        if worst is None or diag.severity > worst:
            worst = diag.severity
    return worst


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order by (file, code, location) for CI-diffable output.

    Passes emit diagnostics in discovery order, which can depend on
    dict iteration internals or pass sequencing; golden tests and
    ``--json`` consumers want one canonical order instead.
    """
    def key(diag: Diagnostic):
        loc = diag.location
        return (loc.file or "", diag.code,
                loc.line if loc.line is not None else -1,
                loc.index if loc.index is not None else -1,
                loc.instruction or "", loc.operand or "", diag.message)
    return sorted(diagnostics, key=key)


def summarise(diagnostics: Sequence[Diagnostic]) -> str:
    """``"2 errors, 1 warning, 3 notes"`` — the lint footer line."""
    counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
    for diag in diagnostics:
        counts[diag.severity] += 1
    noun = {Severity.ERROR: "error", Severity.WARNING: "warning",
            Severity.INFO: "note"}
    parts = [f"{count} {noun[sev]}{'s' if count != 1 else ''}"
             for sev, count in counts.items()]
    return ", ".join(parts)


def diagnostics_to_json(diagnostics: Sequence[Diagnostic],
                        **extra) -> str:
    """A stable JSON document for ``--json`` / CI consumption."""
    payload = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "errors": sum(1 for d in diagnostics
                      if d.severity >= Severity.ERROR),
        "warnings": sum(1 for d in diagnostics
                        if d.severity == Severity.WARNING),
    }
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


def format_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    lines = [d.format() for d in diagnostics]
    lines.append(summarise(diagnostics))
    return "\n".join(lines)
