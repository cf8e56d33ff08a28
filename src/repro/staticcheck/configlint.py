"""Config & instruction-library lint (paper Section III.B.1 inputs).

A malformed operand range in the instruction library is the worst kind
of configuration bug: the GA happily samples it, every rendered
individual fails to compile, and the search spends generations in a
zero-fitness black hole before anyone notices.  This pass catches that
class of problem *before* a search starts, by assembling every
instruction definition's forms against the same assembler the simulated
target uses:

* ``SC202`` — an operand slot none of whose values assemble (the
  "impossible operand range");
* ``SC203`` — an operand slot where only some values assemble (part of
  the search space is a guaranteed compile failure);
* ``SC204`` — an instruction definition with no assemblable form at
  all (unreachable by the generator in any useful sense);
* ``SC205`` — an operand definition no instruction references;
* ``SC206``/``SC207``/``SC208`` — template problems: a missing,
  duplicated or misplaced ``#loop_code`` marker, a template that does
  not assemble, a template without a measured ``.loop`` section;
* ``SC209``/``SC210`` — GA operator / search-strategy names that do
  not resolve against the :mod:`repro.search` registries, with a
  nearest-match suggestion (these mostly matter for programmatically
  built configs — file parsing validates eagerly and reports SC201);
* ``SC201`` — the configuration file does not parse at all (unknown
  operand classes and undefined operand references surface here with
  the parser's own actionable message).

The lint is assembler-ground-truth driven: a value "can assemble" iff
the SimISA front-end accepts the rendered line, so the pass can never
disagree with the measurement path.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.config import RunConfig, parse_config_file
from ..core.errors import AssemblyError, ConfigError, GestError
from ..core.instruction import InstructionLibrary, InstructionSpec
from ..core.template import LOOP_MARKER
from ..isa import assembler_for
from ..isa.assembler import BaseAssembler
from .diagnostics import Diagnostic, make_diagnostic

__all__ = ["lint_config", "lint_config_file", "lint_library",
           "lint_template", "lint_search", "detect_syntax"]

#: Cap on per-slot value enumeration; beyond this the slot is sampled
#: (ends + evenly spaced interior points) and the diagnostic says so.
MAX_VALUES_PER_SLOT = 64

_SYNTAXES = ("arm", "x86")


def _assembles(assembler: BaseAssembler, text: str) -> Optional[str]:
    """None when ``text`` assembles as a bare program, else the error."""
    try:
        assembler.assemble(text)
    except AssemblyError as exc:
        return str(exc)
    return None


def detect_syntax(template_text: str) -> Optional[str]:
    """Which SimISA syntax the template assembles under, if any.

    Tries each front-end on the template with a ``nop`` loop body
    (``nop`` is valid in both syntaxes).  Returns ``"arm"``, ``"x86"``
    or None when neither accepts the template.
    """
    probe_lines = [("nop" if line.strip() == LOOP_MARKER else line)
                   for line in template_text.splitlines()]
    probe = "\n".join(probe_lines) + "\n"
    for syntax in _SYNTAXES:
        if _assembles(assembler_for(syntax), probe) is None:
            return syntax
    return None


def lint_template(template_text: str,
                  file: Optional[str] = None) -> List[Diagnostic]:
    """Template checks: marker count and placement, assemblability."""
    diagnostics: List[Diagnostic] = []
    marker_lines = [number for number, line
                    in enumerate(template_text.splitlines(), start=1)
                    if line.strip() == LOOP_MARKER]
    if not marker_lines:
        diagnostics.append(make_diagnostic(
            "SC206", f"template has no {LOOP_MARKER!r} marker line; "
            "generated loop bodies have nowhere to go", file=file))
    elif len(marker_lines) > 1:
        diagnostics.append(make_diagnostic(
            "SC206", f"template contains {len(marker_lines)} "
            f"{LOOP_MARKER!r} markers (lines "
            f"{', '.join(map(str, marker_lines))}); exactly one is "
            "required", file=file))

    # Marker must sit inside the measured .loop/.endloop section —
    # otherwise the generated body runs once, outside the measurement.
    has_loop_directive = any(
        line.strip().split()[0].lower() == ".loop"
        for line in template_text.splitlines() if line.strip())
    if not has_loop_directive:
        diagnostics.append(make_diagnostic(
            "SC208", "template declares no .loop/.endloop section; the "
            "whole program is treated as the measured loop", file=file))
    elif marker_lines:
        section = "init"
        for number, line in enumerate(template_text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            directive = stripped.split()[0].lower()
            if directive == ".loop":
                section = "loop"
            elif directive == ".endloop":
                section = "done"
            elif stripped == LOOP_MARKER and section != "loop":
                where = ("before the .loop directive" if section == "init"
                         else "after .endloop")
                diagnostics.append(make_diagnostic(
                    "SC206", f"{LOOP_MARKER!r} marker on line {number} is "
                    f"{where}: generated instructions would execute "
                    "outside the measured loop", file=file, line=number))

    if detect_syntax(template_text) is None and len(marker_lines) == 1:
        diagnostics.append(make_diagnostic(
            "SC207", "template does not assemble under any supported "
            "SimISA syntax (tried: " + ", ".join(_SYNTAXES) + ")",
            file=file))
    return diagnostics


def _slot_values(library: InstructionLibrary, operand_id: str
                 ) -> Tuple[List[str], bool]:
    """(values to test, sampled?) for one operand slot."""
    values = list(library.operand(operand_id).choices())
    if len(values) <= MAX_VALUES_PER_SLOT:
        return values, False
    step = max(1, len(values) // (MAX_VALUES_PER_SLOT - 2))
    sampled = [values[0], values[-1]] + values[1:-1:step]
    return sampled[:MAX_VALUES_PER_SLOT], True


def _error_names_value(error: str, value: str) -> bool:
    """True when the assembler's message quotes ``value`` itself.

    SimISA front-ends report the offending token as ``{token!r}``; the
    quoted check avoids matching the full-line echo (``(in 'add x1,
    x99')``) or a longer register name (``x1`` inside ``'x10'``).
    """
    return f"'{value.strip().lower()}'" in error.lower()


def _lint_instruction(library: InstructionLibrary, spec: InstructionSpec,
                      assembler: BaseAssembler,
                      file: Optional[str]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    baseline = [library.operand(oid).choices()[0]
                for oid in spec.operand_ids]
    baseline_error = _assembles(assembler, spec.render(baseline))

    # Per slot: vary that slot's value with the other slots at baseline.
    # A failure counts against the slot only when the assembler's error
    # names the varied value — otherwise a *different* bad slot in the
    # baseline is to blame and attributing here would mislead.
    any_pass = baseline_error is None
    slot_results = []  # (operand_id, blamed, tested, sampled, example)
    for slot, operand_id in enumerate(spec.operand_ids):
        values, sampled = _slot_values(library, operand_id)
        blamed = 0
        example: Optional[Tuple[str, str]] = None
        for value in values:
            trial = list(baseline)
            trial[slot] = value
            error = _assembles(assembler, spec.render(trial))
            if error is None:
                any_pass = True
            elif _error_names_value(error, value):
                blamed += 1
                if example is None:
                    example = (value, error)
        slot_results.append((operand_id, blamed, len(values), sampled,
                             example))

    for operand_id, blamed, tested, sampled, example in slot_results:
        if blamed == 0:
            continue
        value, error = example
        qualifier = " (sampled)" if sampled else ""
        if blamed == tested:
            diagnostics.append(make_diagnostic(
                "SC202", f"no value of operand {operand_id!r} assembles "
                f"in this slot{qualifier}: e.g. value {value!r} gives "
                f"{error!r}", file=file, instruction=spec.name,
                operand=operand_id))
        else:
            diagnostics.append(make_diagnostic(
                "SC203", f"{blamed} of {tested} values of operand "
                f"{operand_id!r} fail to assemble{qualifier} (e.g. "
                f"{value!r}: {error!r}); that share of the search space "
                "is a guaranteed compile failure", file=file,
                instruction=spec.name, operand=operand_id))

    if not any_pass and not diagnostics:
        diagnostics.append(make_diagnostic(
            "SC204", f"no form of this instruction assembles "
            f"(e.g. {spec.render(baseline)!r}: {baseline_error}); the "
            "generator can only produce compile failures from it",
            file=file, instruction=spec.name))
    return diagnostics


def lint_library(library: InstructionLibrary,
                 assembler: Optional[BaseAssembler],
                 file: Optional[str] = None) -> List[Diagnostic]:
    """Lint every instruction/operand definition of ``library``.

    When ``assembler`` is None (template syntax undetectable) only the
    assembler-independent checks run.
    """
    diagnostics: List[Diagnostic] = []

    referenced = {oid for spec in library.instructions.values()
                  for oid in spec.operand_ids}
    for operand_id in library.operands:
        if operand_id not in referenced:
            diagnostics.append(make_diagnostic(
                "SC205", "no instruction references this operand "
                "definition; it is dead configuration", file=file,
                operand=operand_id))

    if assembler is not None:
        for spec in library.instructions.values():
            diagnostics.extend(
                _lint_instruction(library, spec, assembler, file))
    return diagnostics


def lint_search(config: RunConfig,
                file: Optional[str] = None) -> List[Diagnostic]:
    """Check operator and strategy names against the search registries.

    The registries are the single source of truth — the same tables
    ``GAParameters.validate`` and the CLI ``--strategy`` choices read —
    and every diagnostic carries the registry's full choice list plus a
    nearest-match suggestion (``did you mean 'tournament'?``).  GA
    operators are named only in the ``<ga>`` block (``SC209``); an
    unknown strategy, or a parameter given to one, is ``SC210``.
    """
    # Lazy imports: repro.search imports core submodules, and this
    # module is reachable from repro.core.config's validators.
    from ..search import CROSSOVER_OPERATORS, SELECTION_OPERATORS

    diagnostics: List[Diagnostic] = []
    ga = config.ga
    if ga.parent_selection_method not in SELECTION_OPERATORS:
        diagnostics.append(make_diagnostic(
            "SC209",
            SELECTION_OPERATORS.unknown_message(ga.parent_selection_method),
            file=file))
    if ga.crossover_operator not in CROSSOVER_OPERATORS:
        diagnostics.append(make_diagnostic(
            "SC209",
            CROSSOVER_OPERATORS.unknown_message(ga.crossover_operator),
            file=file))

    try:
        config.search.validate()
    except ConfigError as exc:
        diagnostics.append(make_diagnostic("SC210", str(exc), file=file))
    return diagnostics


def lint_config(config: RunConfig,
                file: Optional[str] = None) -> List[Diagnostic]:
    """Lint a parsed configuration: template, instruction library, and
    search-layer names."""
    diagnostics = lint_template(config.template_text, file=file)
    syntax = detect_syntax(config.template_text)
    assembler = assembler_for(syntax) if syntax is not None else None
    diagnostics.extend(lint_library(config.library, assembler, file=file))
    diagnostics.extend(lint_search(config, file=file))
    return diagnostics


def lint_config_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Parse and lint a main-configuration file.

    Parse failures become ``SC201`` diagnostics instead of exceptions,
    so the CLI reports them uniformly.  An error that carries its own
    ``diagnostic_code`` (an unknown search strategy rejected at parse
    time is ``SC210``, an unknown GA operator ``SC209``) keeps that
    code.
    """
    path = Path(path)
    try:
        config = parse_config_file(path)
    except (ConfigError, GestError) as exc:
        code = getattr(exc, "diagnostic_code", None) or "SC201"
        return [make_diagnostic(code, str(exc), file=str(path))]
    except OSError as exc:
        # e.g. the path is a directory, or unreadable
        return [make_diagnostic("SC201", f"cannot read configuration: "
                                f"{exc}", file=str(path))]
    return lint_config(config, file=str(path))
