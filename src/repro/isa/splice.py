"""Splice compilation: assemble a template once, re-decode only bodies.

Every individual in a generation renders into the *same* template —
only the loop-body lines between the template's fixed prefix and suffix
differ.  The full two-pass assembler re-parses the whole source every
time, which at generation scale means re-assembling the identical init
section and loop scaffolding population-many times per generation.

:class:`TemplateSplicer` exploits that structure: it assembles the
first rendered source in full, splits the resulting
:class:`~repro.isa.model.Program` into the template-owned parts (init
section, loop prefix before the insertion point, loop suffix after it)
and, for every later source, decodes only the body lines — with a
per-line memo, since GA populations repeat library renderings heavily —
and splices them between the shared template parts.

Safety model
------------
The splicer is *self-validating*: for every distinct body shape (line
count, instruction count) the first source is compiled both ways (the
very first source's full assembly doubles as its reference) and the
resulting Programs compared for equality; any mismatch permanently
deactivates splicing, falling back to the full assembler.  Sources that
do not textually match the template's rendered prefix/suffix, bodies
that define or reference non-numeric labels, and templates using
numeric labels in their own loop section all take the full-assembler
path as well.  Numeric-label resolution inside a body is exactly the
assembler's (forward/backward/trailing rules); a body branch that the
local resolution cannot satisfy falls back to the full assembler so
genuine assembly errors keep their original diagnostics.
"""

from __future__ import annotations

import copy
import re
from typing import Dict, List, Optional, Tuple

from ..core.errors import AssemblyError
from ..core.template import LOOP_MARKER, Template
from .assembler import BaseAssembler, _strip_comment, _take_label, \
    split_operands
from .model import DecodedInstruction, Program

__all__ = ["TemplateSplicer"]

#: Operand token that references a GNU-as numeric label (``1f`` / ``2b``).
_NUMERIC_REF = re.compile(r"^\d+[fb]$")


class TemplateSplicer:
    """Compile template-rendered sources by splicing decoded bodies.

    ``compile(source, name)`` is a drop-in replacement for
    ``assembler.assemble(source, name)`` for sources produced by
    ``template.instantiate``; any source it cannot handle (or any
    validation failure) silently takes the full-assembler path, so the
    result is always exactly what the assembler would produce.
    """

    def __init__(self, template: Template,
                 assembler: BaseAssembler) -> None:
        self.assembler = assembler
        self.template = template
        #: Permanently disabled after any validation mismatch.
        self.active = True
        #: Diagnostics: how many compiles went through each path.
        self.spliced = 0
        self.full_assemblies = 0

        lines = template.text.splitlines()
        marker_at = next(
            (i for i, line in enumerate(lines)
             if line.strip() == LOOP_MARKER), None)
        if marker_at is None:  # Template() already rejects this
            self.active = False
            self._prefix_lines: List[str] = []
            self._suffix_lines: List[str] = []
            return
        self._prefix_lines = lines[:marker_at]
        self._suffix_lines = lines[marker_at + 1:]
        # Loop-section instruction lines in the template prefix — the
        # decoded loop index at which body instructions are inserted.
        self._loop_prefix_len = _loop_instruction_count(self._prefix_lines)
        #: Named labels defined in the template's loop suffix: their
        #: decoded positions shift with the body length.
        self._suffix_label_names = _section_label_names(self._suffix_lines)
        if _uses_numeric_labels(self._prefix_lines + self._suffix_lines):
            # Template-owned numeric labels could capture or shadow the
            # body's local numeric references; splicing would need the
            # global two-pass view, so don't attempt it.
            self.active = False

        #: Decoded-instruction memo keyed on the stripped body line.
        self._line_memo: Dict[str, Tuple[DecodedInstruction,
                                         Optional[str]]] = {}
        #: Template parts captured from the first full assemble.
        self._parts: Optional[dict] = None
        #: Body shapes (line count, instruction count) already validated
        #: against the full assembler.
        self._validated: set = set()

    # -- public API ----------------------------------------------------------

    def compile(self, source: str, name: str = "stress.s") -> Program:
        """Assemble ``source``, splicing when it matches the template."""
        body = self._match(source) if self.active else None
        if body is None:
            return self._full(source, name)
        # The first source's full assembly captures the template parts
        # and is also the reference that validates its shape.
        reference = None
        if self._parts is None:
            reference = self._full(source, name)
            self._parts = self._capture_parts(reference, body)
            if self._parts is None:
                return reference
        try:
            spliced = self._splice(body, name)
        except AssemblyError:
            # Local resolution could not satisfy the body (dangling
            # numeric reference, unknown opcode...): let the full
            # assembler produce the authoritative result/diagnostic.
            spliced = None
        shape = None if spliced is None else (len(body), len(spliced.loop))
        if shape in self._validated:
            self.spliced += 1
            return spliced
        if reference is None:
            reference = self._full(source, name)
        if shape is not None:
            if _programs_equal(spliced, reference):
                self._validated.add(shape)
            else:
                self.active = False
        return reference

    # -- internals -----------------------------------------------------------

    def _full(self, source: str, name: str) -> Program:
        self.full_assemblies += 1
        return self.assembler.assemble(source, name=name)

    def _match(self, source: str) -> Optional[List[str]]:
        """Extract the body lines if ``source`` renders this template."""
        lines = source.splitlines()
        n_pre = len(self._prefix_lines)
        n_suf = len(self._suffix_lines)
        if len(lines) < n_pre + n_suf:
            return None
        if lines[:n_pre] != self._prefix_lines:
            return None
        if n_suf and lines[len(lines) - n_suf:] != self._suffix_lines:
            return None
        return lines[n_pre:len(lines) - n_suf]

    def _splice(self, body_lines: List[str],
                name: str) -> Optional[Program]:
        parts = self._parts
        n_pre = len(self._prefix_lines)
        # Decode the body: peel numeric labels, memoised per line text.
        instrs: List[DecodedInstruction] = []
        pending: List[Tuple[int, str, int]] = []  # (index, ref, line_no)
        label_positions: Dict[str, List[int]] = {}
        for offset, raw in enumerate(body_lines):
            line = _strip_comment(raw)
            if not line:
                continue
            line_number = n_pre + offset + 1
            if line.startswith("."):
                return None  # directives inside a body: full path
            while True:
                label, remainder = _take_label(line)
                if label is None:
                    break
                if not label.isdigit():
                    return None  # named label in a body: full path
                label_positions.setdefault(label, []).append(len(instrs))
                line = remainder
                if not line:
                    break
            if not line:
                continue
            memo = self._line_memo.get(line)
            if memo is None:
                memo = self.assembler._decode_line(line, line_number)
                self._line_memo[line] = memo
            proto, label_ref = memo
            instr = copy.copy(proto)
            instr.source_line = line_number
            instr.text = line
            if label_ref is not None:
                if not _NUMERIC_REF.match(label_ref):
                    return None  # named branch target: full path
                pending.append((len(instrs), label_ref, line_number))
            instrs.append(instr)

        base = parts["loop_prefix_len"]
        for index, ref, line_number in pending:
            target = _resolve_numeric(ref, index, label_positions,
                                      line_number)
            instr = instrs[index]
            instr.branch_target = base + target
            instr.backward = target <= index

        shift_lines = len(body_lines) - parts["body_line_count"]
        shift_instrs = len(instrs) - parts["body_instr_count"]
        if shift_lines == 0 and shift_instrs == 0:
            suffix = parts["suffix"]
            labels = parts["labels"]
        else:
            suffix = []
            for instr in parts["suffix"]:
                moved = copy.copy(instr)
                moved.source_line += shift_lines
                suffix.append(moved)
            labels = dict(parts["labels"])
            for label_name in self._suffix_label_names:
                if label_name in labels:
                    labels[label_name] += shift_instrs
        program = Program(
            name=name,
            init=parts["init"],
            loop=parts["prefix"] + instrs + suffix,
            labels=dict(labels))
        program.register_values = dict(parts["register_values"])
        return program

    def _capture_parts(self, reference: Program,
                       body_lines: List[str]) -> Optional[dict]:
        """Split the first full assemble into template-owned pieces."""
        body_instr_count = _instruction_count(body_lines)
        loop_prefix_len = self._loop_prefix_len
        suffix_start = loop_prefix_len + body_instr_count
        if suffix_start > len(reference.loop):
            return None
        return {
            "init": reference.init,
            "prefix": reference.loop[:loop_prefix_len],
            "suffix": reference.loop[suffix_start:],
            "labels": dict(reference.labels),
            "register_values": dict(reference.register_values),
            "loop_prefix_len": loop_prefix_len,
            "body_line_count": len(body_lines),
            "body_instr_count": body_instr_count,
        }


# -- helpers -----------------------------------------------------------------


def _resolve_numeric(ref: str, index: int,
                     positions: Dict[str, List[int]],
                     line_number: int) -> int:
    """Body-local GNU-as numeric label resolution (assembler semantics)."""
    number, direction = ref[:-1], ref[-1]
    candidates = positions.get(number, [])
    if direction == "f":
        forward = [pos for pos in candidates if pos > index]
        if forward:
            return min(forward)
        if index + 1 in candidates:
            return index + 1
        raise AssemblyError(
            f"no forward label {number!r} after instruction", line_number)
    backward = [pos for pos in candidates if pos <= index]
    if backward:
        return max(backward)
    raise AssemblyError(
        f"no backward label {number!r} before instruction", line_number)


def _instruction_count(lines: List[str]) -> int:
    """Count instruction lines (labels peeled, comments/directives
    skipped — mirrors the assembler's line classification)."""
    count = 0
    for raw in lines:
        line = _strip_comment(raw)
        if not line or line.startswith("."):
            continue
        while True:
            label, remainder = _take_label(line)
            if label is None:
                break
            line = remainder
            if not line:
                break
        if line:
            count += 1
    return count


def _loop_instruction_count(lines: List[str]) -> int:
    """Count instruction lines inside the ``.loop`` section of ``lines``."""
    in_loop: List[str] = []
    active = False
    for raw in lines:
        line = _strip_comment(raw)
        if line.startswith("."):
            directive = line.split()[0].lower()
            if directive == ".loop":
                active = True
            elif directive == ".endloop":
                active = False
            continue
        if active and line:
            in_loop.append(line)
    return _instruction_count(in_loop)


def _section_label_names(lines: List[str]) -> List[str]:
    """Named labels defined anywhere in ``lines``."""
    names: List[str] = []
    for raw in lines:
        line = _strip_comment(raw)
        while line:
            label, remainder = _take_label(line)
            if label is None:
                break
            if not label.isdigit():
                names.append(label)
            line = remainder
    return names


def _uses_numeric_labels(lines: List[str]) -> bool:
    """True if any line defines or references a numeric label."""
    for raw in lines:
        line = _strip_comment(raw)
        while line:
            label, remainder = _take_label(line)
            if label is None:
                break
            if label.isdigit():
                return True
            line = remainder
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) > 1:
            for operand in split_operands(parts[1]):
                if _NUMERIC_REF.match(operand):
                    return True
    return False


def _programs_equal(left: Program, right: Program) -> bool:
    """Dataclass equality (``_dependence_summary`` is excluded by its
    field definition, so lazily-warmed caches do not affect this)."""
    return left == right
