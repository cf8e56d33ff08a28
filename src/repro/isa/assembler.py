"""Two-pass assembler machinery shared by the ARM-like and x86-like
syntax front-ends.

The assembler plays the role of the target machine's toolchain in the
paper's measurement flow: generated source is "compiled" here, and any
malformed instruction (unknown opcode, bad register, out-of-range or
missing operand) raises :class:`AssemblyError` — which the GA engine
converts to a zero-fitness individual, exactly as compile failures are
handled by GeST on real hardware.

Source structure understood by the assembler::

    // comment                      (also ';' comments)
    mov x10, #4096                  init section (runs once)
    .loop                           start of the measured loop
    loop_begin:                     labels end with ':'
        #loop_code-generated body
        subs x0, x0, #1
        bne loop_begin              backward branch = loop edge
    .endloop

Numeric local labels follow GNU as conventions: ``1:`` defines, ``1f``
references the next definition forward, ``1b`` the previous one
backward.  The GA's branch instructions render as ``b 1f`` followed by
``1:`` so every generated branch is a predictable taken branch to the
next instruction.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import AssemblyError
from .model import DecodedInstruction, Program

__all__ = ["BaseAssembler", "split_operands"]

_COMMENT_MARKERS = ("//", ";")


def _strip_comment(line: str) -> str:
    for marker in _COMMENT_MARKERS:
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line.strip()


def split_operands(text: str) -> List[str]:
    """Split an operand list on top-level commas, keeping bracketed
    memory operands (``[x10, #8]``) intact."""
    operands: List[str] = []
    depth = 0
    current = []
    for char in text:
        if char == "[":
            depth += 1
            current.append(char)
        elif char == "]":
            depth -= 1
            if depth < 0:
                raise AssemblyError(f"unbalanced ']' in operands {text!r}")
            current.append(char)
        elif char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise AssemblyError(f"unbalanced '[' in operands {text!r}")
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return [op for op in operands if op]


class _PendingInstruction:
    """An instruction awaiting label resolution in pass two."""

    __slots__ = ("decoded", "label_ref", "index", "line_number")

    def __init__(self, decoded: DecodedInstruction,
                 label_ref: Optional[str], index: int,
                 line_number: int) -> None:
        self.decoded = decoded
        self.label_ref = label_ref
        self.index = index
        self.line_number = line_number


class BaseAssembler:
    """Shared two-pass assembly driver.

    Subclasses supply :attr:`handlers`, a mapping from lower-case opcode
    to a callable ``handler(operands: List[str]) -> DecodedInstruction``
    that may leave a label reference in ``branch_target_label`` (handled
    via the return tuple).  Handlers raise :class:`AssemblyError` for
    malformed operands.
    """

    #: Human-readable name used in error messages.
    syntax_name = "simisa"

    def __init__(self) -> None:
        self.handlers: Dict[str, Callable[[List[str]],
                                          Tuple[DecodedInstruction,
                                                Optional[str]]]] = {}

    # -- pickling ------------------------------------------------------------
    #
    # The handler table is full of per-opcode closures, which pickle
    # cannot serialise.  It is pure derived state, though: subclasses
    # rebuild it from scratch in their no-argument __init__, so a
    # pickled assembler simply drops the table and reconstructs it on
    # load.  This is what lets measurement objects (which reach an
    # assembler through their simulated machine) replicate into the
    # worker processes of repro.evaluation's ProcessPoolBackend.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("handlers", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.__dict__.update(state)

    # -- front-end hooks -----------------------------------------------------

    def register_values_from_init(
            self, init: List[DecodedInstruction]) -> Dict[str, int]:
        """Derive initial register data values from ``mov reg, #imm``
        style instructions in the init section.  The power model uses
        these for its data-toggle factor; registers not explicitly
        initialised keep the machine's default pattern."""
        values: Dict[str, int] = {}
        for instr in init:
            if instr.opcode in ("mov", "fmov", "vmov") and instr.writes \
                    and instr.immediate is not None:
                values[instr.writes[0]] = instr.immediate
        return values

    # -- assembly ---------------------------------------------------------------

    def assemble(self, source: str, name: str = "<source>",
                 memo: Optional[dict] = None) -> Program:
        """Assemble ``source`` into a :class:`Program`.

        Raises :class:`AssemblyError` on the first malformed line.

        ``memo`` is an optional dict kept across calls of this
        assembler, keyed by line number and instruction text: a line
        decoded before skips :meth:`_decode_line`.  A hit reuses the
        decoded instruction itself (programs are immutable), or a copy
        of it when the line names a label, so this program resolves its
        own branch target.  Directives, labels and every error check
        run on every source.
        """
        if memo is None:
            memo = {}
        sections: Dict[str, List[_PendingInstruction]] = {
            "init": [], "loop": []}
        labels: Dict[str, Tuple[str, int]] = {}
        numeric_labels: List[Tuple[str, str, int]] = []  # (label, section, idx)
        section = "init"
        seen_loop = False
        loop_closed = False

        for line_number, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue

            if line.startswith("."):
                directive = line.split()[0].lower()
                if directive == ".loop":
                    if seen_loop:
                        raise AssemblyError("duplicate .loop directive",
                                            line_number, raw)
                    section = "loop"
                    seen_loop = True
                elif directive == ".endloop":
                    if section != "loop":
                        raise AssemblyError(".endloop without .loop",
                                            line_number, raw)
                    section = "done"
                    loop_closed = True
                else:
                    # Other directives (.text, .global, alignment...) are
                    # accepted and ignored, like a real toolchain would.
                    continue
                continue

            # Peel any number of leading labels off the line.
            while True:
                label, remainder = _take_label(line)
                if label is None:
                    break
                if section == "done":
                    raise AssemblyError("label after .endloop",
                                        line_number, raw)
                position = len(sections[section])
                if label.isdigit():
                    numeric_labels.append((label, section, position))
                else:
                    if label in labels:
                        raise AssemblyError(f"duplicate label {label!r}",
                                            line_number, raw)
                    labels[label] = (section, position)
                line = remainder
                if not line:
                    break
            if not line:
                continue

            if section == "done":
                raise AssemblyError("instruction after .endloop",
                                    line_number, raw)

            entry = memo.get((line_number, line))
            if entry is None:
                entry = memo[line_number, line] = \
                    self._decode_line(line, line_number)
            decoded, label_ref = entry
            if label_ref is not None:
                decoded = copy.copy(decoded)
            pending = _PendingInstruction(decoded, label_ref,
                                          len(sections[section]), line_number)
            sections[section].append(pending)

        if seen_loop and not loop_closed:
            raise AssemblyError(".loop without matching .endloop")
        if seen_loop:
            init = self._resolve(sections["init"], "init", labels,
                                 numeric_labels)
            loop = self._resolve(sections["loop"], "loop", labels,
                                 numeric_labels)
        else:
            # A bare program (no directives) is treated as all-loop; its
            # labels were recorded against the init section, so resolve
            # there.  Keeps ad-hoc snippets and unit tests convenient.
            init = []
            loop = self._resolve(sections["init"], "init", labels,
                                 numeric_labels)

        program = Program(name=name, init=init, loop=loop,
                          labels={k: v[1] for k, v in labels.items()})
        program.register_values = self.register_values_from_init(init)
        return program

    # -- internals -----------------------------------------------------------------

    def _decode_line(self, line: str, line_number: int
                     ) -> Tuple[DecodedInstruction, Optional[str]]:
        parts = line.split(None, 1)
        opcode = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        handler = self.handlers.get(opcode)
        if handler is None:
            raise AssemblyError(
                f"unknown {self.syntax_name} opcode {opcode!r}",
                line_number, line)
        try:
            decoded, label_ref = handler(split_operands(operand_text))
        except AssemblyError as exc:
            raise AssemblyError(f"{exc} (in {line!r})", line_number) from None
        decoded.source_line = line_number
        decoded.text = line
        return decoded, label_ref

    def _resolve(self, pending: List[_PendingInstruction], section: str,
                 labels: Dict[str, Tuple[str, int]],
                 numeric_labels: List[Tuple[str, str, int]]
                 ) -> List[DecodedInstruction]:
        resolved: List[DecodedInstruction] = []
        for item in pending:
            decoded = item.decoded
            if item.label_ref is not None:
                target = self._resolve_label(item.label_ref, section,
                                             item.index, labels,
                                             numeric_labels,
                                             item.line_number)
                decoded.branch_target = target
                decoded.backward = target <= item.index
            resolved.append(decoded)
        return resolved

    def _resolve_label(self, ref: str, section: str, index: int,
                       labels: Dict[str, Tuple[str, int]],
                       numeric_labels: List[Tuple[str, str, int]],
                       line_number: int) -> int:
        if ref and ref[:-1].isdigit() and ref[-1] in "fb":
            number, direction = ref[:-1], ref[-1]
            candidates = [pos for (label, sec, pos) in numeric_labels
                          if label == number and sec == section]
            if direction == "f":
                forward = [pos for pos in candidates if pos > index]
                if forward:
                    return min(forward)
                # A trailing "1:" label with nothing after it points just
                # past the last instruction: treat as fall-through.
                trailing = [pos for pos in candidates if pos == index + 1]
                if trailing:
                    return index + 1
                raise AssemblyError(
                    f"no forward label {number!r} after instruction",
                    line_number)
            backward = [pos for pos in candidates if pos <= index]
            if backward:
                return max(backward)
            raise AssemblyError(
                f"no backward label {number!r} before instruction",
                line_number)

        entry = labels.get(ref)
        if entry is None:
            raise AssemblyError(f"undefined label {ref!r}", line_number)
        label_section, position = entry
        if label_section != section:
            # A loop-body branch to a label defined in the init section is
            # only legal if it names the loop entry (the classic
            # decrement-and-branch pattern); map it to loop index 0.
            if section == "loop" and label_section == "init":
                return 0
            raise AssemblyError(
                f"label {ref!r} crosses section boundary", line_number)
        return position


def _take_label(line: str) -> Tuple[Optional[str], str]:
    """If ``line`` starts with ``label:``, return (label, rest)."""
    colon = line.find(":")
    if colon <= 0:
        return None, line
    candidate = line[:colon].strip()
    if not candidate or any(ch.isspace() for ch in candidate):
        return None, line
    if not all(ch.isalnum() or ch in "._$" for ch in candidate):
        return None, line
    return candidate, line[colon + 1:].strip()
