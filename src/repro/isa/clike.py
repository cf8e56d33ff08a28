"""C-level optimisation support (paper Section III.B.2).

"It is worth mentioning that while this work performs GA searches at
assembly programming level, the instruction definition interface and
the template source file can be also used to perform optimization at a
higher-level language (e.g. at a C code level)."

This module demonstrates that claim end to end: the GA's instruction
definitions are *C statements* and the template is a C-like source
file; a small compiler lowers the generated program to SimISA assembly,
which then flows through the unchanged toolchain → machine → sensor
path.  Only the target's compile step differs, exactly as it would on
real hardware (gcc instead of as).

The statement language (one statement per line):

========================  =======================================
statement                 lowering
========================  =======================================
``long a = 123;``         ``mov``  (declaration/initialisation)
``double f0 = 0xAA..;``   ``fmov`` (bit-pattern initialisation)
``a = b + c;``            ``add`` / ``sub`` / ``eor`` / ``mul`` /
                          ``sdiv`` by operator (+ - ^ * /)
``f0 = f1 * f2;``         ``fmul`` / ``fadd`` / ``fdiv``
``f0 = fma(f1, f2);``     ``fmla`` (f0 += f1*f2)
``a = p[IMM];``           ``ldr``  (pointer + byte offset)
``p[IMM] = a;``           ``str``
``label:`` / ``goto l;``  label / ``b``
``loop { ... }``          the measured region (.loop/.endloop)
========================  =======================================

Variables: ``a``–``f`` map to ``x1``–``x6``; pointers ``p``/``q`` to
``x10``/``x11``; ``f0``–``f7`` to ``v0``–``v7``; ``i`` (the loop
counter) to ``x0``.
"""

from __future__ import annotations

import re
from typing import List

from ..core.errors import AssemblyError
from ..core.instruction import InstructionLibrary, InstructionSpec
from ..core.operand import ImmediateOperand, RegisterOperand
from .catalogs import MAX_MEM_OFFSET, MEM_OFFSET_STRIDE

__all__ = ["compile_clike", "clike_library", "clike_template"]

_INT_VARS = {"a": "x1", "b": "x2", "c": "x3", "d": "x4", "e": "x5",
             "f": "x6", "t": "x7", "u": "x8", "w": "x9",
             "i": "x0", "p": "x10", "q": "x11"}
_FLOAT_VARS = {f"f{n}": f"v{n}" for n in range(8)}

_INT_OPS = {"+": "add", "-": "sub", "^": "eor", "|": "orr",
            "*": "mul", "/": "sdiv"}
_FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}

_DECL_RE = re.compile(
    r"^(?:long|double)\s+(\w+)\s*=\s*(-?(?:0[xX][0-9a-fA-F]+|\d+))\s*;$")
_BINOP_RE = re.compile(r"^(\w+)\s*=\s*(\w+)\s*([-+^|*/])\s*(\w+)\s*;$")
_FMA_RE = re.compile(r"^(\w+)\s*=\s*fma\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*;$")
_LOAD_RE = re.compile(r"^(\w+)\s*=\s*(\w+)\[(\d+)\]\s*;$")
_STORE_RE = re.compile(r"^(\w+)\[(\d+)\]\s*=\s*(\w+)\s*;$")
_GOTO_RE = re.compile(r"^goto\s+([\w$]+)\s*;$")
_LABEL_RE = re.compile(r"^([\w$]+|\d+)\s*:$")


def _var(name: str, line_number: int) -> str:
    if name in _INT_VARS:
        return _INT_VARS[name]
    if name in _FLOAT_VARS:
        return _FLOAT_VARS[name]
    raise AssemblyError(f"unknown variable {name!r}", line_number)


def _is_float(name: str) -> bool:
    return name in _FLOAT_VARS


def _lower_statement(statement: str, line_number: int) -> List[str]:
    """Lower one C-like statement to SimISA assembly lines."""
    match = _DECL_RE.match(statement)
    if match:
        name, value = match.groups()
        reg = _var(name, line_number)
        mnemonic = "fmov" if _is_float(name) else "mov"
        return [f"{mnemonic} {reg}, #{value}"]

    match = _FMA_RE.match(statement)
    if match:
        dst, src1, src2 = match.groups()
        if not (_is_float(dst) and _is_float(src1) and _is_float(src2)):
            raise AssemblyError("fma() needs float variables", line_number)
        return [f"fmla {_var(dst, line_number)}, "
                f"{_var(src1, line_number)}, {_var(src2, line_number)}"]

    match = _BINOP_RE.match(statement)
    if match:
        dst, src1, op, src2 = match.groups()
        floats = [_is_float(v) for v in (dst, src1, src2)]
        if any(floats):
            if not all(floats):
                raise AssemblyError(
                    "mixed int/float expression", line_number)
            table = _FLOAT_OPS
        else:
            table = _INT_OPS
        if op not in table:
            raise AssemblyError(
                f"operator {op!r} unsupported for these types",
                line_number)
        return [f"{table[op]} {_var(dst, line_number)}, "
                f"{_var(src1, line_number)}, {_var(src2, line_number)}"]

    match = _LOAD_RE.match(statement)
    if match:
        dst, pointer, offset = match.groups()
        if pointer not in ("p", "q"):
            raise AssemblyError(
                f"{pointer!r} is not a pointer (use p or q)", line_number)
        return [f"ldr {_var(dst, line_number)}, "
                f"[{_var(pointer, line_number)}, #{offset}]"]

    match = _STORE_RE.match(statement)
    if match:
        pointer, offset, src = match.groups()
        if pointer not in ("p", "q"):
            raise AssemblyError(
                f"{pointer!r} is not a pointer (use p or q)", line_number)
        return [f"str {_var(src, line_number)}, "
                f"[{_var(pointer, line_number)}, #{offset}]"]

    match = _GOTO_RE.match(statement)
    if match:
        return [f"b {match.group(1)}"]

    match = _LABEL_RE.match(statement)
    if match:
        return [f"{match.group(1)}:"]

    raise AssemblyError(f"cannot parse statement {statement!r}",
                        line_number)


def compile_clike(source: str) -> str:
    """Translate a C-like source file to SimISA assembly text.

    ``loop { ... }`` marks the measured region; the compiler emits the
    ``.loop``/``.endloop`` directives plus the counter-driven loop edge
    the templates normally write by hand.
    """
    lines: List[str] = []
    in_loop = False
    loop_seen = False
    for line_number, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.split("//")[0].strip()
        if not stripped:
            continue
        if stripped == "loop {":
            if loop_seen:
                raise AssemblyError("duplicate loop block", line_number)
            lines.append(".loop")
            lines.append("__clike_loop__:")
            in_loop = True
            loop_seen = True
            continue
        if stripped == "}":
            if not in_loop:
                raise AssemblyError("unmatched '}'", line_number)
            lines.append("subs x0, x0, #1")
            lines.append("bne __clike_loop__")
            lines.append(".endloop")
            in_loop = False
            continue
        lines.extend(_lower_statement(stripped, line_number))
    if in_loop:
        raise AssemblyError("unterminated loop block")
    if not loop_seen:
        raise AssemblyError("C-like source has no loop { } block")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# GA catalog at the C level
# ---------------------------------------------------------------------------

def clike_library() -> InstructionLibrary:
    """Statement definitions for a C-level GA search.

    The GA machinery is unchanged — these are ordinary Figure-4 style
    definitions whose *format strings are C statements*.
    """
    operands = [
        RegisterOperand("ivar", ["a", "b", "c", "d", "e", "f"]),
        RegisterOperand("fvar", [f"f{n}" for n in range(8)]),
        RegisterOperand("ptr", ["p", "q"]),
        ImmediateOperand("offset", 0, MAX_MEM_OFFSET, MEM_OFFSET_STRIDE),
    ]
    instructions = [
        InstructionSpec("IADD", ["ivar", "ivar", "ivar"],
                        "op1 = op2 + op3;", "int_short"),
        InstructionSpec("IXOR", ["ivar", "ivar", "ivar"],
                        "op1 = op2 ^ op3;", "int_short"),
        InstructionSpec("IMUL", ["ivar", "ivar", "ivar"],
                        "op1 = op2 * op3;", "int_long"),
        InstructionSpec("FADD", ["fvar", "fvar", "fvar"],
                        "op1 = op2 + op3;", "float"),
        InstructionSpec("FMUL", ["fvar", "fvar", "fvar"],
                        "op1 = op2 * op3;", "float"),
        InstructionSpec("FMA", ["fvar", "fvar", "fvar"],
                        "op1 = fma(op2, op3);", "float"),
        InstructionSpec("LOAD", ["ivar", "ptr", "offset"],
                        "op1 = op2[op3];", "mem"),
        InstructionSpec("STORE", ["ptr", "offset", "ivar"],
                        "op1[op2] = op3;", "mem"),
    ]
    return InstructionLibrary(operands, instructions)


def clike_template(iterations: int = 1_000_000) -> str:
    """The C-like template: declarations, then the measured loop with
    the ``#loop_code`` marker."""
    lines = [
        "// GeST-repro C-level template",
        f"long i = {iterations};",
        "long p = 4096;",
        "long q = 8192;",
    ]
    for index, name in enumerate(("a", "b", "c", "d", "e", "f")):
        pattern = "0xAAAAAAAAAAAAAAAA" if index % 2 \
            else "0x5555555555555555"
        lines.append(f"long {name} = {pattern};")
    for n in range(8):
        pattern = "0xAAAAAAAAAAAAAAAA" if n % 2 \
            else "0x5555555555555555"
        lines.append(f"double f{n} = {pattern};")
    lines += [
        "loop {",
        "#loop_code",
        "}",
    ]
    return "\n".join(lines) + "\n"
