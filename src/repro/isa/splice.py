"""A machine's compile path: the assembler with one memo of decoded lines.

Every individual of a run renders into the same template, so most
lines of a source were already decoded, at the same line number, for
an earlier individual.  :class:`TemplateSplicer` keeps that memo for
the :class:`~repro.cpu.machine.SimulatedMachine` that builds every
compile miss through it and passes it to
:meth:`BaseAssembler.assemble`, which decodes only the lines it has
not seen; every program is the assembler's own.
"""

from __future__ import annotations

from .assembler import BaseAssembler
from .model import Program

__all__ = ["TemplateSplicer"]


class TemplateSplicer:
    """Compiles a machine's sources with one assembler and one line
    memo."""

    def __init__(self, assembler: BaseAssembler) -> None:
        self.assembler = assembler
        self._memo: dict = {}

    def compile(self, source: str, name: str = "stress.s") -> Program:
        """``assembler.assemble(source, name)``, reusing decoded lines."""
        return self.assembler.assemble(source, name, memo=self._memo)
