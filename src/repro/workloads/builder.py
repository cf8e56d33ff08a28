"""Programmatic loop construction for baseline workloads.

The paper compares its GA viruses against conventional benchmarks
(coremark, fdct, imdct, Parsec, NAS), industry stress-tests (Prime95,
AMD's stability test) and manually-written stress loops.  We have none
of those binaries — and would not want to model whole programs — so
each baseline is represented by a *characteristic kernel loop* with the
workload's published character (integer/branchy, float-heavy, memory
mix, dependency structure).  :class:`LoopBuilder` assembles such loops
in either SimISA syntax so one workload definition serves every
simulated platform.

``chain=True`` blocks serialise on one register (a dependency chain —
low ILP, low power); ``chain=False`` blocks cycle independent
registers (high ILP).
"""

from __future__ import annotations

from typing import List

from ..core.errors import ConfigError
from ..isa.catalogs import arm_template, x86_template

__all__ = ["LoopBuilder", "build_workload_source"]

# Register pools kept clear of the stock templates' reserved registers
# (loop counter and memory bases).
_ARM_INT = ("x1", "x2", "x3", "x4", "x5", "x6")
_ARM_MEM_DST = ("x7", "x8", "x9")
_ARM_VEC = tuple(f"v{i}" for i in range(16))
_ARM_BASES = ("x10", "x11")

_X86_INT = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi")
_X86_MEM_DST = ("r9", "r10", "r11")
_X86_VEC = tuple(f"xmm{i}" for i in range(16))
_X86_BASES = ("rbp", "r8")


class LoopBuilder:
    """Builds loop bodies block by block in one of the two syntaxes."""

    def __init__(self, isa: str) -> None:
        if isa not in ("arm", "x86"):
            raise ConfigError(f"unknown ISA {isa!r}; expected 'arm' or 'x86'")
        self.isa = isa
        self.lines: List[str] = []
        self._counter = 0

    # -- block emitters ---------------------------------------------------

    def int_block(self, n: int, chain: bool = False) -> "LoopBuilder":
        """Short-latency integer ALU operations."""
        ops_arm = ("add", "sub", "eor", "orr")
        ops_x86 = ("add", "sub", "xor", "or")
        for _ in range(n):
            i = self._next()
            if self.isa == "arm":
                op = ops_arm[i % len(ops_arm)]
                if chain:
                    self.lines.append(f"{op} x1, x1, x2")
                else:
                    d, a, b = (_ARM_INT[i % 6], _ARM_INT[(i + 1) % 6],
                               _ARM_INT[(i + 2) % 6])
                    self.lines.append(f"{op} {d}, {a}, {b}")
            else:
                op = ops_x86[i % len(ops_x86)]
                if chain:
                    self.lines.append(f"{op} rax, rbx")
                else:
                    d, s = _X86_INT[i % 6], _X86_INT[(i + 1) % 6]
                    self.lines.append(f"{op} {d}, {s}")
        return self

    def mul_block(self, n: int, chain: bool = False) -> "LoopBuilder":
        """Long-latency integer multiplies."""
        for _ in range(n):
            i = self._next()
            if self.isa == "arm":
                if chain:
                    self.lines.append("mul x3, x3, x4")
                else:
                    d, a, b = (_ARM_INT[i % 6], _ARM_INT[(i + 1) % 6],
                               _ARM_INT[(i + 2) % 6])
                    self.lines.append(f"mul {d}, {a}, {b}")
            else:
                if chain:
                    self.lines.append("imul rcx, rdx")
                else:
                    d, s = _X86_INT[i % 6], _X86_INT[(i + 1) % 6]
                    self.lines.append(f"imul {d}, {s}")
        return self

    def div_block(self, n: int) -> "LoopBuilder":
        """Integer division — always a serialising long-latency op."""
        for _ in range(n):
            self._next()
            if self.isa == "arm":
                self.lines.append("sdiv x5, x5, x6")
            else:
                self.lines.append("idiv2 rsi, rdi")
        return self

    def float_block(self, n: int, chain: bool = False) -> "LoopBuilder":
        """Scalar floating point adds and multiplies, alternating."""
        for _ in range(n):
            i = self._next()
            if self.isa == "arm":
                op = "fmul" if i % 2 else "fadd"
                if chain:
                    self.lines.append(f"{op} v0, v0, v1")
                else:
                    d, a, b = (_ARM_VEC[i % 16], _ARM_VEC[(i + 1) % 16],
                               _ARM_VEC[(i + 2) % 16])
                    self.lines.append(f"{op} {d}, {a}, {b}")
            else:
                op = "mulsd" if i % 2 else "addsd"
                if chain:
                    self.lines.append(f"{op} xmm0, xmm1")
                else:
                    d, s = _X86_VEC[i % 16], _X86_VEC[(i + 1) % 16]
                    self.lines.append(f"{op} {d}, {s}")
        return self

    def simd_block(self, n: int, fma: bool = True,
                   chain: bool = False) -> "LoopBuilder":
        """Vector ops — the widest, most power-hungry datapath."""
        for _ in range(n):
            i = self._next()
            if self.isa == "arm":
                op = "vfma" if fma and i % 2 == 0 else "vmul"
                if chain:
                    self.lines.append(f"{op} v2, v2, v3")
                else:
                    d, a, b = (_ARM_VEC[i % 16], _ARM_VEC[(i + 1) % 16],
                               _ARM_VEC[(i + 3) % 16])
                    self.lines.append(f"{op} {d}, {a}, {b}")
            else:
                if fma and i % 2 == 0:
                    d, a, b = (_X86_VEC[i % 16], _X86_VEC[(i + 1) % 16],
                               _X86_VEC[(i + 3) % 16])
                    self.lines.append(f"vfmadd231ps {d}, {a}, {b}")
                else:
                    d, s = _X86_VEC[i % 16], _X86_VEC[(i + 1) % 16]
                    op = "mulps" if i % 3 else "addps"
                    self.lines.append(f"{op} {d}, {s}")
        return self

    def load_block(self, n: int, stride: int = 16) -> "LoopBuilder":
        """L1-resident loads off the template's base registers."""
        for _ in range(n):
            i = self._next()
            offset = (i * stride) % 256
            if self.isa == "arm":
                dst = _ARM_MEM_DST[i % 3]
                base = _ARM_BASES[i % 2]
                self.lines.append(f"ldr {dst}, [{base}, #{offset}]")
            else:
                dst = _X86_MEM_DST[i % 3]
                base = _X86_BASES[i % 2]
                self.lines.append(f"mov {dst}, [{base}+{offset}]")
        return self

    def store_block(self, n: int, stride: int = 16) -> "LoopBuilder":
        for _ in range(n):
            i = self._next()
            offset = (i * stride) % 256
            if self.isa == "arm":
                src = _ARM_INT[i % 6]
                base = _ARM_BASES[i % 2]
                self.lines.append(f"str {src}, [{base}, #{offset}]")
            else:
                src = _X86_INT[i % 6]
                base = _X86_BASES[i % 2]
                self.lines.append(f"mov [{base}+{offset}], {src}")
        return self

    def stream_block(self, n: int, advance: int = 64) -> "LoopBuilder":
        """Streaming loads: each group of accesses advances its base
        register by ``advance`` bytes, so with a modelled cache
        hierarchy the loop walks a large working set (line-sized or
        larger strides miss continuously).  Without a hierarchy this
        degrades gracefully to plain loads plus base arithmetic."""
        for _ in range(n):
            i = self._next()
            if self.isa == "arm":
                dst = _ARM_MEM_DST[i % 3]
                base = _ARM_BASES[i % 2]
                self.lines.append(f"ldr {dst}, [{base}, #0]")
                if i % 2 == 1:
                    self.lines.append(f"add {base}, {base}, #{advance}")
            else:
                dst = _X86_MEM_DST[i % 3]
                base = _X86_BASES[i % 2]
                self.lines.append(f"mov {dst}, [{base}+0]")
                if i % 2 == 1:
                    self.lines.append(f"add {base}, {advance}")
        return self

    def branch_block(self, n: int) -> "LoopBuilder":
        """Predictable taken branches to the next instruction."""
        for _ in range(n):
            self._next()
            if self.isa == "arm":
                self.lines.append("b 1f\n1:")
            else:
                self.lines.append("jmp 1f\n1:")
        return self

    def nop_block(self, n: int) -> "LoopBuilder":
        for _ in range(n):
            self._next()
            self.lines.append("nop")
        return self

    # -- output ------------------------------------------------------------

    def body(self) -> str:
        if not self.lines:
            raise ConfigError("loop body is empty")
        return "\n".join(self.lines)

    def __len__(self) -> int:
        return self._counter

    def _next(self) -> int:
        value = self._counter
        self._counter += 1
        return value


def build_workload_source(isa: str, body: str,
                          checkerboard: bool = True) -> str:
    """Wrap a loop body in the stock template for ``isa``."""
    template = arm_template(checkerboard=checkerboard) if isa == "arm" \
        else x86_template(checkerboard=checkerboard)
    from ..core.template import Template
    return Template(template).instantiate(body)
