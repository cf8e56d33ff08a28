"""Stock instruction libraries and templates for the GA search.

The paper's framework release "includes measurement scripts and fitness
functions that can be used for power, IPC, dI/dt noise and
instruction-stream simplicity optimization for x86 and ARM ISA"; this
module is the analogous battery of ready-made instruction/operand
definitions (Figure 4 style) and template source files for both SimISA
syntaxes.

Register conventions baked into the stock templates:

========  ===========================  ===========================
role      ARM-like                     x86-like
========  ===========================  ===========================
counter   ``x0``                       ``r15``
mem base  ``x10``, ``x11``             ``rbp``, ``r8``
int pool  ``x1``–``x6``                ``rax rbx rcx rdx rsi rdi``
mem dst   ``x7``–``x9``                ``r9 r10 r11``
vec pool  ``v0``–``v15``               ``xmm0``–``xmm15``
========  ===========================  ===========================

Load results land in a register pool disjoint from the integer-op pool
— the paper's own trick for keeping short-latency integer instructions
off the critical path of memory loads.

Integer registers are initialised with checkerboard patterns
(``0xAAAA...``/``0x5555...``) because, as the paper reports, they
maximise bit switching and therefore power (see the register-init
ablation benchmark).
"""

from __future__ import annotations

from typing import Optional

from ..core.instruction import InstructionLibrary, InstructionSpec
from ..core.operand import ImmediateOperand, RegisterOperand

__all__ = [
    "arm_library", "x86_library", "library_for",
    "arm_template", "x86_template", "template_for",
    "CHECKERBOARD_A", "CHECKERBOARD_5",
]

CHECKERBOARD_A = 0xAAAAAAAAAAAAAAAA
CHECKERBOARD_5 = 0x5555555555555555

#: The stock memory-offset immediate pool, 0..256 in steps of 8 (Figure
#: 4's, giving its LDR "99 possible forms"); the C-level catalog uses it
#: too.
MAX_MEM_OFFSET = 256
MEM_OFFSET_STRIDE = 8


# ---------------------------------------------------------------------------
# ARM-like catalog
# ---------------------------------------------------------------------------

def arm_library() -> InstructionLibrary:
    """The stock ARM-flavoured GA search set.

    ~20 instruction definitions spanning all five of the paper's
    instruction categories, plus ``NOP``.
    """
    operands = [
        RegisterOperand("int_dst", ["x1", "x2", "x3", "x4", "x5", "x6"]),
        RegisterOperand("int_src", ["x1", "x2", "x3", "x4", "x5", "x6"]),
        RegisterOperand("mem_result", ["x7", "x8", "x9"]),
        RegisterOperand("pair_result1", ["x7"]),
        RegisterOperand("pair_result2", ["x8"]),
        RegisterOperand("mem_address_register", ["x10", "x11"]),
        ImmediateOperand("mem_offset", 0, MAX_MEM_OFFSET, MEM_OFFSET_STRIDE),
        ImmediateOperand("shift_amount", 1, 31, 2),
        RegisterOperand("vec_dst", [f"v{i}" for i in range(16)]),
        RegisterOperand("vec_src", [f"v{i}" for i in range(16)]),
    ]

    def int3(name: str, mnemonic: Optional[str] = None,
             itype: str = "int_short") -> InstructionSpec:
        mnemonic = mnemonic or name.lower()
        return InstructionSpec(name, ["int_dst", "int_src", "int_src"],
                               f"{mnemonic} op1, op2, op3", itype)

    def vec3(name: str, mnemonic: Optional[str] = None,
             itype: str = "simd") -> InstructionSpec:
        mnemonic = mnemonic or name.lower()
        return InstructionSpec(name, ["vec_dst", "vec_src", "vec_src"],
                               f"{mnemonic} op1, op2, op3", itype)

    instructions = [
        int3("ADD"), int3("SUB"), int3("EOR"), int3("ORR"),
        InstructionSpec("LSL", ["int_dst", "int_src", "shift_amount"],
                        "lsl op1, op2, #op3", "int_short"),
        int3("MUL", itype="int_long"),
        InstructionSpec("MLA", ["int_dst", "int_src", "int_src", "int_src"],
                        "mla op1, op2, op3, op4", "int_long"),
        int3("SDIV", itype="int_long"),
        vec3("FADD", itype="float"), vec3("FMUL", itype="float"),
        vec3("FMLA", itype="float"),
        vec3("VADD"), vec3("VMUL"), vec3("VEOR"), vec3("VFMA"),
        InstructionSpec("LDR", ["mem_result", "mem_address_register",
                                "mem_offset"],
                        "ldr op1, [op2, #op3]", "mem"),
        InstructionSpec("LDRV", ["vec_dst", "mem_address_register",
                                 "mem_offset"],
                        "ldr op1, [op2, #op3]", "mem"),
        InstructionSpec("STR", ["int_src", "mem_address_register",
                                "mem_offset"],
                        "str op1, [op2, #op3]", "mem"),
        InstructionSpec("STRV", ["vec_src", "mem_address_register",
                                 "mem_offset"],
                        "str op1, [op2, #op3]", "mem"),
        InstructionSpec("LDP", ["pair_result1", "pair_result2",
                                "mem_address_register", "mem_offset"],
                        "ldp op1, op2, [op3, #op4]", "mem"),
        InstructionSpec("STP", ["int_src", "int_src",
                                "mem_address_register", "mem_offset"],
                        "stp op1, op2, [op3, #op4]", "mem"),
        InstructionSpec("B", [], "b 1f\n1:", "branch"),
        InstructionSpec("CBNZ", ["int_src"], "cbnz op1, 1f\n1:", "branch"),
        InstructionSpec("NOP", [], "nop", "nop"),
    ]
    return InstructionLibrary(operands, instructions)


def arm_template(iterations: int = 1_000_000,
                 checkerboard: bool = True) -> str:
    """The stock ARM-flavoured template source (paper III.B.2).

    Initialises the loop counter, two memory base registers and the
    whole integer/vector pools, then declares the measured loop with
    the ``#loop_code`` marker and a decrement-and-branch loop edge.
    """
    pattern_a = CHECKERBOARD_A if checkerboard else 0
    pattern_5 = CHECKERBOARD_5 if checkerboard else 0
    lines = [
        "// GeST-repro stock ARM-like template",
        f"mov x0, #{iterations}",
        "mov x10, #4096",
        "mov x11, #8192",
    ]
    for i in range(1, 10):
        pattern = pattern_a if i % 2 else pattern_5
        lines.append(f"mov x{i}, #{hex(pattern)}")
    for i in range(16):
        pattern = pattern_a if i % 2 else pattern_5
        lines.append(f"fmov v{i}, #{hex(pattern)}")
    lines += [
        ".loop",
        "loop_begin:",
        "#loop_code",
        "subs x0, x0, #1",
        "bne loop_begin",
        ".endloop",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# x86-like catalog
# ---------------------------------------------------------------------------

def x86_library() -> InstructionLibrary:
    """The stock x86-flavoured GA search set (two-operand forms)."""
    operands = [
        RegisterOperand("int_dst",
                        ["rax", "rbx", "rcx", "rdx", "rsi", "rdi"]),
        RegisterOperand("int_src",
                        ["rax", "rbx", "rcx", "rdx", "rsi", "rdi"]),
        RegisterOperand("mem_result", ["r9", "r10", "r11"]),
        RegisterOperand("mem_address_register", ["rbp", "r8"]),
        ImmediateOperand("mem_offset", 0, MAX_MEM_OFFSET, MEM_OFFSET_STRIDE),
        ImmediateOperand("shift_amount", 1, 31, 2),
        RegisterOperand("xmm_dst", [f"xmm{i}" for i in range(16)]),
        RegisterOperand("xmm_src", [f"xmm{i}" for i in range(16)]),
    ]

    def int2(name: str, mnemonic: Optional[str] = None,
             itype: str = "int_short") -> InstructionSpec:
        mnemonic = mnemonic or name.lower()
        return InstructionSpec(name, ["int_dst", "int_src"],
                               f"{mnemonic} op1, op2", itype)

    def xmm2(name: str, mnemonic: Optional[str] = None,
             itype: str = "simd") -> InstructionSpec:
        mnemonic = mnemonic or name.lower()
        return InstructionSpec(name, ["xmm_dst", "xmm_src"],
                               f"{mnemonic} op1, op2", itype)

    instructions = [
        int2("ADD"), int2("SUB"), int2("XOR"), int2("OR"),
        InstructionSpec("SHL", ["int_dst", "shift_amount"],
                        "shl op1, op2", "int_short"),
        int2("IMUL", itype="int_long"),
        int2("IDIV", "idiv2", itype="int_long"),
        xmm2("ADDPS"), xmm2("MULPS"), xmm2("XORPS"),
        xmm2("ADDSD", itype="float"), xmm2("MULSD", itype="float"),
        InstructionSpec("VFMA", ["xmm_dst", "xmm_src", "xmm_src"],
                        "vfmadd231ps op1, op2, op3", "simd"),
        InstructionSpec("LOAD", ["mem_result", "mem_address_register",
                                 "mem_offset"],
                        "mov op1, [op2+op3]", "mem"),
        InstructionSpec("STORE", ["mem_address_register", "mem_offset",
                                  "int_src"],
                        "mov [op1+op2], op3", "mem"),
        InstructionSpec("LOADPS", ["xmm_dst", "mem_address_register",
                                   "mem_offset"],
                        "movaps op1, [op2+op3]", "mem"),
        InstructionSpec("STOREPS", ["mem_address_register", "mem_offset",
                                    "xmm_src"],
                        "movaps [op1+op2], op3", "mem"),
        InstructionSpec("JMP", [], "jmp 1f\n1:", "branch"),
        InstructionSpec("NOP", [], "nop", "nop"),
    ]
    return InstructionLibrary(operands, instructions)


def x86_template(iterations: int = 1_000_000,
                 checkerboard: bool = True) -> str:
    """The stock x86-flavoured template source."""
    pattern_a = CHECKERBOARD_A if checkerboard else 0
    pattern_5 = CHECKERBOARD_5 if checkerboard else 0
    gp_pool = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi",
               "r9", "r10", "r11"]
    lines = [
        "// GeST-repro stock x86-like template",
        f"mov r15, {iterations}",
        "mov rbp, 4096",
        "mov r8, 8192",
    ]
    for index, reg in enumerate(gp_pool):
        pattern = pattern_a if index % 2 else pattern_5
        lines.append(f"mov {reg}, {hex(pattern)}")
    for i in range(16):
        pattern = pattern_a if i % 2 else pattern_5
        lines.append(f"movaps xmm{i}, {hex(pattern)}")
    lines += [
        ".loop",
        "loop_begin:",
        "#loop_code",
        "dec r15",
        "jnz loop_begin",
        ".endloop",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch helpers
# ---------------------------------------------------------------------------

_LIBRARIES = {"arm": arm_library, "x86": x86_library}
_TEMPLATES = {"arm": arm_template, "x86": x86_template}


def library_for(isa: str) -> InstructionLibrary:
    """Stock library by ISA name (``arm`` or ``x86``)."""
    try:
        return _LIBRARIES[isa]()
    except KeyError:
        raise ValueError(f"unknown ISA {isa!r}; expected one of "
                         f"{sorted(_LIBRARIES)}") from None


def template_for(isa: str, **kwargs) -> str:
    """Stock template by ISA name (``arm`` or ``x86``)."""
    try:
        return _TEMPLATES[isa](**kwargs)
    except KeyError:
        raise ValueError(f"unknown ISA {isa!r}; expected one of "
                         f"{sorted(_TEMPLATES)}") from None


# ---------------------------------------------------------------------------
# stock configuration files (CLI quickstart)
# ---------------------------------------------------------------------------

def write_stock_config(directory, isa: str = "arm",
                       metric: str = "power",
                       population_size: int = 20,
                       individual_size: int = 50,
                       generations: int = 15,
                       seed: int = 42):
    """Write a ready-to-run main configuration + template to a directory.

    Produces the three files a GeST user would author by hand —
    ``config.xml``, ``template.s`` and ``measurement.xml`` — wired to
    the stock instruction catalog for ``isa`` and the measurement class
    for ``metric``.  Returns the path of ``config.xml``, suitable for
    ``gest run``.
    """
    from pathlib import Path

    from ..core.config import (MEASUREMENT_CONFIG_FILENAME, GAParameters,
                               RunConfig, config_to_xml,
                               measurement_config_to_xml)
    from ..measurement import MEASUREMENTS

    if metric not in MEASUREMENTS:
        raise ValueError(f"unknown metric {metric!r}; expected one of "
                         f"{sorted(MEASUREMENTS)}")
    measurement = MEASUREMENTS[metric]

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    template_text = template_for(isa)
    ga = GAParameters(population_size=population_size,
                      individual_size=individual_size,
                      mutation_rate=max(0.02, round(1.0 / individual_size, 4)),
                      generations=generations, seed=seed)
    config = RunConfig(ga=ga, library=library_for(isa),
                       template_text=template_text,
                       measurement_class=f"{measurement.__module__}."
                                         f"{measurement.__qualname__}",
                       measurement_params={"duration": "5", "samples": "5",
                                           "cores": "1"})
    (directory / "template.s").write_text(template_text)
    (directory / MEASUREMENT_CONFIG_FILENAME).write_text(
        measurement_config_to_xml(config.measurement_params))
    config_path = directory / "config.xml"
    config_path.write_text(config_to_xml(
        config, template_filename="template.s", results_dir="results"))
    return config_path


# ---------------------------------------------------------------------------
# cache/DRAM stress catalog (paper Section VII extension)
# ---------------------------------------------------------------------------

#: The stress catalog's immediate pools: offsets up to 4 KiB and base
#: advances up to 8 KiB, in cache-line steps.
_STRESS_MAX_OFFSET = 4096
_STRESS_MAX_BASE_STRIDE = 8192
_STRESS_STRIDE = 64


def arm_cache_stress_library() -> InstructionLibrary:
    """Instruction definitions for LLC/DRAM stress searches.

    The paper sketches exactly this recipe: "providing in the input
    file load/store instruction definitions with various strides, base
    memory registers and various min-max immediate values" and
    optimising toward cache misses.  Beyond wide-offset loads/stores,
    the set includes a base-advance instruction (``add base, base,
    #stride``) so the GA can walk the working set across iterations —
    small strides stay cache-resident, line-sized and larger strides
    stream through the hierarchy.
    """
    operands = [
        RegisterOperand("int_dst", ["x1", "x2", "x3", "x4"]),
        RegisterOperand("int_src", ["x1", "x2", "x3", "x4"]),
        RegisterOperand("mem_result", ["x7", "x8", "x9"]),
        RegisterOperand("mem_address_register", ["x10", "x11"]),
        ImmediateOperand("mem_offset", 0, _STRESS_MAX_OFFSET, _STRESS_STRIDE),
        ImmediateOperand("base_stride", _STRESS_STRIDE,
                         _STRESS_MAX_BASE_STRIDE, _STRESS_STRIDE),
        RegisterOperand("vec_dst", [f"v{i}" for i in range(8)]),
        RegisterOperand("vec_src", [f"v{i}" for i in range(8)]),
    ]
    instructions = [
        InstructionSpec("LDR", ["mem_result", "mem_address_register",
                                "mem_offset"],
                        "ldr op1, [op2, #op3]", "mem"),
        InstructionSpec("STR", ["int_src", "mem_address_register",
                                "mem_offset"],
                        "str op1, [op2, #op3]", "mem"),
        InstructionSpec("LDP", ["mem_result", "int_dst",
                                "mem_address_register", "mem_offset"],
                        "ldp op1, op2, [op3, #op4]", "mem"),
        InstructionSpec("ADVANCE", ["mem_address_register", "base_stride"],
                        "add op1, op1, #op2", "int_short"),
        InstructionSpec("ADD", ["int_dst", "int_src", "int_src"],
                        "add op1, op2, op3", "int_short"),
        InstructionSpec("EOR", ["int_dst", "int_src", "int_src"],
                        "eor op1, op2, op3", "int_short"),
        InstructionSpec("VADD", ["vec_dst", "vec_src", "vec_src"],
                        "vadd op1, op2, op3", "simd"),
        InstructionSpec("B", [], "b 1f\n1:", "branch"),
        InstructionSpec("NOP", [], "nop", "nop"),
    ]
    return InstructionLibrary(operands, instructions)


def arm_shared_template(iterations: int = 1_000_000,
                        checkerboard: bool = True) -> str:
    """A multi-instance template whose second base register points into
    the *shared* memory segment (paper Section IV extension).

    "The user must provide a template file that initializes
    shared-memory and launches multiple workload threads" — here the
    shared segment starts at ``SHARED_SEGMENT_BASE`` (1 MiB); the
    simulated machine treats accesses through ``x11`` as interconnect
    traffic to the shared LLC slice, while ``x10`` stays core-private.
    The GA, given both bases in its ``mem_address_register`` pool, is
    free to discover how much shared traffic maximises power.
    """
    template = arm_template(iterations=iterations,
                            checkerboard=checkerboard)
    return template.replace("mov x11, #8192",
                            "mov x11, #0x100000   // shared segment")
