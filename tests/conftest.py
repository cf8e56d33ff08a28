"""Shared fixtures.

Machines are expensive-ish to exercise (pipeline + PDN per run), so the
common ones are session-scoped; tests must not mutate them.  GA fixtures
are deliberately tiny — correctness of the machinery, not search
quality, is what unit tests check (the benchmarks cover search quality).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import (GAParameters, RunConfig, Template, make_rng,
                        random_individual)
from repro.core.engine import WORKERS_ENV_VAR

#: The deeper run of the reference-scheduler property
#: (tests/test_reference_scheduler.py), which CI's test-parallel job
#: selects with ``--hypothesis-profile=scheduler-deep``: this many random
#: bodies per (library, preset) pair instead of tier-1's few.
settings.register_profile("scheduler-deep", max_examples=60, deadline=None)


@pytest.fixture(autouse=True)
def _serial_evaluation_marker(request, monkeypatch):
    """Honour the ``serial_evaluation`` marker.

    CI runs the whole suite under ``GEST_EVAL_WORKERS=2``, a 2-worker
    budget the auto-selecting executor may spend on a process pool, to
    prove pooled evaluation is behaviour-identical.  Tests that assert
    *in-process* plug-in state (call counters on test doubles) must
    never be pooled, so the marker clears the environment override and
    leaves the executor a budget of one.
    """
    if request.node.get_closest_marker("serial_evaluation"):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
from repro.core.instruction import InstructionLibrary, InstructionSpec
from repro.core.operand import ImmediateOperand, RegisterOperand
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.isa import ArmAssembler, X86Assembler, arm_library, arm_template


@pytest.fixture(scope="session")
def arm_lib():
    return arm_library()


@pytest.fixture(scope="session")
def arm_tmpl_text():
    return arm_template()


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture(scope="session")
def arm_asm():
    return ArmAssembler()


@pytest.fixture(scope="session")
def x86_asm():
    return X86Assembler()


@pytest.fixture(scope="session")
def a15_machine():
    return SimulatedMachine("cortex_a15", seed=5, sim_cycles=600)


@pytest.fixture(scope="session")
def a7_machine():
    return SimulatedMachine("cortex_a7", seed=5, sim_cycles=600)


@pytest.fixture(scope="session")
def athlon_machine():
    return SimulatedMachine("athlon_x4", seed=5, sim_cycles=800)


@pytest.fixture(scope="session")
def a15_power_comparison():
    """Every strategy on one cortex_a15 power search, shared by the two
    pruning strategies' acceptance tests."""
    from repro.experiments.search_comparison import search_comparison
    return search_comparison(platform="cortex_a15", metric="power")


@pytest.fixture
def target(a15_machine):
    t = SimulatedTarget(a15_machine)
    t.connect()
    return t


@pytest.fixture
def tiny_library():
    """A minimal 3-instruction library with known cardinalities."""
    operands = [
        RegisterOperand("dst", ["x1", "x2", "x3"]),
        RegisterOperand("src", ["x1", "x2", "x3", "x4"]),
        ImmediateOperand("imm", 0, 256, 8),
        RegisterOperand("base", ["x10"]),
    ]
    instructions = [
        InstructionSpec("ADD", ["dst", "src", "src"],
                        "add op1, op2, op3", "int_short"),
        InstructionSpec("LDR", ["dst", "base", "imm"],
                        "ldr op1, [op2, #op3]", "mem"),
        InstructionSpec("NOP", [], "nop", "nop"),
    ]
    return InstructionLibrary(operands, instructions)


@pytest.fixture
def tiny_template():
    return Template("mov x10, #4096\n.loop\nstart:\n#loop_code\n"
                    "subs x0, x0, #1\nbne start\n.endloop\n")


@pytest.fixture
def tiny_config(tiny_library, tiny_template):
    ga = GAParameters(population_size=6, individual_size=8,
                      mutation_rate=0.1, generations=3,
                      tournament_size=3, seed=99)
    return RunConfig(ga=ga, library=tiny_library,
                     template_text=tiny_template.text)


@pytest.fixture
def arm_individual(arm_lib, rng):
    return random_individual(arm_lib, 20, rng, uid=0)
