"""The pipeline scheduler against the reference scheduler.

The tiling contract says a tiled trace equals the full simulation bit
for bit, and the full simulation is only as right as its scheduling
rules.  This property draws random loop bodies from the shipped
instruction libraries (plus the LLC-stress library, whose base-advance
instruction strides the memory base registers), renders each into its
shipped template, compiles it, and checks that
:meth:`PipelineSimulator.execute` — steady-state detection on and off,
with and without a fresh :class:`MemoryHierarchy` — and the lockstep
:func:`simulate_population` (detection off, no hierarchy) produce the
trace of the frozen oracle in :mod:`tests.reference_scheduler`.

Tier-1 draws a few bodies per (library, preset) pair at 600 cycles;
``--hypothesis-profile=scheduler-deep`` (registered in ``conftest.py``)
draws that profile's budget instead.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Template, make_rng, random_individual
from repro.core.config import parse_config_file
from repro.cpu import SimulatedMachine
from repro.cpu.batch import simulate_population
from repro.cpu.cache import MemoryHierarchy
from repro.cpu.pipeline import PipelineSimulator
from repro.isa.catalogs import arm_cache_stress_library

from .reference_scheduler import reference_schedule

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CYCLES = 600

#: Bodies drawn per (library, preset) pair.
EXAMPLES = settings.default.max_examples \
    if settings.get_current_profile_name() == "scheduler-deep" else 3

PAIRS = [("arm", "cortex_a15"), ("arm", "cortex_a7"), ("arm", "xgene2"),
         ("x86", "athlon_x4"), ("arm_llc_stress", "cortex_a15"),
         ("arm_llc_stress", "cortex_a7")]


@lru_cache(maxsize=None)
def _library(name):
    """(instruction library, shipped template text) of ``name``."""
    shipped = parse_config_file(
        CONFIGS / ("x86_didt" if name == "x86" else "arm_power")
        / "config.xml")
    library = arm_cache_stress_library() if name == "arm_llc_stress" \
        else shipped.library
    return library, shipped.template_text


@lru_cache(maxsize=None)
def _machine(preset):
    return SimulatedMachine(preset)


def _program(library_name, preset, seed, size):
    library, template = _library(library_name)
    machine = _machine(preset)
    body = random_individual(library, size, make_rng(seed)).render_body()
    source = Template(template).instantiate(body)
    return machine.arch, machine.compile(source)


def _assert_matches(trace, reference, hierarchy):
    assert trace.issued_per_cycle == reference.issued_per_cycle
    assert trace.occupancy == reference.occupancy
    assert list(trace.group_counts.items()) == \
        list(reference.group_counts.items())
    assert trace.slot_counts.tolist() == reference.slot_counts
    assert trace.instructions_issued == reference.instructions_issued
    if hierarchy:
        assert np.array_equal(trace.extra_energy_per_cycle,
                              reference.extra_energy_per_cycle)
        assert trace.cache_summary == reference.cache_summary
    else:
        assert trace.extra_energy_per_cycle is None
        assert trace.cache_summary is None


@pytest.mark.parametrize("library_name,preset", PAIRS,
                         ids=[f"{lib}-{preset}" for lib, preset in PAIRS])
@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 50))
def test_scheduler_matches_reference(library_name, preset, seed, size):
    arch, program = _program(library_name, preset, seed, size)

    reference = reference_schedule(program, arch, CYCLES)
    for detect in (True, False):
        _assert_matches(
            PipelineSimulator(arch, detect_steady_state=detect)
            .execute(program, CYCLES), reference, hierarchy=False)
    lockstep, = simulate_population([program], arch, CYCLES)
    _assert_matches(lockstep, reference, hierarchy=False)

    reference = reference_schedule(program, arch, CYCLES,
                                   MemoryHierarchy())
    for detect in (True, False):
        _assert_matches(
            PipelineSimulator(arch, detect_steady_state=detect)
            .execute(program, CYCLES, hierarchy=MemoryHierarchy()),
            reference, hierarchy=True)


#: A base register walked down by ``sub base, base, #imm``: a stride rule
#: of the scheduler's value tracking that no library draws.
SUB_STRIDE_BODY = ("ldr x7, [x10, #128]\nadd x1, x7, x7\nadd x2, x1, x1\n"
                   "ldr x8, [x10, #0]\nsub x10, x10, #64\n")


def test_sub_stride_matches_reference():
    _, template = _library("arm")
    machine = _machine("cortex_a15")
    program = machine.compile(Template(template).instantiate(SUB_STRIDE_BODY))
    reference = reference_schedule(program, machine.arch, CYCLES,
                                   MemoryHierarchy())
    for detect in (True, False):
        _assert_matches(
            PipelineSimulator(machine.arch, detect_steady_state=detect)
            .execute(program, CYCLES, hierarchy=MemoryHierarchy()),
            reference, hierarchy=True)
