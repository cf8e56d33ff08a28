"""Tests for the template splice compiler (:mod:`repro.isa.splice`)."""

import random

import pytest

from repro.core.config import parse_config_file
from repro.core.errors import AssemblyError
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu.machine import SimulatedMachine
from repro.isa.splice import TemplateSplicer

CONFIG = "configs/arm_power/config.xml"


@pytest.fixture(scope="module")
def config():
    return parse_config_file(CONFIG)


@pytest.fixture()
def setup(config):
    machine = SimulatedMachine("cortex_a15")
    template = Template(config.template_text)
    splicer = TemplateSplicer(template, machine.assembler)
    return machine, template, splicer


def _sources(config, template, count, seed=13):
    rng = random.Random(seed)
    sources = []
    for uid in range(count):
        individual = random_individual(config.library,
                                       config.ga.individual_size, rng,
                                       uid=uid)
        sources.append(template.instantiate(individual.render_body()))
    return sources


class TestTemplateSplicer:
    def test_spliced_programs_equal_full_assembly(self, config, setup):
        machine, template, splicer = setup
        for index, source in enumerate(_sources(config, template, 32)):
            spliced = splicer.compile(source, name=f"s{index}.s")
            reference = machine.assembler.assemble(source,
                                                   name=f"s{index}.s")
            assert spliced == reference
            assert spliced.register_values == reference.register_values
            assert spliced.dependence_summary() \
                == reference.dependence_summary()
        assert splicer.active
        assert splicer.spliced > 0

    def test_non_template_source_takes_full_path(self, setup):
        machine, _, splicer = setup
        source = ".loop\nadd x1, x1, x2\n.endloop\n"
        program = splicer.compile(source, name="other.s")
        assert program == machine.assembler.assemble(source, name="other.s")
        assert splicer.spliced == 0
        assert splicer.full_assemblies == 1

    def test_bad_body_keeps_assembler_diagnostics(self, config, setup):
        _, template, splicer = setup
        source = template.instantiate("no_such_opcode x1, x2")
        with pytest.raises(AssemblyError):
            splicer.compile(source, name="bad.s")
        assert splicer.active  # diagnostics came from the full path

    def test_numeric_label_bodies_splice(self, config, setup):
        machine, template, splicer = setup
        body = "1:\nadd x1, x1, x2\nsubs x3, x3, #1\nbne 1b"
        source = template.instantiate(body)
        # Compile twice: first validates against the full assembler,
        # second goes through the splice path proper.
        splicer.compile(source, name="lbl.s")
        spliced = splicer.compile(source, name="lbl.s")
        assert spliced == machine.assembler.assemble(source, name="lbl.s")
        assert splicer.active

    def test_each_shape_assembles_once(self, config, setup):
        # The first source's full assembly captures the template parts
        # and validates its shape; it is never assembled twice.
        _, template, splicer = setup
        for index, source in enumerate(_sources(config, template, 20)):
            splicer.compile(source, name=f"s{index}.s")
        assert splicer.active
        assert splicer.full_assemblies == len(splicer._validated)
        assert splicer.spliced + splicer.full_assemblies == 20

    def test_validation_failure_deactivates(self, config, setup):
        machine, template, splicer = setup
        source = template.instantiate("add x1, x1, x2")
        parts = splicer._capture_parts(
            machine.assembler.assemble(source, name="warm.s"),
            ["add x1, x1, x2"])
        assert parts is not None
        # Corrupt the captured suffix: validation must catch the
        # mismatch and permanently fall back to the full assembler.
        parts = dict(parts)
        assert parts["suffix"], "template fixture lost its loop suffix"
        parts["suffix"] = parts["suffix"] + parts["suffix"][:1]
        splicer._parts = parts
        splicer.compile(source, name="warm.s")
        assert not splicer.active
