"""Tests for the run's compile path (:mod:`repro.isa.splice`).

:class:`TemplateSplicer` assembles every source with
:meth:`BaseAssembler.assemble` and one memo of decoded lines, so each
program must equal a fresh assembly of its source, errors included,
and programs that share memoised instructions must never disturb one
another.
"""

import copy
import random

import pytest

from repro.core.config import parse_config_file
from repro.core.errors import AssemblyError
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu.cache import MemoryHierarchy
from repro.cpu.machine import SimulatedMachine
from repro.evaluation.probe import ShortProbe
from repro.isa import (ArmAssembler, X86Assembler, arm_library,
                       arm_template, clike_library, clike_template,
                       compile_clike, x86_library, x86_template)
from repro.isa.catalogs import arm_cache_stress_library
from repro.isa.splice import TemplateSplicer
from repro.staticcheck import StaticScreen, analyze_cost, static_score

CONFIG = "configs/arm_power/config.xml"


@pytest.fixture(scope="module")
def config():
    return parse_config_file(CONFIG)


@pytest.fixture()
def setup(config):
    machine = SimulatedMachine("cortex_a15")
    template = Template(config.template_text)
    splicer = TemplateSplicer(machine.assembler)
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


def _outcome(compile_fn, source):
    """The program ``compile_fn`` builds, or its AssemblyError text."""
    try:
        return compile_fn(source, "t.s")
    except AssemblyError as exc:
        return f"AssemblyError: {exc}"


def _with_bad_line(source, rng):
    """``source`` with one loop instruction replaced by an unknown
    opcode."""
    lines = source.splitlines()
    stripped = [line.strip() for line in lines]
    start, end = stripped.index(".loop"), stripped.index(".endloop")
    candidates = [index for index in range(start + 1, end)
                  if lines[index].strip() and ":" not in lines[index]]
    lines[rng.choice(candidates)] = "frobnicate x1, x2"
    return "\n".join(lines) + "\n"


#: (library factory, template factory, assembler class, translator) per
#: shipped instruction library.
LIBRARIES = {
    "arm": (arm_library, arm_template, ArmAssembler, None),
    "x86": (x86_library, x86_template, X86Assembler, None),
    "cache_stress": (arm_cache_stress_library, arm_template, ArmAssembler,
                     None),
    "clike": (clike_library, clike_template, ArmAssembler, compile_clike),
}


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

    def test_non_template_source_takes_full_path(self, setup):
        machine, _, splicer = setup
        source = ".loop\nadd x1, x1, x2\n.endloop\n"
        program = splicer.compile(source, name="other.s")
        assert program == machine.assembler.assemble(source, name="other.s")

    def test_bad_body_keeps_assembler_diagnostics(self, config, setup):
        machine, template, splicer = setup
        for source in _sources(config, template, 2):
            splicer.compile(source)
        source = template.instantiate("no_such_opcode x1, x2")
        with pytest.raises(AssemblyError) as spliced:
            splicer.compile(source, name="bad.s")
        with pytest.raises(AssemblyError) as reference:
            machine.assembler.assemble(source, name="bad.s")
        assert str(spliced.value) == str(reference.value)

    def test_numeric_label_bodies_splice(self, config, setup):
        machine, template, splicer = setup
        body = "1:\nadd x1, x1, x2\nsubs x3, x3, #1\nbne 1b"
        source = template.instantiate(body)
        # The second compile decodes every line from the memo.
        splicer.compile(source, name="lbl.s")
        spliced = splicer.compile(source, name="lbl.s")
        assert spliced == machine.assembler.assemble(source, name="lbl.s")

    @pytest.mark.parametrize("library_name", sorted(LIBRARIES))
    def test_random_bodies_of_every_library_match_assemble(
            self, library_name):
        make_library, make_template, assembler_cls, translator = \
            LIBRARIES[library_name]
        library = make_library()
        template = Template(make_template())
        splicer = TemplateSplicer(assembler_cls())
        rng = random.Random(29)
        for uid in range(40):
            body = random_individual(library, rng.randint(1, 40), rng,
                                     uid=uid).render_body()
            source = template.instantiate(body)
            if translator is not None:
                source = translator(source)
            broken = uid % 4 == 3
            if broken:
                source = _with_bad_line(source, rng)
            spliced = _outcome(splicer.compile, source)
            # A fresh assembler, so nothing is shared with the splicer.
            reference = _outcome(assembler_cls().assemble, source)
            assert spliced == reference
            assert isinstance(spliced, str) == broken

    def test_memo_decodes_only_new_lines(self, setup, monkeypatch):
        machine, template, splicer = setup
        calls = []
        real = machine.assembler._decode_line

        def counting(line, line_number):
            calls.append(line)
            return real(line, line_number)

        monkeypatch.setattr(machine.assembler, "_decode_line", counting)
        body = ["add x1, x2, x3", "mul x4, x5, x6", "b 1f", "1:",
                "ldr x7, [x10, #8]"]
        source = template.instantiate("\n".join(body))
        first = splicer.compile(source)
        assert calls
        del calls[:]
        assert splicer.compile(source) == first
        assert calls == []
        body[1] = "eor x4, x5, x6"
        changed = template.instantiate("\n".join(body))
        program = splicer.compile(changed, name="changed.s")
        assert calls == ["eor x4, x5, x6"]
        assert program == machine.assembler.assemble(changed,
                                                      name="changed.s")

    def test_shared_branch_line_resolves_per_program(self, setup):
        machine, template, splicer = setup
        near = template.instantiate("b 1f\n1:\nadd x1, x2, x3\n"
                                    "add x4, x5, x6")
        far = template.instantiate("b 1f\nadd x1, x2, x3\n1:\n"
                                   "add x4, x5, x6")
        first = splicer.compile(near, name="near.s")
        second = splicer.compile(far, name="far.s")
        third = splicer.compile(near, name="near.s")
        for program, source in ((first, near), (second, far),
                                (third, near)):
            assert program == machine.assembler.assemble(source,
                                                         name=program.name)
        index = next(i for i, instr in enumerate(first.loop)
                     if instr.text == "b 1f")
        assert second.loop[index].text == "b 1f"
        assert first.loop[index].branch_target == index + 1
        assert second.loop[index].branch_target == index + 2
        assert third.loop[index].branch_target == index + 1

    def test_evaluation_never_mutates_shared_instructions(self, config,
                                                         setup):
        # Memoised instructions are shared across programs, so every
        # consumer of a compiled program must leave it as it was built.
        machine, template, splicer = setup
        library = arm_cache_stress_library()
        rng = random.Random(5)
        sources = [template.instantiate(random_individual(
            lib, 30, rng).render_body())
            for lib in (config.library, library)]
        for source in sources:
            program = splicer.compile(source)
            init, loop = copy.deepcopy(program.init), \
                copy.deepcopy(program.loop)
            arch = machine.arch
            for run_on in (
                    machine,
                    SimulatedMachine(arch, steady_state_detection=False),
                    SimulatedMachine(arch, hierarchy=MemoryHierarchy())):
                run_on.run(program)
            static_score(program, arch, "power")
            analyze_cost(program, arch)
            StaticScreen().screen(program)
            ShortProbe(arch, cycles=400).probe_batch([program], [source])
            assert program.init == init
            assert program.loop == loop
