"""Tests for the static-analysis subsystem (repro.staticcheck).

Golden tests: one minimal trigger per diagnostic code, the derived
StaticProfile features, the pre-measurement screen, the determinism
self-lint, and the CLI entry points.  The parametrised config test at
the bottom is the repository's own lint gate: every shipped
configuration must stay clean.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import parse_config_file
from repro.core.individual import random_individual
from repro.core.instruction import InstructionLibrary, InstructionSpec
from repro.core.operand import ImmediateOperand, RegisterOperand
from repro.core.rng import make_rng
from repro.core.template import Template
from repro.cpu import (STOCK_L1, STOCK_L2, SimulatedMachine,
                       SimulatedTarget)
from repro.evaluation import EvaluationPipeline
from repro.fitness import DefaultFitness
from repro.isa import ArmAssembler
from repro.measurement import PowerMeasurement
from repro.staticcheck import (CODES, Diagnostic, Location, ScreenReport,
                               Severity, StaticScreen, analyze_program,
                               detect_syntax, diagnostics_to_json,
                               format_diagnostics, has_errors,
                               lint_config, lint_config_file,
                               lint_library, lint_source, lint_template,
                               lint_tree, make_diagnostic,
                               repro_package_root, summarise,
                               worst_severity)

CONFIG_FILES = sorted(
    Path(__file__).resolve().parent.parent.glob("configs/*/config.xml"))


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


def asm_program(body, init="mov x10, #0", name="test.s"):
    text = f"{init}\n.loop\n{body}\n.endloop\n"
    return ArmAssembler().assemble(text, name=name)


# ---------------------------------------------------------------------------
# diagnostics model


class TestDiagnosticModel:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.from_name("error") is Severity.ERROR
        with pytest.raises(ValueError):
            Severity.from_name("fatal")

    def test_every_code_has_default_severity_and_title(self):
        for code, (severity, title) in CODES.items():
            assert isinstance(severity, Severity)
            assert title
            assert code.startswith("SC")

    def test_make_diagnostic_defaults_severity_from_table(self):
        diag = make_diagnostic("SC103", "empty")
        assert diag.severity is Severity.ERROR
        assert diag.title == CODES["SC103"][1]

    def test_make_diagnostic_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            make_diagnostic("SC999", "nope")

    def test_location_describe(self):
        loc = Location(file="a.xml", line=3, instruction="ADD",
                       operand="dst")
        text = loc.describe()
        assert "a.xml:3" in text
        assert "instruction 'ADD'" in text
        assert "operand 'dst'" in text

    def test_format_includes_code_severity_location(self):
        diag = make_diagnostic("SC202", "boom", file="c.xml",
                               instruction="ADD", operand="bad")
        line = diag.format()
        assert line.startswith("SC202 error")
        assert "instruction 'ADD'" in line and "operand 'bad'" in line

    def test_helpers(self):
        diags = [make_diagnostic("SC102", "d"),
                 make_diagnostic("SC101", "w"),
                 make_diagnostic("SC202", "e")]
        assert has_errors(diags)
        assert not has_errors(diags[:2])
        assert worst_severity(diags) is Severity.ERROR
        assert worst_severity([]) is None
        assert summarise(diags) == "1 error, 1 warning, 1 note"

    def test_json_round_trip(self):
        import json
        diags = [make_diagnostic("SC101", "w", file="x.s", index=2)]
        payload = json.loads(diagnostics_to_json(diags, file="x.s"))
        assert payload["errors"] == 0 and payload["warnings"] == 1
        entry = payload["diagnostics"][0]
        assert entry["code"] == "SC101"
        assert entry["severity"] == "warning"
        assert entry["location"] == {"file": "x.s", "index": 2}

    def test_diagnostic_is_immutable(self):
        diag = make_diagnostic("SC101", "w")
        with pytest.raises(Exception):
            diag.code = "SC102"
        assert isinstance(diag, Diagnostic)


# ---------------------------------------------------------------------------
# dataflow pass (SC1xx)


class TestDataflow:
    def test_sc101_uninitialised_read(self):
        report = analyze_program(asm_program("add x1, x5, x6"))
        sc101 = [d for d in report.diagnostics if d.code == "SC101"]
        assert {d.location.index for d in sc101} == {0}
        named = " ".join(d.message for d in sc101)
        assert "'x5'" in named and "'x6'" in named
        assert report.profile.uninitialised_reads == 2

    def test_sc101_reported_once_per_register(self):
        report = analyze_program(
            asm_program("add x1, x5, x5\nadd x2, x5, x5"))
        assert codes_of(report.diagnostics).count("SC101") == 1

    def test_sc101_init_section_defines_registers(self):
        report = analyze_program(
            asm_program("add x1, x10, x10", init="mov x10, #7"))
        assert "SC101" not in codes_of(report.diagnostics)

    def test_sc101_loop_carried_write_still_flagged(self):
        # x1 is written inside the loop but only *after* the read, so
        # iteration 0 reads an undefined value.
        report = analyze_program(asm_program("add x2, x1, x1\nmov x1, #3"))
        sc101 = [d for d in report.diagnostics if d.code == "SC101"]
        assert len(sc101) == 1
        assert "first" in sc101[0].message

    def test_sc102_dead_write(self):
        report = analyze_program(
            asm_program("mov x1, #1\nmov x1, #2\nadd x3, x1, x1\n"
                        "add x4, x3, x3\nadd x5, x4, x4\n"
                        "add x1, x5, x5"))
        sc102 = [d for d in report.diagnostics if d.code == "SC102"]
        assert 0 in {d.location.index for d in sc102}
        assert report.profile.dead_writes >= 1

    def test_sc102_cyclic_liveness_no_false_positive(self):
        # x1 is read at the top of the *next* iteration: live, not dead.
        report = analyze_program(asm_program("add x2, x1, x1\nmov x1, #1"))
        dead_indices = {d.location.index for d in report.diagnostics
                        if d.code == "SC102"}
        assert 1 not in dead_indices

    def test_sc103_empty_loop_is_error(self):
        report = analyze_program(asm_program(""))
        sc103 = [d for d in report.diagnostics if d.code == "SC103"]
        assert len(sc103) == 1
        assert sc103[0].severity is Severity.ERROR
        assert report.profile.loop_length == 0

    def test_sc104_footprint_exceeds_cache(self):
        # The check reads the stock geometry the simulated hierarchy
        # models: a footprint of exactly the L1 fits, and one line past a
        # level's capacity draws SC104 naming that level.
        line = STOCK_L1.line_bytes

        def report_for(lines):
            body = "\n".join(f"ldr x1, [x10, #{i * line}]"
                             for i in range(lines))
            return analyze_program(asm_program(body))

        fits = report_for(STOCK_L1.size_bytes // line)
        assert "SC104" not in codes_of(fits.diagnostics)
        for level, config in (("L1", STOCK_L1), ("L2", STOCK_L2)):
            lines = config.size_bytes // line + 1
            report = report_for(lines)
            sc104 = [d for d in report.diagnostics if d.code == "SC104"]
            assert len(sc104) == 1
            assert f"exceeding the {config.size_bytes}-byte {level}" \
                in sc104[0].message
            assert report.profile.footprint_bytes == lines * line
            assert report.profile.distinct_lines == lines

    def test_sc105_fully_serial_chain(self):
        report = analyze_program(
            asm_program("add x1, x10, x10\nadd x2, x1, x1\n"
                        "add x3, x2, x2"))
        assert "SC105" in codes_of(report.diagnostics)
        assert report.profile.chain_depth == 3

    def test_sc105_not_emitted_for_parallel_body(self):
        report = analyze_program(
            asm_program("add x1, x10, x10\nadd x2, x10, x10"))
        assert "SC105" not in codes_of(report.diagnostics)
        assert report.profile.chain_depth == 1

    def test_chain_depth_counts_load_base_dependency(self):
        report = analyze_program(
            asm_program("add x9, x10, x10\nldr x1, [x9, #0]"))
        assert report.profile.chain_depth == 2

    def test_profile_mix_vector_aligned_and_normalised(self):
        report = analyze_program(
            asm_program("add x1, x10, x10\nldr x2, [x10, #0]"))
        mix = report.profile.mix_vector
        assert abs(sum(mix.values()) - 1.0) < 1e-9
        assert mix["int_short"] == 0.5
        assert all(isinstance(v, float) for v in mix.values())
        # every class key appears, even at zero, so vectors align
        from repro.isa.model import InstrClass
        assert set(mix) == {cls.value for cls in InstrClass}

    def test_profile_as_features_flat_floats(self):
        report = analyze_program(asm_program("add x1, x10, x10"))
        features = report.profile.as_features()
        assert features["loop_length"] == 1.0
        assert features["chain_depth_ratio"] == 1.0
        assert all(isinstance(v, float) for v in features.values())

    def test_clean_program_has_no_diagnostics(self):
        # Every write is read (x3 loop-carried), every read initialised,
        # and the 3-deep body has a 2-deep chain: nothing to report.
        report = analyze_program(
            asm_program("add x1, x3, x3\nadd x2, x3, x3\n"
                        "add x3, x1, x2", init="mov x3, #5"))
        assert report.diagnostics == []


# ---------------------------------------------------------------------------
# config & library lint (SC2xx)


def library_with(operands, instructions):
    return InstructionLibrary(operands, instructions)


GOOD_TEMPLATE = ("mov x10, #4096\n.loop\nstart:\n#loop_code\n"
                 "subs x0, x0, #1\nbne start\n.endloop\n")


class TestTemplateLint:
    def test_clean_template(self):
        assert lint_template(GOOD_TEMPLATE) == []

    def test_sc206_missing_marker(self):
        diags = lint_template(".loop\nnop\n.endloop\n")
        assert codes_of(diags) == ["SC206"]

    def test_sc206_duplicate_marker(self):
        diags = lint_template(".loop\n#loop_code\n#loop_code\n.endloop\n")
        assert "SC206" in codes_of(diags)
        assert "2" in diags[0].message

    def test_sc206_marker_outside_loop_section(self):
        diags = lint_template("#loop_code\n.loop\nnop\n.endloop\n")
        sc206 = [d for d in diags if d.code == "SC206"]
        assert len(sc206) == 1
        assert "before the .loop" in sc206[0].message

    def test_sc207_unassemblable_template(self):
        diags = lint_template("definitely not assembly ???\n#loop_code\n"
                              ".loop\n.endloop\n")
        assert "SC207" in codes_of(diags)

    def test_sc208_no_loop_section(self):
        diags = lint_template("mov x1, #0\n#loop_code\n")
        assert "SC208" in codes_of(diags)
        assert all(d.severity < Severity.ERROR for d in diags)

    def test_detect_syntax(self):
        assert detect_syntax(GOOD_TEMPLATE) == "arm"
        assert detect_syntax("mov rax, 1\n.loop\n#loop_code\n.endloop\n") \
            == "x86"
        assert detect_syntax("???\n") is None


class TestLibraryLint:
    def test_clean_library(self, tiny_library):
        diags = lint_library(tiny_library, ArmAssembler(), file="t.xml")
        assert not has_errors(diags)

    def test_sc202_impossible_operand_range(self):
        lib = library_with(
            [RegisterOperand("dst", ["x1", "x2"]),
             RegisterOperand("badreg", ["zzz9", "qqq3"])],
            [InstructionSpec("ADD", ["dst", "badreg", "dst"],
                             "add op1, op2, op3", "int_short")])
        diags = lint_library(lib, ArmAssembler(), file="bad.xml")
        sc202 = [d for d in diags if d.code == "SC202"]
        assert len(sc202) == 1
        assert sc202[0].location.instruction == "ADD"
        assert sc202[0].location.operand == "badreg"
        assert sc202[0].severity is Severity.ERROR

    def test_sc203_partially_assembling_range(self):
        lib = library_with(
            [RegisterOperand("dst", ["x1", "x2"]),
             RegisterOperand("mixed", ["x3", "zzz9"])],
            [InstructionSpec("ADD", ["dst", "mixed", "dst"],
                             "add op1, op2, op3", "int_short")])
        diags = lint_library(lib, ArmAssembler())
        sc203 = [d for d in diags if d.code == "SC203"]
        assert len(sc203) == 1
        assert sc203[0].location.operand == "mixed"
        assert "1 of 2" in sc203[0].message

    def test_sc204_unreachable_instruction(self):
        lib = library_with(
            [], [InstructionSpec("BOGUS", [], "bogusop x1", "int_short")])
        diags = lint_library(lib, ArmAssembler())
        sc204 = [d for d in diags if d.code == "SC204"]
        assert len(sc204) == 1
        assert sc204[0].location.instruction == "BOGUS"

    def test_sc205_unused_operand(self):
        lib = library_with(
            [RegisterOperand("dst", ["x1"]),
             RegisterOperand("orphan", ["x2"])],
            [InstructionSpec("MOV", ["dst"], "mov op1, #1", "int_short")])
        diags = lint_library(lib, ArmAssembler())
        sc205 = [d for d in diags if d.code == "SC205"]
        assert len(sc205) == 1
        assert sc205[0].location.operand == "orphan"

    def test_without_assembler_only_static_checks_run(self):
        lib = library_with(
            [RegisterOperand("badreg", ["zzz9"])],
            [InstructionSpec("ADD", ["badreg"], "add op1, op1, op1",
                             "int_short")])
        diags = lint_library(lib, None)
        assert "SC202" not in codes_of(diags)

    def test_lint_config_combines_template_and_library(self, tiny_config):
        diags = lint_config(tiny_config, file="tiny.xml")
        assert not has_errors(diags)


class TestConfigFileLint:
    def test_sc201_unparsable_file(self, tmp_path):
        bad = tmp_path / "broken.xml"
        bad.write_text("<not-even-close")
        diags = lint_config_file(bad)
        assert codes_of(diags) == ["SC201"]
        assert diags[0].severity is Severity.ERROR

    def test_missing_file_is_sc201(self, tmp_path):
        diags = lint_config_file(tmp_path / "absent.xml")
        assert codes_of(diags) == ["SC201"]


# ---------------------------------------------------------------------------
# pre-measurement screen


class TestStaticScreen:
    def test_non_empty_loop_passes(self):
        report = StaticScreen().screen(asm_program("add x1, x10, x10"))
        assert report.passed
        assert report.diagnostics == []

    def test_assembly_failure(self, tiny_config):
        # The pipeline compiles before it screens: a source that does
        # not assemble is a zero-fitness screen and compile failure.
        machine = SimulatedMachine("cortex_a15", sim_cycles=400)
        target = SimulatedTarget(machine)
        target.connect()
        pipeline = EvaluationPipeline(
            Template(tiny_config.template_text), PowerMeasurement(target),
            DefaultFitness(), screen=StaticScreen.for_machine(machine))
        individual = random_individual(tiny_config.library, 4,
                                       make_rng(1), uid=7)
        result = pipeline.evaluate(individual, source="??? garbage\n")
        assert result.screen_failed and result.compile_failed
        assert result.fitness == 0.0 and result.measurements == [0.0]

    def test_dataflow_error_fails(self):
        # The empty measured loop is the only error the dataflow pass
        # can report, and the one program the screen fails.
        assert [code for code, (severity, _) in CODES.items()
                if code.startswith("SC1")
                and severity >= Severity.ERROR] == ["SC103"]
        program = asm_program("")
        report = StaticScreen().screen(program)
        assert not report.passed
        assert codes_of(report.diagnostics) == ["SC103"]
        assert report.diagnostics == analyze_program(
            program, source_file=program.name).diagnostics

    def test_warning_severity_gate(self, tiny_config):
        # The stock screen passes a program whose findings are
        # warnings; a stricter gate is a screen object of the user's
        # own, as docs/API.md shows.
        class WarningScreen:
            def screen(self, program, individual=None):
                diagnostics = analyze_program(program).diagnostics
                return ScreenReport(
                    passed=not any(d.severity >= Severity.WARNING
                                   for d in diagnostics),
                    diagnostics=diagnostics)

        source = "mov x10, #0\n.loop\nadd x1, x5, x5\n.endloop\n"
        program = asm_program("add x1, x5, x5")
        assert "SC101" in codes_of(analyze_program(program).diagnostics)
        assert StaticScreen().screen(program).passed
        machine = SimulatedMachine("cortex_a15", sim_cycles=400)
        target = SimulatedTarget(machine)
        target.connect()
        pipeline = EvaluationPipeline(
            Template(tiny_config.template_text), PowerMeasurement(target),
            DefaultFitness(), screen=WarningScreen())
        individual = random_individual(tiny_config.library, 4,
                                       make_rng(1), uid=7)
        result = pipeline.evaluate(individual, source=source)
        assert result.screen_failed and not result.compile_failed
        assert result.fitness == 0.0

    def test_individual_uid_in_location(self):
        class FakeIndividual:
            uid = 42
        screen = StaticScreen()
        report = screen.screen(asm_program(""), FakeIndividual())
        assert report.diagnostics[0].location.file == "uid42.s"


# ---------------------------------------------------------------------------
# determinism self-lint (SC4xx)


class TestSelfLint:
    def test_sc400_syntax_error(self):
        diags = lint_source("def broken(:\n", filename="bad.py")
        assert codes_of(diags) == ["SC400"]

    def test_sc401_module_level_random(self):
        diags = lint_source("import random\nx = random.random()\n"
                            "random.seed(4)\n")
        assert codes_of(diags) == ["SC401", "SC401"]

    def test_sc401_seeded_random_instance_allowed(self):
        diags = lint_source("import random\nrng = random.Random(7)\n"
                            "x = rng.random()\n")
        assert diags == []

    def test_sc402_set_iteration(self):
        diags = lint_source("for x in {1, 2}:\n    pass\n"
                            "ys = [y for y in set(range(3))]\n")
        assert codes_of(diags) == ["SC402", "SC402"]

    def test_sc402_sorted_set_allowed(self):
        diags = lint_source("for x in sorted({1, 2}):\n    pass\n")
        assert diags == []

    def test_sc403_bare_popitem(self):
        diags = lint_source("d = {}\nd.popitem()\n")
        assert codes_of(diags) == ["SC403"]

    def test_sc403_directed_popitem_allowed(self):
        diags = lint_source("import collections\n"
                            "d = collections.OrderedDict()\n"
                            "d.popitem(last=False)\n")
        assert diags == []

    def test_sc404_wall_clock(self):
        diags = lint_source("import time\nt = time.time()\n"
                            "p = time.perf_counter()\n")
        assert codes_of(diags) == ["SC404", "SC404"]

    def test_suppression_comment(self):
        diags = lint_source(
            "import time\n"
            "t = time.time()  # staticcheck: disable=SC404\n")
        assert diags == []

    def test_suppression_is_code_specific(self):
        diags = lint_source(
            "import time\n"
            "t = time.time()  # staticcheck: disable=SC401\n")
        assert codes_of(diags) == ["SC404"]

    def test_blanket_suppression(self):
        diags = lint_source(
            "import time\nt = time.time()  # staticcheck: disable\n")
        assert diags == []

    def test_lint_tree_stable_order(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import random\nrandom.seed(1)\n")
        diags = lint_tree(tmp_path)
        assert [Path(d.location.file).name for d in diags] == \
            ["a.py", "b.py"]

    def test_repro_package_is_clean(self):
        # The CI gate: the framework's own sources must stay free of
        # determinism hazards (or carry an explicit disable comment).
        diags = lint_tree(repro_package_root())
        assert diags == [], format_diagnostics(diags)


# ---------------------------------------------------------------------------
# CLI entry points


class TestCli:
    def test_lint_clean_config_exits_zero(self, capsys):
        rc = main(["lint", str(CONFIG_FILES[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 errors" in out

    def test_lint_bad_config_names_instruction_and_operand(
            self, tmp_path, capsys):
        config = _write_bad_config(tmp_path)
        rc = main(["lint", str(config)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SC202" in out
        assert "instruction 'ADDBAD'" in out and "operand 'badreg'" in out

    def test_lint_json_output(self, tmp_path, capsys):
        import json
        config = _write_bad_config(tmp_path)
        rc = main(["lint", "--json", str(config)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["errors"] >= 1
        assert any(d["code"] == "SC202" for d in payload["diagnostics"])

    def test_check_reports_profile_and_diagnostics(self, tmp_path, capsys):
        source = tmp_path / "virus.s"
        source.write_text("mov x10, #0\n.loop\nadd x1, x5, x5\n"
                          "mov x2, #1\nmov x2, #2\n.endloop\n")
        rc = main(["check", str(source)])
        out = capsys.readouterr().out
        assert rc == 0                      # warnings don't fail check
        assert "loop length:    3" in out
        assert "SC101" in out and "SC102" in out

    def test_check_json(self, tmp_path, capsys):
        import json
        source = tmp_path / "ok.s"
        source.write_text("mov x10, #0\n.loop\nadd x1, x10, x10\n"
                          ".endloop\n")
        rc = main(["check", "--json", str(source)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["profile"]["loop_length"] == 1
        assert payload["errors"] == 0

    def test_check_unassemblable_source(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text("??? nope\n")
        assert main(["check", str(source)]) == 1

    def test_selfcheck_clean(self, capsys):
        rc = main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 errors" in out

    def test_selfcheck_flags_hazards(self, tmp_path, capsys):
        (tmp_path / "hazard.py").write_text(
            "import random, time\nrandom.seed(1)\nt = time.time()\n")
        rc = main(["selfcheck", "--path", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SC401" in out and "SC404" in out


def _write_bad_config(tmp_path):
    """A config whose 'badreg' operand can never assemble (the
    acceptance scenario from the issue)."""
    import shutil
    copy = tmp_path / CONFIG_FILES[0].parent.name
    shutil.copytree(CONFIG_FILES[0].parent, copy)
    config = copy / "config.xml"
    text = config.read_text()
    assert "</operands>" in text and "</instructions>" in text
    text = text.replace(
        "</operands>",
        '<operand id="badreg" type="register" values="zzz9 qqq3" />'
        "</operands>")
    text = text.replace(
        "</instructions>",
        '<instruction name="ADDBAD" num_of_operands="3" '
        'format="add op1, op2, op3" type="int_short" '
        'operand1="int_dst" operand2="badreg" operand3="int_src" />'
        "</instructions>")
    config.write_text(text)
    return config


# ---------------------------------------------------------------------------
# the repository lint gate: every shipped config must be clean


@pytest.mark.parametrize("config_path", CONFIG_FILES,
                         ids=[p.parent.name for p in CONFIG_FILES])
def test_shipped_config_lints_clean(config_path):
    diags = lint_config_file(config_path)
    errors = [d for d in diags if d.severity >= Severity.ERROR]
    assert errors == [], format_diagnostics(errors)


def test_config_dir_is_nonempty():
    assert CONFIG_FILES, "configs/ should ship at least one configuration"
