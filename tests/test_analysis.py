"""Unit tests for the analysis package (repro.analysis)."""

import math

import pytest

from repro.analysis import (RELATED_WORK, TABLE_CATEGORIES, VMIN_STEP_V,
                            area_under_curve, bar_chart, best_fitness_series,
                            breakdown_table, characterize_vmin,
                            dominant_category, figure_rows,
                            final_improvement, generations_to_exceed,
                            is_monotonic, mix_of_individual, mix_of_program,
                            normalize, related_work_table, vmin_table)
from repro.core.engine import GenerationStats, RunHistory
from repro.core.errors import ConfigError
from repro.core.individual import random_individual
from repro.core.rng import make_rng
from repro.isa import ArmAssembler

from .scripted import ScriptedMeasurement


class TestInstructionMix:
    def test_mix_of_individual_categories(self, arm_lib):
        ind = random_individual(arm_lib, 50, make_rng(1))
        mix = mix_of_individual(ind)
        assert sum(mix.values()) == 50
        assert set(TABLE_CATEGORIES) <= set(mix)

    def test_mix_of_program(self):
        program = ArmAssembler().assemble(
            ".loop\nadd x1, x2, x3\nmul x4, x5, x6\nfadd v0, v1, v2\n"
            "vmul v3, v4, v5\nldr x7, [x10, #8]\nb 1f\n1:\n.endloop\n")
        mix = mix_of_program(program)
        assert mix["ShortInt"] == 1
        assert mix["LongInt"] == 1
        assert mix["Float/SIMD"] == 2
        assert mix["Mem"] == 1
        assert mix["Branch"] == 1

    def test_dominant_category(self):
        assert dominant_category(
            {"ShortInt": 3, "Float/SIMD": 20, "Mem": 10}) == "Float/SIMD"

    def test_dominant_category_tie_prefers_column_order(self):
        assert dominant_category({"ShortInt": 5, "Mem": 5}) == "ShortInt"

    def test_breakdown_table_renders_rows(self):
        text = breakdown_table(
            [("Cortex-A15", {"ShortInt": 4, "LongInt": 5,
                             "Float/SIMD": 22, "Mem": 18, "Branch": 1})])
        assert "Cortex-A15" in text
        assert "22" in text
        assert "Total" in text

    def test_breakdown_table_extra_columns(self):
        text = breakdown_table(
            [("v", {"ShortInt": 1})],
            extra_columns=[("Relative IPC", {"v": 1.12})])
        assert "Relative IPC" in text
        assert "1.12" in text

    def test_unknown_itype_preserved(self):
        from repro.core.individual import Individual
        from repro.core.instruction import (ConcreteInstruction,
                                            InstructionSpec)
        spec = InstructionSpec("CRYPT", [], "nop", "crypto")
        ind = Individual([ConcreteInstruction(spec, ())])
        assert mix_of_individual(ind)["crypto"] == 1


def _history(series):
    history = RunHistory()
    for number, value in enumerate(series):
        history.generations.append(GenerationStats(
            number=number, best_fitness=value, mean_fitness=value * 0.8,
            best_uid=number, compile_failures=0))
    return history


class TestConvergence:
    def test_best_fitness_series(self):
        assert best_fitness_series(_history([1, 2, 3])) == [1, 2, 3]

    def test_generations_to_exceed(self):
        history = _history([1.0, 1.5, 2.5, 3.0])
        assert generations_to_exceed(history, 2.0) == 2
        assert generations_to_exceed(history, 99.0) is None

    def test_final_improvement(self):
        assert final_improvement(_history([2.0, 3.0])) == pytest.approx(0.5)

    def test_final_improvement_from_zero(self):
        assert final_improvement(_history([0.0, 1.0])) == float("inf")

    def test_area_under_curve(self):
        assert area_under_curve([1.0, 2.0, 3.0]) == 6.0

    def test_is_monotonic(self):
        assert is_monotonic([1, 2, 2, 3])
        assert not is_monotonic([1, 2, 1.5])
        assert is_monotonic([1, 2, 1.95], tolerance=0.1)


class TestReports:
    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalize_missing_reference(self):
        with pytest.raises(ConfigError):
            normalize({"a": 1.0}, "zz")

    def test_normalize_zero_reference(self):
        with pytest.raises(ConfigError):
            normalize({"a": 0.0}, "a")

    def test_figure_rows_sorted(self):
        rows = figure_rows({"x": 1.0, "y": 3.0, "z": 2.0})
        assert [name for name, _ in rows] == ["y", "z", "x"]

    def test_figure_rows_normalised(self):
        rows = figure_rows({"x": 2.0, "ref": 4.0}, reference="ref")
        assert dict(rows)["x"] == pytest.approx(0.5)

    def test_bar_chart_contains_all_rows(self):
        chart = bar_chart([("abc", 2.0), ("de", 1.0)], title="T")
        assert "T" in chart and "abc" in chart and "de" in chart
        assert "#" in chart

    def test_bar_chart_rejects_empty(self):
        with pytest.raises(ConfigError):
            bar_chart([])

    def test_bar_chart_rejects_nonpositive_peak(self):
        with pytest.raises(ConfigError):
            bar_chart([("a", 0.0)])


class TestVmin:
    def test_step_matches_paper(self):
        assert VMIN_STEP_V == pytest.approx(0.0125)

    def test_quiet_workload_has_low_vmin(self, athlon_machine):
        program = athlon_machine.compile(
            ".loop\nnop\nnop\nadd rax, rbx\n.endloop\n", name="quiet")
        result = characterize_vmin(athlon_machine, program, cores=1)
        assert result.vmin_v < athlon_machine.arch.vdd_nominal - 0.05
        assert result.guardband_v > 0.05
        # Sweep starts at nominal and every recorded setting above
        # V_MIN passed.
        assert result.sweep[0][0] == athlon_machine.arch.vdd_nominal
        for supply, passed in result.sweep:
            if supply > result.vmin_v:
                assert passed

    def test_noisy_beats_quiet(self, athlon_machine):
        quiet = athlon_machine.compile(
            ".loop\nnop\nnop\nadd rax, rbx\n.endloop\n", name="quiet")
        noisy = athlon_machine.compile(
            ".loop\n" + "vfmadd231ps xmm0, xmm1, xmm2\n" * 8
            + "idiv2 rsi, rdi\n" * 2 + ".endloop\n", name="noisy")
        v_quiet = characterize_vmin(athlon_machine, quiet, cores=4)
        v_noisy = characterize_vmin(athlon_machine, noisy, cores=4)
        assert v_noisy.vmin_v > v_quiet.vmin_v

    def test_vmin_table_sorted(self, athlon_machine):
        program = athlon_machine.compile(".loop\nnop\n.endloop\n")
        r1 = characterize_vmin(athlon_machine, program, cores=1,
                               name="one")
        text = vmin_table([r1])
        assert "one" in text and "V_MIN" in text

    def test_bad_step_rejected(self, athlon_machine):
        program = athlon_machine.compile(".loop\nnop\n.endloop\n")
        from repro.core.errors import SimulationError
        with pytest.raises(SimulationError):
            characterize_vmin(athlon_machine, program, step_v=0.0)


class TestRelatedWork:
    def test_five_frameworks(self):
        assert len(RELATED_WORK) == 5
        assert {e.framework for e in RELATED_WORK} == {
            "AUDIT", "MAMPO", "Joshi et al.", "Powermark", "GeST"}

    def test_gest_row_claims(self):
        gest = next(e for e in RELATED_WORK if e.framework == "GeST")
        assert gest.optimization_type == "Instruction-Level"
        assert gest.evaluated_on == "Real-Hardware"
        assert set(gest.metrics_evaluated) == {"dI/dt", "power"}

    def test_gest_uniquely_combines_properties(self):
        """The paper's positioning: no other framework is
        instruction-level on real hardware with both metrics."""
        others = [e for e in RELATED_WORK if e.framework != "GeST"]
        assert not any(
            e.optimization_type == "Instruction-Level"
            and e.evaluated_on == "Real-Hardware"
            and len(e.metrics_evaluated) > 1
            for e in others)

    def test_table_renders_all_rows(self):
        text = related_work_table()
        for entry in RELATED_WORK:
            assert entry.framework in text


class TestLineage:
    @pytest.fixture
    def recorded_dir(self, tiny_config, tmp_path):
        from repro.core.engine import GeneticEngine
        from repro.core.output import OutputRecorder
        from repro.fitness import DefaultFitness

        tiny_config.ga.generations = 6
        recorder = OutputRecorder(tmp_path / "run")
        GeneticEngine(tiny_config, ScriptedMeasurement(), DefaultFitness(),
                      recorder=recorder).run()
        return recorder.results_dir

    def test_lineage_of_final_winner_reaches_seed_population(
            self, recorded_dir):
        from repro.analysis import trace_lineage
        from repro.analysis.postprocess import load_run
        populations = load_run(recorded_dir)
        lineage = trace_lineage(populations,
                                populations[-1].fittest())
        assert lineage.depth >= 2
        assert lineage.steps[0].generation == 0
        # Generations along the chain never decrease.
        generations = [s.generation for s in lineage.steps]
        assert generations == sorted(generations)

    def test_lineage_of_best_never_empty(self, recorded_dir):
        from repro.analysis import lineage_of_best
        lineage = lineage_of_best(recorded_dir)
        assert lineage.depth >= 1
        assert lineage.steps[-1].uid == lineage.target_uid

    def test_primary_line_fitness_trends_up(self, recorded_dir):
        from repro.analysis import trace_lineage
        from repro.analysis.postprocess import load_run
        populations = load_run(recorded_dir)
        lineage = trace_lineage(populations, populations[-1].fittest())
        series = lineage.fitness_series()
        assert series[-1] >= series[0]

    def test_final_step_shares_all_genes_with_itself(self, recorded_dir):
        from repro.analysis import trace_lineage
        from repro.analysis.postprocess import load_run
        populations = load_run(recorded_dir)
        lineage = trace_lineage(populations, populations[-1].fittest())
        assert lineage.steps[-1].genes_in_common == 8   # individual size

    def test_render_mentions_generations(self, recorded_dir):
        from repro.analysis import lineage_of_best
        text = lineage_of_best(recorded_dir).render()
        assert "lineage of uid" in text and "gen " in text

    def test_unknown_individual_rejected(self, recorded_dir):
        from repro.analysis import trace_lineage
        from repro.analysis.postprocess import load_run
        from repro.core.individual import Individual
        populations = load_run(recorded_dir)
        ghost = Individual([], uid=999_999)
        with pytest.raises(ConfigError):
            trace_lineage(populations, ghost)


class TestDiversity:
    @pytest.fixture
    def recorded_dir(self, tiny_config, tmp_path):
        from repro.core.engine import GeneticEngine
        from repro.core.output import OutputRecorder
        from repro.fitness import DefaultFitness

        tiny_config.ga.generations = 10
        tiny_config.ga.population_size = 10
        recorder = OutputRecorder(tmp_path / "run")
        GeneticEngine(tiny_config, ScriptedMeasurement(), DefaultFitness(),
                      recorder=recorder).run()
        return recorder.results_dir

    def test_metrics_bounded(self, recorded_dir):
        from repro.analysis import diversity_series
        series = diversity_series(recorded_dir)
        assert len(series) == 10
        for stats in series:
            assert 0 < stats.unique_fraction <= 1.0
            assert 0.0 <= stats.mean_slot_entropy_bits <= \
                math.log2(3) + 1e-9   # 3 opcodes in the tiny library
            assert 0.0 < stats.dominant_opcode_share <= 1.0

    def test_selection_reduces_diversity(self, recorded_dir):
        """Converging on the LDR-only optimum must collapse entropy."""
        from repro.analysis import diversity_series
        series = diversity_series(recorded_dir)
        assert series[-1].mean_slot_entropy_bits < \
            series[0].mean_slot_entropy_bits
        assert series[-1].dominant_opcode == "LDR"
        assert series[-1].dominant_opcode_share > \
            series[0].dominant_opcode_share

    def test_empty_population_rejected(self):
        from repro.analysis import population_diversity
        from repro.core.population import Population
        with pytest.raises(ConfigError):
            population_diversity(Population([]))
