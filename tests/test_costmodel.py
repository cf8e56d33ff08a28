"""Tests for the static cost model and the surrogate search built on it.

Four layers, bottom-up: the :class:`DependenceSummary` condensation a
program builds on first use; the ``analyze_cost`` pass with its
SC3xx golden diagnostics (per microarchitecture preset) and the
soundness ordering ``simulated steady IPC ≤ exact ipc_upper ≤
static_score``; the ``gest analyze`` CLI and the screen's static-rank
mode; and the ``static_rank`` wrapper strategy, up to the acceptance
experiment — equal-or-better best fitness than the plain GA on the
comparison seed with ≥30% fewer simulated evaluations.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import GAParameters, GeneticEngine, OutputRecorder, \
    RunConfig, make_rng
from repro.core.config import SearchParameters
from repro.core.errors import ConfigError
from repro.core.individual import random_individual
from repro.core.template import Template
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.cpu.microarch import microarch_for, preset_names
from repro.cpu.pipeline import PipelineSimulator
from repro.fitness import DefaultFitness
from repro.isa import ArmAssembler, X86Assembler, arm_library, \
    arm_template, clike_library, clike_template, compile_clike
from repro.measurement import MEASUREMENTS, PowerMeasurement
from repro.search import STRATEGIES, StaticRankStrategy, make_strategy
from repro.staticcheck import (StaticScreen, analyze_cost, analyze_program,
                               render_cost_table, sort_diagnostics,
                               spearman, static_score)
from repro.staticcheck.costmodel import INTENT_PORTS

ARM_PRESETS = [name for name in preset_names()
               if microarch_for(name).isa == "arm"]
X86_PRESETS = [name for name in preset_names()
               if microarch_for(name).isa == "x86"]


def arm_program(body, init="mov x10, #0", name="cost.s"):
    return ArmAssembler().assemble(
        f"{init}\n.loop\n{body}\n.endloop\n", name=name)


def x86_program(body, init="mov rbp, 0", name="cost.s"):
    return X86Assembler().assemble(
        f"{init}\n.loop\n{body}\n.endloop\n", name=name)


def program_for(preset, serial_body=False):
    """A loop body in the preset's syntax: a serialising multiply chain
    or a wide independent mix."""
    arch = microarch_for(preset)
    if arch.isa == "arm":
        body = "mul x1, x1, x2\nmul x1, x1, x3" if serial_body \
            else "add x1, x2, x3\nadd x4, x5, x6\nfadd v0, v1, v2"
        return arm_program(body)
    # x86 two-operand ops read their destination, so a "parallel" body
    # must use moves (the write kills the cross-iteration read).
    body = "mulsd xmm1, xmm2\nmulsd xmm1, xmm3" if serial_body \
        else "mov rax, rbx\nmov rcx, rdx\nmov rsi, rdi"
    return x86_program(body)


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# DependenceSummary (built on first use, cached on the program)
# ---------------------------------------------------------------------------

class TestDependenceSummary:
    def test_summary_is_built_on_first_use_then_cached(self):
        program = arm_program("add x1, x1, x2")
        assert program._dependence_summary is None
        summary = program.dependence_summary()
        assert program._dependence_summary is summary
        assert program.dependence_summary() is summary

    def test_vocabulary_counts_cover_the_loop(self):
        program = arm_program("add x1, x2, x3\nadd x4, x5, x6\n"
                              "mul x7, x8, x9")
        summary = program.dependence_summary()
        assert summary.loop_length == 3
        assert sum(summary.group_counts) == 3
        groups = dict(zip([key[0] for key in summary.group_keys],
                          summary.group_counts))
        assert groups["alu"] == 2
        assert groups["mul"] == 1

    def test_simple_recurrence_is_a_unit_cycle(self):
        # x1 feeds itself across the iteration boundary: one cycle, one
        # iteration long, one alu instruction on it.
        program = arm_program("add x1, x1, x2")
        summary = program.dependence_summary()
        assert summary.cycle_lengths == (1,)
        assert sum(summary.cycle_counts[0]) == 1

    def test_two_iteration_swap_cycle(self):
        # x1 and x2 exchange roles each iteration: one cycle spanning
        # two boundary registers.
        program = arm_program("add x5, x1, x10\nadd x1, x2, x10\n"
                              "add x2, x5, x10")
        summary = program.dependence_summary()
        assert 2 in summary.cycle_lengths

    def test_dead_write_kills_the_chain(self):
        # The immediate mov restarts x1 every iteration, so the read
        # below it never crosses the boundary: no cycle through x1.
        killed = arm_program("mov x1, #5\nadd x1, x1, x2")
        live = arm_program("add x1, x1, x2")
        assert killed.dependence_summary().cycle_lengths == ()
        assert live.dependence_summary().cycle_lengths == (1,)

    def test_independent_body_has_no_cycles(self):
        program = arm_program("add x1, x2, x3\nadd x4, x5, x6")
        assert program.dependence_summary().cycle_lengths == ()


# ---------------------------------------------------------------------------
# analyze_cost: bounds and the SC3xx golden diagnostics
# ---------------------------------------------------------------------------

class TestAnalyzeCost:
    def test_issue_bound_binds_wide_parallel_body(self):
        arch = microarch_for("cortex_a15")
        program = arm_program("add x1, x2, x3\nadd x4, x5, x6\n"
                              "add x7, x8, x9\nadd x11, x12, x13")
        cost = analyze_cost(program, arch).cost
        assert cost.issue_cycles == pytest.approx(4 / arch.issue_width)
        assert cost.ipc_upper <= arch.issue_width + 1e-9
        assert 0.0 < cost.ipc_lower <= cost.ipc_upper

    def test_chain_bound_binds_serial_body(self):
        arch = microarch_for("cortex_a15")
        program = arm_program("mul x1, x1, x2\nmul x1, x1, x3")
        cost = analyze_cost(program, arch).cost
        latency = arch.latency_of("mul", None)
        assert cost.chain_cycles == pytest.approx(2 * latency)
        assert cost.bound_cycles == pytest.approx(cost.chain_cycles)

    def test_power_band_ordered(self):
        arch = microarch_for("cortex_a15")
        program = arm_program("fmul v0, v1, v2\nadd x1, x2, x3")
        cost = analyze_cost(program, arch).cost
        assert cost.energy_pj_lower <= cost.energy_pj_upper
        assert cost.power_proxy_w_lower <= cost.power_proxy_w_upper

    def test_report_round_trips_to_dict(self):
        arch = microarch_for("xgene2")
        program = arm_program("add x1, x1, x2")
        cost = analyze_cost(program, arch).cost
        payload = json.dumps(cost.to_dict())
        assert json.loads(payload)["arch"] == "xgene2"

    def test_render_cost_table_mentions_bounds(self):
        arch = microarch_for("cortex_a15")
        report = analyze_cost(arm_program("mul x1, x1, x2"), arch)
        table = render_cost_table(report)
        assert "cycles/iteration bounds" in table
        assert "static IPC" in table

    @pytest.mark.parametrize("preset", preset_names())
    def test_sc301_serial_chain_flagged(self, preset):
        report = analyze_cost(program_for(preset, serial_body=True),
                              microarch_for(preset))
        assert "SC301" in codes_of(report.diagnostics)

    @pytest.mark.parametrize("preset", preset_names())
    def test_sc301_absent_for_parallel_body(self, preset):
        report = analyze_cost(program_for(preset), microarch_for(preset))
        assert "SC301" not in codes_of(report.diagnostics)

    @pytest.mark.parametrize("preset", preset_names())
    def test_sc302_idle_fp_contradicts_power_intent(self, preset):
        arch = microarch_for(preset)
        program = arm_program("add x1, x2, x3") if arch.isa == "arm" \
            else x86_program("add rax, rbx")
        report = analyze_cost(program, arch, intent="power")
        assert "SC302" in codes_of(report.diagnostics)

    @pytest.mark.parametrize("preset", preset_names())
    def test_sc302_absent_when_fp_is_stressed(self, preset):
        arch = microarch_for(preset)
        program = arm_program("fmul v0, v1, v2") if arch.isa == "arm" \
            else x86_program("mulsd xmm0, xmm1")
        report = analyze_cost(program, arch, intent="power")
        assert "SC302" not in codes_of(report.diagnostics)

    @pytest.mark.parametrize("preset", preset_names())
    def test_sc303_unreachable_ipc_target(self, preset):
        arch = microarch_for(preset)
        program = program_for(preset, serial_body=True)
        report = analyze_cost(program, arch, intent="ipc",
                              fitness_target=float(arch.issue_width))
        assert "SC303" in codes_of(report.diagnostics)
        reachable = analyze_cost(program, arch, intent="ipc",
                                 fitness_target=0.01)
        assert "SC303" not in codes_of(reachable.diagnostics)

    def test_sc30x_need_intent(self):
        arch = microarch_for("cortex_a15")
        report = analyze_cost(arm_program("add x1, x2, x3"), arch)
        codes = codes_of(report.diagnostics)
        assert "SC302" not in codes and "SC303" not in codes

    def test_intent_ports_cover_all_metrics(self):
        for metric in ("power", "energy", "temperature", "didt", "ipc"):
            assert INTENT_PORTS[metric]


# ---------------------------------------------------------------------------
# soundness ordering: simulator ≤ exact bound ≤ ranking score
# ---------------------------------------------------------------------------

def _random_arm_program(seed, size=16):
    library = arm_library()
    rng = make_rng(seed)
    individual = random_individual(library, size, rng, uid=seed)
    source = Template(arm_template()).instantiate(individual.render_body())
    return ArmAssembler().assemble(source, name=f"rand{seed}.s")


class TestSoundness:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           preset=st.sampled_from(ARM_PRESETS))
    def test_simulator_never_beats_static_ipc_bound(self, seed, preset):
        arch = microarch_for(preset)
        program = _random_arm_program(seed)
        ipc_upper = analyze_cost(program, arch).cost.ipc_upper
        score = static_score(program, arch, "ipc")
        # The ranking score relaxes the exact bound, never tightens it.
        assert score >= ipc_upper - 1e-9
        trace = PipelineSimulator(arch).execute(program, max_cycles=20_000)
        if not trace.period_cycles:
            return  # no steady kernel detected within the horizon
        offsets = trace.issue_offsets
        pre, per = trace.prefix_cycles, trace.period_cycles
        # The kernel-exact steady rate (instructions issued across one
        # detected period, over its length) is what the asymptotic
        # bound covers — finite-horizon trace.ipc can exceed it during
        # warm-up.  issue_offsets is CSR: offsets[c] counts issues
        # before cycle c.
        steady_ipc = float(offsets[pre + per] - offsets[pre]) / per
        assert steady_ipc <= ipc_upper + 1e-9
        assert steady_ipc <= score + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_score_relaxes_exact_bound_for_power_too(self, seed):
        arch = microarch_for("cortex_a15")
        program = _random_arm_program(seed)
        exact = analyze_cost(program, arch).cost.power_proxy_w_upper
        assert static_score(program, arch, "power") >= exact - 1e-9


# ---------------------------------------------------------------------------
# deterministic diagnostic ordering
# ---------------------------------------------------------------------------

class TestDeterministicOutput:
    def test_sort_is_stable_by_file_code_location(self):
        from repro.staticcheck import make_diagnostic
        diagnostics = [
            make_diagnostic("SC302", "b", file="z.s"),
            make_diagnostic("SC301", "a", file="z.s", line=9),
            make_diagnostic("SC301", "a", file="a.s", line=2),
            make_diagnostic("SC301", "a", file="z.s", line=1),
        ]
        ordered = sort_diagnostics(diagnostics)
        keys = [(d.location.file, d.code, d.location.line)
                for d in ordered]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2] or 0))

    def test_analyze_json_is_deterministic(self, tmp_path, capsys):
        source = tmp_path / "virus.s"
        source.write_text("mov x10, #0\n.loop\nmul x1, x1, x2\n"
                          "mul x1, x1, x3\n.endloop\n")
        outputs = []
        for _ in range(2):
            main(["analyze", str(source), "--platform", "cortex_a15",
                  "--intent", "ipc", "--fitness-target", "3.0", "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert [d["code"] for d in payload["diagnostics"]] == \
            sorted(d["code"] for d in payload["diagnostics"])


# ---------------------------------------------------------------------------
# CLI: gest analyze
# ---------------------------------------------------------------------------

class TestCliAnalyze:
    def test_human_readable_pressure_table(self, tmp_path, capsys):
        source = tmp_path / "virus.s"
        source.write_text("mov x10, #0\n.loop\nfmul v0, v1, v2\n"
                          "add x1, x2, x3\n.endloop\n")
        code = main(["analyze", str(source), "--platform", "cortex_a15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cycles/iteration bounds" in out
        assert "fmul" in out

    def test_json_carries_cost_and_diagnostics(self, tmp_path, capsys):
        source = tmp_path / "virus.s"
        source.write_text("mov x10, #0\n.loop\nmul x1, x1, x2\n"
                          "mul x1, x1, x3\n.endloop\n")
        code = main(["analyze", str(source), "--platform", "cortex_a15",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0  # SC301 is a warning, not an error
        assert payload["cost"]["arch"] == "cortex_a15"
        assert payload["cost"]["bound_cycles"] > 0
        assert "SC301" in [d["code"] for d in payload["diagnostics"]]

    def test_unassemblable_source(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text(".loop\nbogus x1\n.endloop\n")
        code = main(["analyze", str(source), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["assembly_error"]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "none.s")])
        assert code == 1


# ---------------------------------------------------------------------------
# screen: configured cache geometry
# ---------------------------------------------------------------------------

class TestScreenStaticRankMode:
    def test_for_machine_ignores_configured_geometry(self):
        # A footprint past this 1 KiB L1 (and past the stock 32 KiB one,
        # so the analyzer draws SC104, a note that never decides a
        # verdict) passes the screen: the screen reads no geometry.
        from repro.cpu.cache import CacheConfig, MemoryHierarchy
        hierarchy = MemoryHierarchy(
            l1_config=CacheConfig("L1", size_bytes=1024, line_bytes=64,
                                  ways=2, hit_latency=2,
                                  hit_energy_pj=0.0),
            l2_config=CacheConfig("L2", size_bytes=4096, line_bytes=64,
                                  ways=4, hit_latency=8,
                                  hit_energy_pj=120.0))
        machine = SimulatedMachine("cortex_a15", hierarchy=hierarchy)
        body = "\n".join(f"ldr x1, [x10, #{offset * 64}]"
                         for offset in range(513))
        program = arm_program(body)
        assert "SC104" in codes_of(analyze_program(program).diagnostics)
        screen = StaticScreen.for_machine(machine)
        assert type(screen) is StaticScreen
        report = screen.screen(program)
        assert report.passed and report.diagnostics == []

    def test_for_machine_defaults_without_hierarchy(self):
        screen = StaticScreen.for_machine(SimulatedMachine("cortex_a15"))
        assert type(screen) is StaticScreen
        assert not screen.screen(arm_program("")).passed


# ---------------------------------------------------------------------------
# the static_rank strategy
# ---------------------------------------------------------------------------

def _strategy_config(tiny_library, tiny_template, generations=4, seed=3):
    ga = GAParameters(population_size=8, individual_size=8,
                      mutation_rate=0.1, generations=generations,
                      tournament_size=3, seed=seed)
    config = RunConfig(ga=ga, library=tiny_library,
                       template_text=tiny_template.text)
    config.search = SearchParameters(strategy="static_rank")
    return config


def _measurement(seed=17, platform="cortex_a15", cls=PowerMeasurement):
    machine = SimulatedMachine(platform, seed=seed, sim_cycles=600)
    target = SimulatedTarget(machine)
    target.connect()
    return cls(target, {"samples": "2"})


class TestStaticRankStrategy:
    def test_registered(self):
        assert "static_rank" in STRATEGIES

    def test_rejects_bad_top_fraction(self, tiny_library, tiny_template):
        # TOP_FRACTION is a class constant: a configuration still
        # carrying it, whatever its value, is refused.
        for value in ("0", "1.5"):
            config = _strategy_config(tiny_library, tiny_template)
            config.search.params = {"top_fraction": value}
            with pytest.raises(ConfigError, match="top_fraction"):
                config.validate()

    def test_prices_on_the_measured_machine(self, tiny_library,
                                            tiny_template, monkeypatch):
        import repro.search.static_rank as static_rank_module
        archs = []
        real = static_rank_module.static_score

        def recording(program, arch, metric):
            archs.append(arch)
            return real(program, arch, metric)

        monkeypatch.setattr(static_rank_module, "static_score", recording)
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=2)
        measurement = _measurement(platform="xgene2")
        machine = measurement.target.machine
        engine = GeneticEngine(config, measurement, DefaultFitness())
        assert engine.strategy.arch is machine.arch
        history = engine.run()
        assert archs and all(arch is machine.arch for arch in archs)
        assert [g.surrogate["platform"] for g in history.generations] == \
            ["xgene2", "xgene2"]

        # A target with a translator: the ranker prices the translated
        # program the measurement compiles, so every score is finite
        # and the Spearman record is set once pruning starts.
        config = _strategy_config(clike_library(), Template(
            clike_template()), generations=2)
        machine = SimulatedMachine("xgene2", seed=17, sim_cycles=600)
        target = SimulatedTarget(machine, translator=compile_clike)
        target.connect()
        engine = GeneticEngine(config,
                               PowerMeasurement(target, {"samples": "2"}),
                               DefaultFitness())
        history = engine.run()
        scores = list(engine.strategy._predictions.values())
        assert scores and all(math.isfinite(score) for score in scores)
        pruned = history.generations[1].surrogate
        assert pruned["pruned"] > 0 and pruned["spearman"] is not None

    def test_prunes_and_records_surrogate(self, tiny_library,
                                          tiny_template):
        config = _strategy_config(tiny_library, tiny_template)
        engine = GeneticEngine(config, _measurement(), DefaultFitness())
        history = engine.run()
        gen0 = history.generations[0].surrogate
        assert gen0["simulated"] == 8 and gen0["pruned"] == 0
        later = history.generations[1:]
        assert all(g.surrogate["pruned"] > 0 for g in later)
        for g in later:
            fresh = g.surrogate["simulated"] + g.surrogate["pruned"]
            assert g.surrogate["simulated"] <= max(1, -(-fresh // 2))
        # measured counters shrink accordingly
        assert history.generations[1].measured == \
            history.generations[1].surrogate["simulated"]

    def test_pruned_never_win(self, tiny_library, tiny_template):
        class TopThird(StaticRankStrategy):
            TOP_FRACTION = 0.34

        config = _strategy_config(tiny_library, tiny_template)
        engine = GeneticEngine(config, _measurement(), DefaultFitness(),
                               strategy=TopThird())
        history = engine.run()
        # The run's best individual always comes from a real simulation.
        assert history.best_individual.measurements
        for population_stats in history.generations:
            assert population_stats.best_fitness >= 0.0
        final = history.final_population
        pruned = [i for i in final if i.pruned]
        assert pruned
        assert all(i.fitness is None and not i.measurements
                   for i in pruned)
        assert not final.fittest().pruned
        assert final.ranked()[-len(pruned):] == \
            sorted(pruned, key=lambda i: i.pruned_rank)

    def test_memo_replays_previously_simulated_genomes(
            self, tiny_library, tiny_template):
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=5)
        engine = GeneticEngine(config, _measurement(), DefaultFitness())
        history = engine.run()
        # Elitist replacement re-proposes the incumbent every
        # generation; the memo must satisfy it without re-measuring.
        assert any(g.surrogate["replayed"] > 0
                   for g in history.generations[1:])

    def test_stats_jsonl_carries_spearman(self, tiny_library,
                                          tiny_template, tmp_path):
        config = _strategy_config(tiny_library, tiny_template)
        engine = GeneticEngine(config, _measurement(), DefaultFitness(),
                               recorder=OutputRecorder(tmp_path / "run"))
        engine.run()
        rows = [json.loads(line) for line in
                (tmp_path / "run" / "stats.jsonl").read_text()
                .strip().splitlines()]
        assert all("surrogate" in row for row in rows)
        assert all("spearman" in row["surrogate"] for row in rows)
        assert rows[0]["surrogate"]["spearman"] is not None

    # Every stock procedure's metric is one static_score prices, and
    # the ranker ranks by it.
    @pytest.mark.parametrize("metric", sorted(MEASUREMENTS))
    def test_stats_jsonl_records_the_measurement_metric(
            self, tiny_library, tiny_template, tmp_path, monkeypatch,
            metric):
        import repro.search.static_rank as static_rank_module
        priced = set()
        real = static_rank_module.static_score

        def recording(program, arch, metric):
            priced.add(metric)
            return real(program, arch, metric)

        monkeypatch.setattr(static_rank_module, "static_score", recording)
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=2)
        engine = GeneticEngine(
            config, _measurement(cls=MEASUREMENTS[metric]),
            DefaultFitness(), recorder=OutputRecorder(tmp_path / "run"))
        engine.run()
        rows = [json.loads(line) for line in
                (tmp_path / "run" / "stats.jsonl").read_text()
                .strip().splitlines()]
        assert [row["surrogate"]["metric"] for row in rows] == \
            [metric, metric]
        assert priced == {metric}

    def test_state_round_trip(self, tiny_config):
        machine = SimulatedMachine("cortex_a15")
        strategy = make_strategy("static_rank")
        strategy.bind(tiny_config, make_rng(0),
                      iter(range(10_000)).__next__, machine.arch,
                      machine.compile, "power")
        key = (("ADD", ("x1", "x2", "x3")),)
        strategy._memo[key] = ((1.0,), 1.0, False, False)
        state = strategy.state_dict()
        fresh = make_strategy("static_rank")
        fresh.bind(tiny_config, make_rng(0),
                   iter(range(10_000)).__next__, machine.arch,
                   machine.compile, "power")
        fresh.load_state(state)
        assert fresh._memo == strategy._memo
        assert fresh.state_dict() == state


# ---------------------------------------------------------------------------
# acceptance: the surrogate matches the GA with far fewer simulations
# ---------------------------------------------------------------------------

class TestSearchComparisonAcceptance:
    def test_static_rank_matches_genetic_with_fewer_simulations(
            self, a15_power_comparison):
        result = a15_power_comparison
        plain = result.best_fitness("genetic")
        ranked = result.best_fitness("static_rank")
        assert ranked >= plain - 1e-9
        full = result.simulated_evaluations("genetic")
        pruned = result.simulated_evaluations("static_rank")
        assert pruned <= 0.7 * full
        history = result.histories["static_rank"]
        assert all(g.surrogate is not None for g in history.generations)
        assert all(g.surrogate["metric"] == "power"
                   for g in history.generations)
        rhos = [g.surrogate["spearman"] for g in history.generations]
        assert all(rho is not None for rho in rhos)
        assert "simulated" in result.render()


# ---------------------------------------------------------------------------
# spearman helper
# ---------------------------------------------------------------------------

class TestSpearman:
    def test_perfect_and_inverse(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_average(self):
        assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)
        # Tied ranks take their average position; a tie on one side only
        # still yields a defined, sub-perfect correlation.
        rho = spearman([1, 1, 2, 3], [4, 3, 2, 1])
        assert rho is not None and -1.0 < rho < 0.0

    def test_undefined_cases(self):
        assert spearman([], []) is None
        assert spearman([1.0], [2.0]) is None
        # n == 2 is uninformative: two distinct points always correlate
        # at exactly +/-1, so the figure carries no signal.
        assert spearman([1, 2], [2, 1]) is None
        assert spearman([1, 1, 1], [1, 2, 3]) is None
        assert spearman([1, 2, 3], [7, 7, 7]) is None
        assert spearman([1, 2], [1, 2, 3]) is None
