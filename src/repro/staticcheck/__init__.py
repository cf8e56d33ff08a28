"""Static analysis: diagnostics before (and instead of) measurement.

Five passes share one :class:`~repro.staticcheck.diagnostics.Diagnostic`
model:

* :mod:`~repro.staticcheck.dataflow` — def-use analysis over the
  assembled :class:`~repro.isa.model.Program` IR, producing a
  :class:`~repro.staticcheck.dataflow.StaticProfile` of derived
  features (dependency-chain depth, instruction-mix vector, static
  memory-footprint bounds) plus ``SC1xx`` diagnostics;
* :mod:`~repro.staticcheck.configlint` — eager validation of main
  configurations and instruction libraries (``SC2xx``), so a malformed
  operand range fails at load time instead of wasting a search;
* :mod:`~repro.staticcheck.costmodel` — an llvm-mca-style static cost
  model pricing the loop body against a microarchitecture's latency,
  port and energy tables (``SC3xx``), yielding sound IPC bounds and
  the static fitness proxy the ``static_rank`` search strategy uses;
* :mod:`~repro.staticcheck.screen` — the engine's pre-measurement
  gate: a program with an empty measured loop never enters the
  pipeline model;
* :mod:`~repro.staticcheck.selflint` — an AST determinism lint over
  the framework's own sources (``SC4xx``), guarding the
  checkpoint/resume bit-identical-replay promise.

CLI entry points: ``gest lint <config>``, ``gest check <source.s>``,
``gest selfcheck`` — each with ``--json`` for CI.
"""

from .configlint import (detect_syntax, lint_config, lint_config_file,
                         lint_library, lint_search, lint_template)
from .costmodel import (CostModelReport, InstructionCost, INTENT_PORTS,
                        StaticCostReport, analyze_cost, render_cost_table,
                        spearman, static_score)
from .dataflow import DataflowReport, StaticProfile, analyze_program
from .diagnostics import (CODES, Diagnostic, Location, Severity,
                          diagnostics_to_json, format_diagnostics,
                          has_errors, make_diagnostic, sort_diagnostics,
                          summarise, worst_severity)
from .screen import ScreenReport, StaticScreen
from .selflint import (lint_file, lint_source, lint_tree,
                       repro_package_root)

__all__ = [
    "detect_syntax", "lint_config", "lint_config_file", "lint_library",
    "lint_search", "lint_template",
    "CostModelReport", "InstructionCost", "INTENT_PORTS",
    "StaticCostReport", "analyze_cost", "render_cost_table", "spearman",
    "static_score",
    "DataflowReport", "StaticProfile", "analyze_program",
    "CODES", "Diagnostic", "Location", "Severity",
    "diagnostics_to_json", "format_diagnostics", "has_errors",
    "make_diagnostic", "sort_diagnostics", "summarise", "worst_severity",
    "ScreenReport", "StaticScreen",
    "lint_file", "lint_source", "lint_tree", "repro_package_root",
]
