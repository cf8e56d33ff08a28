"""Core GA framework: the paper's primary contribution.

Public surface re-exported here:

* configuration — :class:`GAParameters`, :class:`RunConfig`, XML parsing
* genome model — operands, instruction specs, individuals, populations
* GA machinery — :class:`GeneticEngine` and its run history (the
  operators live in :mod:`repro.search.operators`)
* plumbing — templates, output recording, dynamic class loading
"""

from .config import (EvaluationParameters, GAParameters, RunConfig,
                     SearchParameters, config_to_xml, parse_config_file,
                     parse_config_text, parse_measurement_config)
from .engine import (GenerationStats, GeneticEngine, RunHistory,
                     derive_run_id)
from .errors import (AssemblyError, ConfigError, GestError, LoaderError,
                     MeasurementError, SimulationError, TargetError,
                     TemplateError)
from .events import (STATS_SCHEMA_VERSION, CheckpointWritten,
                     GenerationCompleted, IndividualEvaluated, RunEvent,
                     RunFinished, RunRecorder, RunStarted)
from .individual import Individual, random_individual, selection_key
from .instruction import ConcreteInstruction, InstructionLibrary, InstructionSpec
from .loader import instantiate, load_class
from .operand import ImmediateOperand, LabelOperand, Operand, RegisterOperand
from .output import (FileRecorder, OutputRecorder, individual_filename,
                     read_stats)
from .population import Population, load_population
from .rng import make_rng, spawn
from .template import LOOP_MARKER, Template

__all__ = [
    "EvaluationParameters", "GAParameters", "RunConfig", "SearchParameters",
    "config_to_xml",
    "parse_config_file", "parse_config_text", "parse_measurement_config",
    "GenerationStats", "GeneticEngine", "RunHistory", "derive_run_id",
    "AssemblyError", "ConfigError", "GestError", "LoaderError",
    "MeasurementError", "SimulationError", "TargetError", "TemplateError",
    "STATS_SCHEMA_VERSION", "CheckpointWritten", "GenerationCompleted",
    "IndividualEvaluated", "RunEvent", "RunFinished",
    "RunRecorder", "RunStarted",
    "Individual", "random_individual", "selection_key",
    "ConcreteInstruction", "InstructionLibrary", "InstructionSpec",
    "instantiate", "load_class",
    "ImmediateOperand", "LabelOperand", "Operand", "RegisterOperand",
    "FileRecorder", "OutputRecorder", "individual_filename", "read_stats",
    "Population", "load_population",
    "make_rng", "spawn",
    "LOOP_MARKER", "Template",
]
