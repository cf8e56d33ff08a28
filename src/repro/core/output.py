"""Run outputs (paper Section III.D).

The framework's output is the source code of every individual, one
file each, named ``<generation>_<id>_<m1>_<m2>....txt`` where the
``m``s are the individual's measurements formatted to two decimals —
the paper's example is ``1_10_1.30_1.33.txt`` for individual 10 of
population 1 with average/peak power 1.30/1.33 W.  Because the first
measurement is by convention the fitness, sorting file names retrieves
the fittest individual with basic UNIX commands.

Each generation is additionally pickled as a population binary
(:mod:`repro.core.population`), and the run directory keeps
record-keeping copies of the configuration and template.

:class:`FileRecorder` is this layout expressed as one
:class:`~repro.core.events.RunRecorder` subscriber: the engine emits
typed events, and this recorder turns them into exactly the directory
tree the pre-event-stream engine wrote.  The low-level ``record_*``
methods remain public — post-processing tools and tests drive them
directly — and the historical name :class:`OutputRecorder` is an alias
for :class:`FileRecorder`.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterator, List, Optional, Union

from .config import (MEASUREMENT_CONFIG_FILENAME, RunConfig,
                     config_to_xml, measurement_config_to_xml)
from .events import (GenerationCompleted, IndividualEvaluated, RunRecorder,
                     RunStarted)
from .individual import Individual
from .population import Population

__all__ = ["FileRecorder", "OutputRecorder", "individual_filename",
           "read_stats"]


def individual_filename(individual: Individual) -> str:
    """The paper's naming convention for an individual's source file."""
    parts = [str(individual.generation), str(individual.uid)]
    parts.extend(f"{m:.2f}" for m in individual.measurements)
    return "_".join(parts) + ".txt"


def read_stats(path: Union[str, Path]) -> Iterator[dict]:
    """Yield the parseable records of a ``stats.jsonl`` file, in order.

    Tolerant by design: a half-written trailing line (killed run), a
    corrupt line, or records carrying unknown keys from a newer schema
    are all survivable — unparseable lines are skipped with a warning
    instead of aborting post-processing, and records pass through with
    whatever keys they have.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(
                    f"{path}:{number}: skipping unparseable stats record "
                    "(half-written line from an interrupted run?)",
                    RuntimeWarning, stacklevel=2)
                continue
            if isinstance(record, dict):
                yield record


class FileRecorder(RunRecorder):
    """Persists a GA run to a results directory.

    Layout::

        <results_dir>/
          config.xml          copy of the run configuration
          template.s          copy of the template source
          stats.jsonl         one record per generation
          individuals/        one source file per evaluated individual
          populations/        one binary per generation

    As an event subscriber it maps ``run_started`` → provenance,
    ``individual_evaluated`` → source file, ``generation_completed`` →
    population binary + stats line, which is byte-for-byte the order
    and content the pre-event engine produced.
    """

    def __init__(self, results_dir: Union[str, Path]) -> None:
        self.results_dir = Path(results_dir)
        self.individuals_dir = self.results_dir / "individuals"
        self.populations_dir = self.results_dir / "populations"
        for directory in (self.results_dir, self.individuals_dir,
                          self.populations_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- event hooks --------------------------------------------------------

    def on_run_started(self, event: RunStarted) -> None:
        self.record_provenance(event.config)

    def on_individual_evaluated(self, event: IndividualEvaluated) -> None:
        self.record_individual(event.individual, event.source)

    def on_generation_completed(self, event: GenerationCompleted) -> None:
        self.record_population(event.population)
        self.record_stats(event.stats)

    # -- low-level writers --------------------------------------------------

    def record_provenance(self, config: RunConfig) -> None:
        """Save the configuration, template and measurement parameters
        used for the run, so the recorded ``config.xml`` re-runs it."""
        (self.results_dir / "template.s").write_text(config.template_text)
        if config.measurement_params:
            (self.results_dir / MEASUREMENT_CONFIG_FILENAME).write_text(
                measurement_config_to_xml(config.measurement_params))
        (self.results_dir / "config.xml").write_text(
            config_to_xml(config, template_filename="template.s",
                          results_dir=str(self.results_dir)))

    def record_individual(self, individual: Individual,
                          source_text: str) -> Path:
        """Write one individual's generated source file."""
        path = self.individuals_dir / individual_filename(individual)
        path.write_text(source_text)
        return path

    def record_stats(self, stats: dict) -> Path:
        """Append one generation's statistics to ``stats.jsonl``.

        The whole record — one JSON object plus its newline — goes down
        in a single ``os.write`` on an ``O_APPEND`` descriptor, so a
        run killed mid-append never leaves a *half*-written line for
        the next reader to choke on: either the line is complete or it
        is absent (POSIX appends of one ``write`` call do not
        interleave).
        """
        path = self.results_dir / "stats.jsonl"
        line = (json.dumps(stats, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        return path

    def read_stats(self) -> List[dict]:
        """The recorded stats records (see module-level ``read_stats``)."""
        path = self.results_dir / "stats.jsonl"
        if not path.exists():
            return []
        return list(read_stats(path))

    def record_population(self, population: Population) -> Path:
        """Pickle one generation."""
        return population.save(
            self.populations_dir / f"population_{population.number}.bin")

    def population_files(self) -> List[Path]:
        """All saved generation binaries, in generation order."""
        files = list(self.populations_dir.glob("population_*.bin"))
        return sorted(files, key=lambda p: int(p.stem.split("_")[1]))

    def fittest_individual_file(self) -> Optional[Path]:
        """Quickly locate the fittest individual's source file using the
        naming convention (highest first measurement wins), as the
        paper suggests doing with UNIX tools."""
        best_path: Optional[Path] = None
        best_score = float("-inf")
        for path in self.individuals_dir.glob("*.txt"):
            fields = path.stem.split("_")
            if len(fields) < 3:
                continue
            try:
                score = float(fields[2])
            except ValueError:
                continue
            if score > best_score:
                best_score = score
                best_path = path
        return best_path


#: Historical name — the recorder predates the event stream.
OutputRecorder = FileRecorder
