"""The measurement template class (paper Section III.C).

The paper's ``Measurement.py`` is an abstract class users inherit to
script custom measurement procedures: it offers ssh/scp utilities for
driving the target machine, and subclasses override ``init`` (parameter
parsing) and ``measure`` (the actual procedure).  This module is the
analogue: :class:`Measurement` owns a
:class:`~repro.cpu.target.SimulatedTarget` and provides the
upload→compile→run→cleanup workflow; concrete classes override
:meth:`init` and either :meth:`measure_from_result` (arithmetic on one
run, as every stock procedure does) or :meth:`measure`.  The class also
runs its own population batch, and :meth:`supports_batching` alone
decides when that batch may stand in for the procedure.

The engine loads measurement classes dynamically by dotted name from
the main configuration (:mod:`repro.core.loader`), so adding a new
procedure requires no change to framework code — the plug-and-play
property the paper demonstrates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..core.errors import ConfigError, MeasurementError
from ..core.individual import Individual
from ..cpu.machine import BatchedMachine, RunResult, SimulatedMachine
from ..cpu.target import SimulatedTarget
from ..isa.model import Program

__all__ = ["Measurement"]


def _stable_repr(value) -> str:
    """A repr that is identical across processes.

    The cache fingerprint must survive hash randomisation — a plain
    ``repr`` of a set or frozenset orders elements by their per-process
    string hashes, so a fingerprint written by one run would silently
    never match in the next and every persisted cache load would come
    back empty.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(repr(v) for v in value)) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key!r}: {_stable_repr(item)}"
                               for key, item in value.items()) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={_stable_repr(getattr(value, f.name))}"
            for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, tuple):
        return "(" + ", ".join(_stable_repr(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(_stable_repr(v) for v in value) + "]"
    return repr(value)


#: The steps :meth:`Measurement.measure_batch` skips.
_BATCH_SKIPS = ("measure", "measure_repeated", "execute_on_target",
                "reseed_noise")


def _definer_depth(cls: type, name: str) -> int:
    """How far up ``cls``'s MRO ``name`` is defined (0 = ``cls``)."""
    return next(index for index, klass in enumerate(cls.__mro__)
                if name in vars(klass))


class Measurement:
    """Base class for measurement procedures.

    A subclass defines :meth:`measure_from_result`, :meth:`measure`, or
    both; construction refuses one that defines neither.

    Parameters come as a flat string→string mapping — the parsed
    contents of the separate measurement XML file the paper describes.
    Common parameters understood by the stock helpers:

    ``duration``        seconds the binary runs per measurement (default 5)
    ``samples``         number of instrument samples per run (default 10)
    ``cores``           active cores during GA measurement (default 1 —
                        the paper optimises on a single core)
    ``repeats``         independent run-and-measure repetitions per
                        individual, aggregated per measurement index
                        (default 1).  The paper attributes part of its
                        single-core methodology to measurement
                        variability in OS environments; repeating and
                        aggregating is the standard mitigation.
    ``aggregate``       ``mean`` (default) or ``median`` across repeats
    ``source_name``     remote file name for the uploaded source
    """

    #: What the first measured value measures: ``ipc``, ``power``,
    #: ``temperature``, ``didt`` or another name a subclass declares.
    #: ``static_rank`` ranks offspring by it.
    metric: str = "ipc"

    def __init__(self, target: SimulatedTarget,
                 params: Optional[Dict[str, str]] = None) -> None:
        cls = type(self)
        if cls.measure is Measurement.measure and \
                cls.measure_from_result is Measurement.measure_from_result:
            raise TypeError(
                f"can't instantiate {cls.__name__}: a measurement defines "
                "measure() or measure_from_result()")
        self.target = target
        if not target.connected:
            target.connect()
        self.duration_s = 5.0
        self.sample_count = 10
        self.cores = 1
        self.repeats = 1
        self.aggregate = "mean"
        self.source_name = "individual.s"
        #: The raw parameter mapping, kept for :meth:`fingerprint` so
        #: subclass-specific knobs enter the cache address without every
        #: subclass having to override it.
        self.params: Dict[str, str] = dict(params or {})
        self.init(dict(self.params))

    # -- overridables ------------------------------------------------------

    def init(self, params: Dict[str, str]) -> None:
        """Parse measurement parameters; subclasses may extend."""
        try:
            if "duration" in params:
                self.duration_s = float(params["duration"])
            if "samples" in params:
                self.sample_count = int(params["samples"])
            if "cores" in params:
                self.cores = int(params["cores"])
            if "repeats" in params:
                self.repeats = int(params["repeats"])
        except ValueError as exc:
            raise MeasurementError(
                f"bad measurement parameter value: {exc}") from exc
        if "source_name" in params:
            self.source_name = params["source_name"]
        if "aggregate" in params:
            self.aggregate = params["aggregate"]
        if self.duration_s <= 0:
            raise MeasurementError("duration must be positive")
        if self.sample_count < 1:
            raise MeasurementError("samples must be >= 1")
        if self.repeats < 1:
            raise MeasurementError("repeats must be >= 1")
        if self.aggregate not in ("mean", "median"):
            raise MeasurementError(
                f"unknown aggregate {self.aggregate!r}; "
                "expected 'mean' or 'median'")

    def measure(self, source_text: str,
                individual: Individual) -> List[float]:
        """Run the procedure once and return the measurement list.

        The first value is, by convention, what
        :class:`~repro.fitness.default_fitness.DefaultFitness` uses.
        Compile failures must propagate as
        :class:`~repro.core.errors.AssemblyError` — the engine turns
        them into zero-fitness individuals.

        The base procedure is one target run interpreted by
        :meth:`measure_from_result`.  A procedure that drives the target
        in richer ways (extra runs, supply sweeps, file I/O) overrides
        this instead.

        The engine should call :meth:`measure_repeated`, which wraps
        this with the ``repeats``/``aggregate`` policy; with the
        default ``repeats=1`` the two are identical.
        """
        return self.measure_from_result(self.execute_on_target(source_text),
                                        individual)

    def measure_from_result(self, result: RunResult,
                            individual: Individual) -> List[float]:
        """Derive the measurement list from one executed run.

        Stock procedures define only this: pure arithmetic on one
        :class:`~repro.cpu.machine.RunResult`.  The base :meth:`measure`
        applies it to :meth:`execute_on_target`'s run, and
        :meth:`measure_batch` to each row of a batch.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not interpret single runs")

    def supports_batching(self) -> bool:
        """True when :meth:`measure_batch` may stand in for
        :meth:`measure_repeated`; every executor follows this rule.

        A batch skips :meth:`measure`, :meth:`measure_repeated`,
        :meth:`execute_on_target` and :meth:`reseed_noise`, so the
        most-derived :meth:`measure_from_result` must be at least as
        derived as each of them, and the target's machine must be a
        :class:`~repro.cpu.machine.SimulatedMachine`.
        """
        cls = type(self)
        if cls.measure_from_result is Measurement.measure_from_result:
            return False
        depth = _definer_depth(cls, "measure_from_result")
        if any(_definer_depth(cls, name) < depth for name in _BATCH_SKIPS):
            return False
        return isinstance(self.target.machine, SimulatedMachine)

    def measure_repeated(self, source_text: str,
                         individual: Individual) -> List[float]:
        """Run :meth:`measure` ``repeats`` times and aggregate each
        measurement index across repetitions.
        """
        if self.repeats == 1:
            return self.measure(source_text, individual)
        rounds = [self.measure(source_text, individual)
                  for _ in range(self.repeats)]
        return self.aggregate_rounds(rounds, individual)

    def aggregate_rounds(self, rounds: List[List[float]],
                         individual: Individual) -> List[float]:
        """Aggregate per-repeat measurement lists index by index.

        Every repeat must return the same number of values; ragged
        widths mean the procedure's output schema is unstable, and
        silently truncating to the narrowest round would corrupt
        downstream measurement indices (output file names, complex
        fitness terms), so they raise :class:`ConfigError` instead.
        """
        if len(rounds) == 1:
            return rounds[0]
        widths = [len(r) for r in rounds]
        if len(set(widths)) > 1:
            uid = individual.uid if individual is not None else "?"
            raise ConfigError(
                f"measurement {type(self).__name__!r} returned ragged "
                f"measurement widths {widths} across {len(rounds)} "
                f"repeats for individual uid={uid}; every repeat must "
                "return the same number of values")
        width = widths[0]
        aggregated: List[float] = []
        for index in range(width):
            values = sorted(r[index] for r in rounds)
            if self.aggregate == "median":
                middle = len(values) // 2
                if len(values) % 2:
                    aggregated.append(values[middle])
                else:
                    aggregated.append(
                        (values[middle - 1] + values[middle]) / 2.0)
            else:
                aggregated.append(sum(values) / len(values))
        return aggregated

    # -- evaluation-layer contract ------------------------------------------
    #
    # The staged pipeline (repro.evaluation) treats a measurement as a
    # replicable board: picklable (so ProcessPoolBackend can ship or
    # fork copies), side-effect-free per call (execute_on_target cleans
    # up after itself), and reseedable (so every individual observes a
    # pinned noise substream regardless of evaluation order or worker).

    def reseed_noise(self, key: int) -> None:
        """Pin the target machine's noise stream for one individual."""
        self.target.machine.reseed(key)

    def fingerprint(self) -> str:
        """Stable description of everything besides the rendered source
        that determines this procedure's measurements — the cache's
        content address (:class:`repro.evaluation.cache.EvaluationCache`).
        """
        machine = self.target.machine
        cls = type(self)
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return "|".join([
            f"{cls.__module__}.{cls.__qualname__}",
            f"arch={_stable_repr(machine.arch)}",
            f"env={machine.environment}",
            f"sim_cycles={machine.sim_cycles}",
            f"supply={machine.supply_v!r}",
            f"nominal_hz={machine.nominal_frequency_hz!r}",
            f"hierarchy={_stable_repr(machine.hierarchy)}",
            f"params={params}",
        ])

    # -- workflow helpers shared by the stock procedures ------------------------

    def execute_on_target(self, source_text: str,
                          supply_v: Optional[float] = None) -> RunResult:
        """The full upload → compile → run → cleanup round trip."""
        target = self.target
        target.copy_file(self.source_name, source_text)
        try:
            binary = target.compile_file(self.source_name)
            return target.run_binary(
                binary,
                duration_s=self.duration_s,
                cores=self.cores,
                power_sample_count=self.sample_count,
                supply_v=supply_v,
            )
        finally:
            target.remove_file(self.source_name)

    # -- batched execution ----------------------------------------------------

    def compile_source(self, source_text: str) -> Program:
        """Compile ``source_text`` as :meth:`execute_on_target` does
        (through the target's translator, under ``source_name``) without
        the upload round trip."""
        target = self.target
        if target.translator is not None:
            source_text = target.translator(source_text)
        return target.machine.compile(source_text, name=self.source_name)

    def measure_batch(self, programs: Sequence[Program],
                      individuals: Sequence[Individual],
                      noise_keys: Sequence[int]) -> List[List[float]]:
        """Measure compiled ``programs`` in one
        :meth:`~repro.cpu.machine.BatchedMachine.run_batch` call with
        this procedure's parameters, each row's noise reseeded from its
        key, then interpret each row with :meth:`measure_from_result`
        and :meth:`aggregate_rounds`.  Where :meth:`supports_batching`
        holds, row ``i`` equals :meth:`measure_repeated` after
        :meth:`reseed_noise` with ``noise_keys[i]``.
        """
        if not programs:
            return []
        rows = BatchedMachine(self.target.machine).run_batch(
            list(programs), duration_s=self.duration_s, cores=self.cores,
            power_sample_count=self.sample_count,
            noise_keys=list(noise_keys), repeats=self.repeats)
        return [self.aggregate_rounds(
                    [self.measure_from_result(result, individual)
                     for result in rounds], individual)
                for rounds, individual in zip(rows, individuals)]
