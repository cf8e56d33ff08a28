"""The simulated target machine.

:class:`SimulatedMachine` stands in for the paper's four hardware
platforms (Table II).  It glues the substrate together: assembler
("toolchain"), pipeline ("silicon"), power, thermal and PDN models
("sensors and instruments"), and exposes exactly the observables the
paper's measurement procedures read:

* averaged power samples (ARM energy probe / wall plug),
* a quantised chip temperature (i2c sensor),
* retired-instructions-per-cycle (``perf``),
* the die voltage waveform (oscilloscope on the sense points),
* and whether the run *crashed* — the die voltage fell below the
  critical timing voltage, which is what a V_MIN characterisation
  sweeps for.

An ``os`` execution environment adds measurement noise relative to
``bare_metal`` (the paper runs the GA on one core partly because OS
environments measure noisily).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from random import Random
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.errors import SimulationError, TargetError
from ..core.rng import make_rng
from ..isa import assembler_for
from ..isa.model import Program
from ..isa.splice import TemplateSplicer
from .batch import simulate_population
from .cache import MemoryHierarchy
from .microarch import MicroArch, microarch_for
from .pdn import PDNModel, VoltageTrace
from .pipeline import ExecutionTrace, PipelineSimulator
from .power import PowerModel
from .thermal import ThermalModel

__all__ = ["RunResult", "SimulatedMachine", "BatchedMachine",
           "ENVIRONMENTS", "SHARED_SEGMENT_BASE"]

#: Memory addresses at or above this boundary live in the *shared*
#: segment: accesses there traverse the interconnect to a shared LLC
#: slice instead of staying core-private.  Templates opt in by pointing
#: a base register at the segment (see
#: :func:`repro.isa.catalogs.arm_shared_template`).
SHARED_SEGMENT_BASE = 0x100000

ENVIRONMENTS = ("bare_metal", "os")

#: Relative 1-sigma noise on power samples per environment.
_POWER_NOISE = {"bare_metal": 0.002, "os": 0.02}
_IPC_NOISE = {"bare_metal": 0.0, "os": 0.01}
_TEMP_NOISE_C = {"bare_metal": 0.0, "os": 0.25}

#: Fraction of nominal supply below which timing fails at nominal
#: frequency (the V_crit of the V_MIN model).
_CRITICAL_VOLTAGE_FRACTION = 0.78


@dataclass
class RunResult:
    """Everything observable from one program execution."""

    program_name: str
    cores_used: int
    duration_s: float
    supply_v: float
    ipc: float
    core_power_w: float
    chip_power_w: float
    power_samples_w: List[float]
    temperature_samples_c: List[float]
    voltage: VoltageTrace
    crashed: bool
    trace: ExecutionTrace = field(repr=False, default=None)
    #: hierarchy hit/miss summary; None when caches are not modelled
    cache: Optional[dict] = None
    #: interconnect power from shared-memory traffic (0 when the
    #: workload touches no shared segment or the preset has no NoC)
    noc_power_w: float = 0.0

    @property
    def avg_power_w(self) -> float:
        return sum(self.power_samples_w) / len(self.power_samples_w)

    @property
    def temperature_c(self) -> float:
        """Mean of the sensor readings taken during the run."""
        return (sum(self.temperature_samples_c)
                / len(self.temperature_samples_c))

    @property
    def peak_power_w(self) -> float:
        return max(self.power_samples_w)

    @property
    def peak_to_peak_v(self) -> float:
        return self.voltage.peak_to_peak

    @property
    def v_min(self) -> float:
        return self.voltage.v_min


class _Physics(NamedTuple):
    """What :meth:`SimulatedMachine._physics` derives for one program:
    everything a :class:`RunResult` holds except the noisy readings."""

    program_name: str
    trace: ExecutionTrace
    cores: int
    supply_v: float
    core_power_w: float
    chip_power_w: float
    noc_power_w: float
    voltage: VoltageTrace
    crashed: bool


class SimulatedMachine:
    """One simulated platform (chip + board + instruments)."""

    def __init__(self, arch: MicroArch | str,
                 environment: str = "bare_metal",
                 seed: int = 0,
                 supply_v: Optional[float] = None,
                 sim_cycles: int = 1600,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 nominal_frequency_hz: Optional[float] = None,
                 steady_state_detection: bool = True) -> None:
        if isinstance(arch, str):
            arch = microarch_for(arch)
        arch.validate()
        if environment not in ENVIRONMENTS:
            raise TargetError(
                f"unknown environment {environment!r}; "
                f"expected one of {ENVIRONMENTS}")
        if sim_cycles < 100:
            raise TargetError("sim_cycles must be >= 100")
        self.arch = arch
        self.environment = environment
        self.supply_v = supply_v if supply_v is not None else arch.vdd_nominal
        self.sim_cycles = sim_cycles
        self._rng: Random = make_rng(seed)
        self._seed = seed
        #: The chip's specification frequency: the anchor of the timing
        #: (critical-voltage) model.  Differs from arch.frequency_hz on
        #: machines produced by at_frequency().
        self.nominal_frequency_hz = nominal_frequency_hz \
            if nominal_frequency_hz is not None else arch.frequency_hz
        self.hierarchy = hierarchy
        self.assembler = assembler_for(arch.isa)
        self._splicer = TemplateSplicer(self.assembler)
        #: Whether the pipeline may stop at a recurring scheduler state
        #: and tile the detected period (observably identical; see
        #: :mod:`repro.cpu.pipeline`).  Exposed for A/B validation.
        self.steady_state_detection = steady_state_detection
        self.pipeline = PipelineSimulator(
            arch, detect_steady_state=steady_state_detection)
        self.power = PowerModel(arch)
        self.thermal = ThermalModel(arch.thermal)
        self.pdn = PDNModel(arch.pdn, arch.frequency_hz)
        self._compile_cache: "OrderedDict[Tuple[str, str], Program]" = \
            OrderedDict()
        #: Content-addressed compile-cache counters: GA populations
        #: re-render many identical sources (elites, converged genes),
        #: so assembly work repeats.  Surfaced per generation in
        #: :class:`repro.core.engine.GenerationStats`.
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0
        #: Schedule-memo counters of :meth:`_schedule` (detection on,
        #: no hierarchy): runs re-tiled from a program's kept segment
        #: and runs that scheduled it.  Surfaced per generation like
        #: the compile-cache counters.
        self.schedule_memo_hits = 0
        self.schedule_memo_misses = 0

    #: Entries kept in the compile cache; enough for several
    #: generations of distinct sources at paper-scale populations.
    COMPILE_CACHE_CAP = 512

    # -- toolchain -----------------------------------------------------------

    def compile(self, source: str, name: str = "stress.s") -> Program:
        """Assemble source text; raises AssemblyError on bad code.

        Results are cached content-addressed on ``(name, source)`` —
        assembly is pure, and :class:`~repro.isa.model.Program` is
        treated as immutable by every consumer — with LRU eviction at
        :data:`COMPILE_CACHE_CAP` entries.  Failures are not cached.
        A miss is built by the machine's
        :class:`~repro.isa.splice.TemplateSplicer`, which assembles with
        its memo of decoded lines, so only lines no earlier compile on
        this machine decoded are decoded again.
        """
        key = (name, source)
        cached = self._compile_cache.get(key)
        if cached is not None:
            self._compile_cache.move_to_end(key)
            self.compile_cache_hits += 1
            return cached
        program = self._splicer.compile(source, name)
        self.compile_cache_misses += 1
        self._compile_cache[key] = program
        if len(self._compile_cache) > self.COMPILE_CACHE_CAP:
            self._compile_cache.popitem(last=False)
        return program

    # -- noise stream control ------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Reset the measurement-noise stream to a known point.

        The staged evaluation layer (:mod:`repro.evaluation`) pins a
        per-individual noise substream before every measurement so that
        a run's observables are a pure function of (source, machine,
        measurement parameters) — independent of evaluation order.
        That is what makes serial, process-pool and cached evaluation
        bit-identical, exactly like measuring on replicated boards.
        """
        self._rng = make_rng(seed)

    # -- idle characteristics ----------------------------------------------------

    def idle_core_power_w(self) -> float:
        """Power of a core executing nothing (clock + leakage)."""
        scale = (self.supply_v / self.arch.vdd_nominal) ** 2
        clock = self.arch.base_cycle_pj * 1e-12 * self.arch.frequency_hz
        return clock * scale + self.power.static_power_w(self.supply_v)

    def idle_chip_power_w(self) -> float:
        return self.power.chip_power_w(self.idle_core_power_w())

    def idle_temperature_c(self) -> float:
        """Steady idle chip temperature — Equation 1's ``I_T``."""
        return self.thermal.steady_state_c(self.idle_chip_power_w())

    def max_temperature_c(self, active_cores: Optional[int] = None) -> float:
        """A TJMAX-style bound used to normalise Equation 1's
        temperature score: the steady temperature if every issue slot of
        ``active_cores`` (default: all) burned the most energetic op
        every cycle.  GA searches that measure on a single core should
        normalise against ``active_cores=1`` so the temperature score
        spans a useful range."""
        cores = active_cores if active_cores is not None \
            else self.arch.core_count
        peak_epi = max(self.arch.epi_pj.values()) * 1.1
        per_core = (peak_epi * self.arch.issue_width
                    + self.arch.base_cycle_pj
                    + self.arch.window_slot_pj * self.arch.window_size)
        power = per_core * 1e-12 * self.arch.frequency_hz \
            + self.power.static_power_w(self.supply_v)
        chip = self.power.chip_power_w(power, cores) \
            + self.idle_core_power_w() * (self.arch.core_count - cores)
        return self.thermal.steady_state_c(chip)

    # -- execution ------------------------------------------------------------

    def run(self, program: Program, duration_s: float = 5.0,
            cores: Optional[int] = None,
            power_sample_count: int = 10,
            supply_v: Optional[float] = None) -> RunResult:
        """Execute ``program`` for ``duration_s`` seconds (modelled).

        ``cores`` follows the paper's methodology: the GA optimises on a
        single core, final viruses are scored with one instance per
        core.  ``supply_v`` overrides the machine setting for V_MIN
        sweeps.
        """
        cores, supply = self._run_arguments(duration_s, cores,
                                            power_sample_count, supply_v)
        trace = self._schedule(program)
        physics = self._physics(program, trace, cores, supply)
        return self._observe(physics, duration_s, power_sample_count)

    def run_source(self, source: str, name: str = "stress.s",
                   **kwargs) -> RunResult:
        """Compile-and-run convenience used by tests and examples."""
        return self.run(self.compile(source, name=name), **kwargs)

    def shared_access_fraction(self, program: Program) -> float:
        """Fraction of the loop's memory instructions whose base
        register points into the shared segment."""
        mem_slots = [i for i in program.loop if i.iclass.is_memory]
        if not mem_slots:
            return 0.0
        shared = sum(
            1 for i in mem_slots
            if program.register_values.get(i.mem_base, 0)
            >= SHARED_SEGMENT_BASE)
        return shared / len(mem_slots)

    def _noc_power_w(self, program: Program, trace: ExecutionTrace,
                     cores: int, supply: float) -> float:
        """Interconnect power from shared-segment traffic.

        Every shared access crosses the NoC to the shared LLC slice;
        with N instances the traffic scales by N.  This reproduces the
        MAMPO-style finding the paper cites: on simulated multi-cores,
        shared-memory virus threads raise total power substantially
        through the network-on-chip."""
        if self.arch.noc_epi_pj <= 0.0:
            return 0.0
        fraction = self.shared_access_fraction(program)
        if fraction == 0.0:
            return 0.0
        mem_issues = sum(
            count for group, count in trace.group_counts.items()
            if group in ("load", "store", "load_pair", "store_pair"))
        accesses_per_cycle = mem_issues / max(1, trace.cycles)
        scale = (supply / self.arch.vdd_nominal) ** 2
        return (accesses_per_cycle * fraction * cores
                * self.arch.noc_epi_pj * 1e-12
                * self.arch.frequency_hz * scale)

    def critical_voltage_v(self) -> float:
        """Minimum die voltage for timing-correct operation at this
        machine's clock; crossing it makes the run "crash".

        Critical-path delay shrinks with voltage headroom, so the
        voltage floor rises with clock frequency: at the specification
        frequency it is the classic 78% of nominal supply; overclocked
        machines need more, underclocked ones tolerate less — the
        slope a frequency/voltage shmoo plot walks."""
        ratio = self.arch.frequency_hz / self.nominal_frequency_hz
        fraction = _CRITICAL_VOLTAGE_FRACTION * (0.55 + 0.45 * ratio)
        return self.arch.vdd_nominal * fraction

    def at_frequency(self, frequency_hz: float) -> "SimulatedMachine":
        """A copy of this machine clocked at ``frequency_hz``.

        The timing model stays anchored at the original specification
        frequency, so V_MIN sweeps across the returned machines trace a
        frequency/voltage shmoo.  Loop current spectra shift with the
        clock (cycles per iteration are frequency-invariant), so a
        dI/dt virus tuned to the PDN resonance at one clock detunes at
        another — exactly as on silicon."""
        if frequency_hz <= 0:
            raise TargetError("frequency must be positive")
        return SimulatedMachine(
            self.arch.with_overrides(frequency_hz=frequency_hz),
            environment=self.environment,
            seed=self._seed,
            supply_v=self.supply_v,
            sim_cycles=self.sim_cycles,
            hierarchy=self.hierarchy,
            nominal_frequency_hz=self.nominal_frequency_hz,
            steady_state_detection=self.steady_state_detection,
        )

    # -- internals ---------------------------------------------------------------

    def _run_arguments(self, duration_s: float, cores: Optional[int],
                       power_sample_count: int,
                       supply_v: Optional[float]) -> Tuple[int, float]:
        """Validate a run's arguments; returns ``(cores, supply)`` with
        the defaults filled in."""
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        if power_sample_count < 1:
            raise SimulationError("need at least one power sample")
        cores = cores if cores is not None else 1
        if not 1 <= cores <= self.arch.core_count:
            raise SimulationError(
                f"cores={cores} outside 1..{self.arch.core_count}")
        return cores, supply_v if supply_v is not None else self.supply_v

    def _schedule(self, program: Program) -> ExecutionTrace:
        """The pipeline's trace of ``program`` at :attr:`sim_cycles`,
        scheduling each distinct program once.

        With steady-state detection on and no hierarchy, a schedule is
        a pure function of the loop and the microarchitecture, and a
        run of ``M`` cycles simulates the same segment as any longer
        run until detection fires.  So the segment is kept on the
        program as ``(arch, trace)`` — its lifetime is the compile
        cache's, and since the memo holds ``arch`` itself no other
        microarchitecture can take its identity — and a later run on
        that ``arch`` (this machine, or another built on the same
        object, such as the surrogate's probe) re-tiles it with
        ``_build_trace`` instead of scheduling again.  A segment
        with a kernel serves ``M`` only when ``M`` exceeds prefix plus
        period (at ``M`` equal to it a fresh run stops untiled); one
        without a kernel serves only its own length.  Detection off
        (the validation setting) and a hierarchy (the trace depends on
        cache state) neither read nor fill the memo.
        """
        pipeline = self.pipeline
        cycles = self.sim_cycles
        if self.hierarchy is not None or not pipeline.detect_steady_state:
            return pipeline.execute(program, max_cycles=cycles,
                                    hierarchy=self.hierarchy)
        arch = pipeline.arch
        memo = program._schedule_memo
        if memo is not None and memo[0] is arch:
            segment = memo[1]
            prefix, period = segment.prefix_cycles, segment.period_cycles
            serves = cycles > prefix + period if period \
                else cycles == segment.cycles
            if serves:
                self.schedule_memo_hits += 1
                return PipelineSimulator._build_trace(
                    [instr.group or instr.iclass.value
                     for instr in program.loop],
                    len(program.loop), cycles, prefix, period,
                    segment.issue_slots, segment.issue_offsets,
                    segment.occupancy_counts, None, None)
        self.schedule_memo_misses += 1
        trace = pipeline.execute(program, max_cycles=cycles)
        # Every trace the segment serves shares these arrays.
        for array in (trace.issue_slots, trace.issue_offsets,
                      trace.occupancy_counts):
            array.flags.writeable = False
        program._schedule_memo = (arch, trace)
        return trace

    def _physics(self, program: Program, trace: ExecutionTrace,
                 cores: int, supply: float) -> _Physics:
        """The noise-free part of a run, derived from one energy trace:
        core, NoC and chip power, the PDN waveform and the crash
        verdict."""
        energy = self.power.energy_trace_pj(program, trace)
        core_power = self.power.core_power_from_energy_w(energy, supply)
        noc_power = self._noc_power_w(program, trace, cores, supply)
        # Idle cores still burn clock and leakage.
        chip_power = self.power.chip_power_w(core_power, cores) \
            + self.idle_core_power_w() * (self.arch.core_count - cores) \
            + noc_power

        current = self.power.current_from_energy_a(energy, supply)
        # Independent per-core instances do not align their activity
        # phases, so AC current adds incoherently (~sqrt(N)) while the
        # DC component adds linearly.
        mean_current = float(np.mean(current))
        total_current = (mean_current * cores
                         + (current - mean_current) * np.sqrt(cores))
        voltage = self.pdn.simulate(
            total_current, supply,
            period=trace.period_cycles or None,
            prefix=trace.prefix_cycles)
        return _Physics(
            program_name=program.name, trace=trace, cores=cores,
            supply_v=supply, core_power_w=core_power,
            chip_power_w=chip_power, noc_power_w=noc_power,
            voltage=voltage,
            crashed=voltage.v_min < self.critical_voltage_v())

    def _observe(self, physics: _Physics, duration_s: float,
                 power_sample_count: int) -> RunResult:
        """One measurement of ``physics``: draws the IPC noise, then the
        power samples, then the temperature readings.  Recorded results
        and evaluation caches depend on that order."""
        ipc = self._noisy(physics.trace.ipc, _IPC_NOISE[self.environment])
        samples = [
            max(0.0, self._noisy(physics.chip_power_w,
                                 _POWER_NOISE[self.environment]))
            for _ in range(power_sample_count)
        ]
        sensor = self.thermal.sensor_reading_c(physics.chip_power_w,
                                               duration_s)
        temperature_samples = [
            sensor + self._rng.gauss(0.0, _TEMP_NOISE_C[self.environment])
            for _ in range(power_sample_count)
        ]
        return RunResult(
            program_name=physics.program_name,
            cores_used=physics.cores,
            duration_s=duration_s,
            supply_v=physics.supply_v,
            ipc=max(0.0, ipc),
            core_power_w=physics.core_power_w,
            chip_power_w=physics.chip_power_w,
            power_samples_w=samples,
            temperature_samples_c=temperature_samples,
            voltage=physics.voltage,
            crashed=physics.crashed,
            trace=physics.trace,
            cache=physics.trace.cache_summary,
            noc_power_w=physics.noc_power_w,
        )

    def _noisy(self, value: float, sigma_rel: float) -> float:
        if sigma_rel <= 0.0:
            return value
        return value * (1.0 + self._rng.gauss(0.0, sigma_rel))


class BatchedMachine:
    """Population-batched execution path over a :class:`SimulatedMachine`.

    :meth:`run_batch` evaluates a whole generation's programs in one
    call.  With steady-state detection on, each program is scheduled by
    the machine's own :class:`~repro.cpu.pipeline.PipelineSimulator`
    through the same schedule memo as :meth:`SimulatedMachine.run`, so
    its trace — tiled kernel included — is exactly the one
    :meth:`SimulatedMachine.run` sees.  With detection off (the
    full-simulation validation setting) and no memory hierarchy, the
    whole population is scheduled as one lockstep array simulation
    (:func:`repro.cpu.batch.simulate_population`).  Energy, power, the
    PDN solve and the noise draws then run per program through the
    same code as :meth:`SimulatedMachine.run`, so every observable is
    bit-identical to it.

    Measurement noise is replayed per individual: the caller passes one
    noise key per program (the evaluation layer's per-source substream
    key) and the batch reseeds and draws each individual's noise in
    exactly the order the serial path would, so every observable —
    including the noisy samples — matches the serial result bit for
    bit.  Because the underlying simulation is deterministic, repeated
    measurements (``repeats > 1``) replay only the noise draws instead
    of re-running the simulator.

    Machines with a :class:`~repro.cpu.cache.MemoryHierarchy` attached
    always schedule each program with the serial pipeline (the
    lockstep scheduler models core-private execution only) and still
    replay only the noise per repeat.
    """

    def __init__(self, machine: SimulatedMachine) -> None:
        self.machine = machine

    def run_batch(self, programs: List[Program],
                  duration_s: float = 5.0,
                  cores: Optional[int] = None,
                  power_sample_count: int = 10,
                  supply_v: Optional[float] = None,
                  noise_keys: Optional[List[int]] = None,
                  repeats: int = 1) -> List[List[RunResult]]:
        """Run every program; returns one result list (``repeats`` long)
        per program, in order."""
        machine = self.machine
        cores, supply = machine._run_arguments(duration_s, cores,
                                               power_sample_count, supply_v)
        if repeats < 1:
            raise SimulationError("repeats must be >= 1")
        if noise_keys is not None and len(noise_keys) != len(programs):
            raise SimulationError("need one noise key per program")
        if not programs:
            return []

        if machine.hierarchy is None and not machine.steady_state_detection:
            traces = simulate_population(
                programs, machine.arch, max_cycles=machine.sim_cycles)
        else:
            traces = [machine._schedule(program) for program in programs]

        results: List[List[RunResult]] = []
        for index, (program, trace) in enumerate(zip(programs, traces)):
            physics = machine._physics(program, trace, cores, supply)
            if noise_keys is not None:
                machine.reseed(noise_keys[index])
            results.append([
                machine._observe(physics, duration_s, power_sample_count)
                for _ in range(repeats)])
        return results
