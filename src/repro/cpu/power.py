"""Energy and power model.

Power is modelled bottom-up from the execution trace:

``P = f · (Σ_issued EPI_eff + base_cycle + window·slot) + P_static``

* **EPI_eff** — each static loop slot's nominal energy-per-instruction
  (from the microarchitecture preset, keyed by latency group) scaled by
  a *data-toggle factor* derived from the operand values flowing through
  it.  The paper stresses that register initialisation "must be
  initialized judiciously" and uses checkerboard patterns (0xAAAA...)
  because they maximise bit switching; here a checkerboard value yields
  toggle ≈ 1.0 and an all-zeros value ≈ 0.0, scaling EPI over roughly a
  2× range.
* **base_cycle** — clock-tree and fetch energy burnt every live cycle.
* **window·slot** — per-occupied-window-slot energy, standing in for
  the issue-queue/dependency-tracking power the paper credits for the
  power virus's extra temperature over the IPC virus.
* **P_static** — leakage, scaled with the square of supply voltage.

Dynamic energy scales with ``(V/V_nom)²`` so V_MIN sweeps see slightly
lower currents at lower supply, as on real silicon.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..isa.model import InstrClass, Program
from .microarch import MicroArch
from .pipeline import ExecutionTrace

__all__ = ["value_toggle_activity", "PowerModel"]

#: Toggle activity assumed for values loaded from (checkerboard-
#: initialised) memory and for registers never written by init code.
LOADED_VALUE_ACTIVITY = 0.9
UNKNOWN_VALUE_ACTIVITY = 0.35

#: Passes of activity propagation through the loop dataflow.
_PROPAGATION_PASSES = 3

#: Share of an energy trace, from its start, that average power skips
#: as pipeline warm-up.
_WARMUP_FRACTION = 0.2

#: EPI multiplier range driven by toggle activity: 0.55× (static data)
#: up to 1.1× (checkerboard).
_EPI_FLOOR = 0.55
_EPI_SPAN = 0.55


def value_toggle_activity(value: int) -> float:
    """Bit-switching score of a 64-bit value in [0, 1].

    Counts transitions between adjacent bits: a checkerboard pattern
    (``0xAAAA...`` or ``0x5555...``) scores 1.0, a constant word scores
    0.0, a random word ≈ 0.5.
    """
    word = value & (2**64 - 1)
    transitions = bin((word ^ (word >> 1)) & (2**63 - 1)).count("1")
    # word ^ (word >> 1) has a set bit for each adjacent-bit transition;
    # 63 adjacent pairs exist in a 64-bit word.
    return min(1.0, transitions / 63.0)


class PowerModel:
    """Derives energy traces and power figures from execution traces."""

    def __init__(self, arch: MicroArch) -> None:
        self.arch = arch

    # -- per-slot effective energies ------------------------------------------

    def slot_activities(self, program: Program) -> List[float]:
        """Converged data-toggle activity per static loop slot.

        Register activities start from the init section's immediate
        values and propagate through the loop dataflow for a few passes
        (destination activity = mean of source activities; loads import
        the memory pattern's activity).
        """
        activity: Dict[str, float] = {}
        for reg, value in program.register_values.items():
            activity[reg] = value_toggle_activity(value)

        slot_activity = [UNKNOWN_VALUE_ACTIVITY] * len(program.loop)
        for _ in range(_PROPAGATION_PASSES):
            for index, instr in enumerate(program.loop):
                sources = [activity.get(reg, UNKNOWN_VALUE_ACTIVITY)
                           for reg in instr.reads if reg != "flags"]
                if instr.immediate is not None:
                    sources.append(value_toggle_activity(instr.immediate))
                if instr.iclass is InstrClass.MEM_LOAD:
                    op_activity = LOADED_VALUE_ACTIVITY
                elif sources:
                    op_activity = sum(sources) / len(sources)
                else:
                    op_activity = UNKNOWN_VALUE_ACTIVITY
                slot_activity[index] = op_activity
                for reg in instr.writes:
                    if reg != "flags":
                        if instr.iclass is InstrClass.MEM_LOAD:
                            activity[reg] = LOADED_VALUE_ACTIVITY
                        else:
                            activity[reg] = op_activity
        return slot_activity

    def slot_energies_pj(self, program: Program) -> np.ndarray:
        """Effective EPI (pJ) per static loop slot."""
        activities = self.slot_activities(program)
        energies = np.empty(len(program.loop))
        for index, instr in enumerate(program.loop):
            group = instr.group or instr.iclass.value
            nominal = self.arch.epi_of(group, instr.iclass)
            factor = _EPI_FLOOR + _EPI_SPAN * activities[index]
            energies[index] = nominal * factor
        return energies

    # -- traces ----------------------------------------------------------------

    def energy_trace_pj(self, program: Program,
                        trace: ExecutionTrace) -> np.ndarray:
        """Dynamic energy per cycle (pJ) over the executed window.

        Vectorised over the trace's compact form: energy is computed
        for the simulated cycles only and tiled out to ``trace.cycles``
        with :meth:`ExecutionTrace.expand`.  The accumulation order per
        cycle (base, then window occupancy, then each issued slot in
        issue order) matches the historical per-cycle Python loop
        exactly, so the floating-point result is bit-identical.
        """
        slot_energy = self.slot_energies_pj(program)
        arch = self.arch
        per_sim = arch.base_cycle_pj + arch.window_slot_pj \
            * trace.occupancy_counts.astype(np.float64)
        counts = np.diff(trace.issue_offsets)
        starts = trace.issue_offsets[:-1]
        issue_energy = slot_energy[trace.issue_slots]
        for position in range(int(counts.max()) if len(counts) else 0):
            mask = counts > position
            per_sim[mask] += issue_energy[starts[mask] + position]
        per_cycle = trace.expand(per_sim)
        if trace.extra_energy_per_cycle is not None:
            per_cycle = per_cycle + np.asarray(trace.extra_energy_per_cycle)
        return per_cycle

    def current_trace_a(self, program: Program, trace: ExecutionTrace,
                        vdd: float | None = None) -> np.ndarray:
        """Per-cycle die current draw (amps) for the PDN model."""
        return self.current_from_energy_a(
            self.energy_trace_pj(program, trace), vdd)

    def current_from_energy_a(self, energy_pj: np.ndarray,
                              vdd: float | None = None) -> np.ndarray:
        """Per-cycle die current (amps) of an :meth:`energy_trace_pj`
        trace."""
        vdd = vdd if vdd is not None else self.arch.vdd_nominal
        scale = (vdd / self.arch.vdd_nominal) ** 2
        dynamic_power_w = energy_pj * scale * 1e-12 * self.arch.frequency_hz
        total_power_w = dynamic_power_w + self.static_power_w(vdd)
        return total_power_w / vdd

    # -- aggregate figures --------------------------------------------------------

    def static_power_w(self, vdd: float | None = None) -> float:
        vdd = vdd if vdd is not None else self.arch.vdd_nominal
        return self.arch.static_power_w * (vdd / self.arch.vdd_nominal) ** 2

    def core_power_w(self, program: Program, trace: ExecutionTrace,
                     vdd: float | None = None) -> float:
        """Average single-core power over the post-warm-up window."""
        return self.core_power_from_energy_w(
            self.energy_trace_pj(program, trace), vdd)

    def core_power_from_energy_w(self, energy_pj: np.ndarray,
                                 vdd: float | None = None) -> float:
        """Average single-core power of an :meth:`energy_trace_pj` trace
        over its post-warm-up window."""
        vdd = vdd if vdd is not None else self.arch.vdd_nominal
        scale = (vdd / self.arch.vdd_nominal) ** 2
        energy = energy_pj * scale
        steady = energy[int(len(energy) * _WARMUP_FRACTION):]
        mean_pj = float(np.mean(steady)) if len(steady) else 0.0
        return mean_pj * 1e-12 * self.arch.frequency_hz \
            + self.static_power_w(vdd)

    def chip_power_w(self, core_power_w: float,
                     active_cores: int | None = None) -> float:
        """Whole-chip power: independent virus instances per core plus
        uncore — the paper runs one instance per core with no shared
        resources, so per-core power simply scales."""
        cores = active_cores if active_cores is not None \
            else self.arch.core_count
        cores = max(0, min(cores, self.arch.core_count))
        return core_power_w * cores + self.arch.uncore_power_w
