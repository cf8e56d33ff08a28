"""Batched short-run probe: cheap dynamic features for surrogates.

Static features (:mod:`repro.staticcheck.costmodel`) bound what a
candidate *could* do; a short simulated run shows what it actually
does.  :class:`ShortProbe` runs a whole offspring pool for a small
cycle budget (~1.6k cycles by default — a fraction of a full
measurement's budget) through one
:meth:`~repro.cpu.machine.BatchedMachine.run_batch` call.  The probe
machine keeps steady-state detection on, so that call schedules each
program with the machine's own pipeline, stopping at its tiled kernel.
The probe machine is built on the measured machine's
:class:`~repro.cpu.microarch.MicroArch` and probes the programs the
measurement compiles, so a kernel found within the probe budget is
re-tiled for the full measurement instead of scheduled again (see
:meth:`SimulatedMachine._schedule
<repro.cpu.machine.SimulatedMachine._schedule>`).

Determinism: the probe machine is private (fixed seed, bare-metal
environment) and every program's noise stream is keyed by its rendered
source via :func:`~repro.evaluation.pipeline.noise_key` — probe
features are a pure function of the source text, independent of batch
order, backend, or checkpoint resume.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..cpu.machine import BatchedMachine, SimulatedMachine
from ..cpu.microarch import MicroArch
from .pipeline import noise_key

__all__ = ["ShortProbe", "PROBE_FEATURE_NAMES"]

#: The feature names one probe contributes, in emission order.
PROBE_FEATURE_NAMES = ("probe_ipc", "probe_power_w", "probe_vpp",
                       "probe_temp_c")


class ShortProbe:
    """Short-run dynamic feature extractor over a private machine.

    Parameters
    ----------
    arch:
        The microarchitecture the probe machine simulates (normally
        the measured machine's).
    cycles:
        Simulated cycle budget per probe run (floored to the machine's
        100-cycle minimum).
    """

    #: Seed of the private probe machine and of its noise keys.  Fixed,
    #: so probe features never depend on how many probes ran before.
    SEED = 0

    def __init__(self, arch: MicroArch, cycles: int = 1600) -> None:
        self.cycles = max(100, int(cycles))
        machine = SimulatedMachine(arch, environment="bare_metal",
                                   seed=self.SEED,
                                   sim_cycles=self.cycles)
        self._batch = BatchedMachine(machine)

    def probe_batch(self, programs: Sequence,
                    sources: Sequence[str]) -> List[Dict[str, float]]:
        """One feature dict per program, batch-simulated in one pass.

        ``sources`` are the rendered source texts the programs were
        assembled from; they key each program's noise substream.
        """
        if len(programs) != len(sources):
            raise ValueError("need one source per program")
        if not programs:
            return []
        keys = [noise_key(self.SEED, source) for source in sources]
        rounds = self._batch.run_batch(list(programs), duration_s=1.0,
                                       power_sample_count=4,
                                       noise_keys=keys)
        features: List[Dict[str, float]] = []
        for per_program in rounds:
            run = per_program[0]
            features.append({
                "probe_ipc": float(run.ipc),
                "probe_power_w": float(run.core_power_w),
                "probe_vpp": float(run.peak_to_peak_v),
                "probe_temp_c": float(run.temperature_c),
            })
        return features
