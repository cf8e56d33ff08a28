"""Second-order power delivery network (PDN) model.

The substrate for the paper's oscilloscope experiments (Section VI).
The die's supply node sits behind a series R–L (regulator, board and
package loop) and is held up by the on-die/package decoupling
capacitance C:

``L·di/dt = V_reg − v − R·i``        (inductor current)
``C·dv/dt = i − i_load(t)``           (die voltage node)

This network has a first-order resonance at ``f_res = 1/(2π√(LC))``
with quality factor ``Q = √(L/C)/R``.  A workload whose current
waveform carries energy at ``f_res`` — the paper's "periodic current
surges that match the CPU's PDN 1st order resonance-frequency" —
produces the deepest droops and largest peak-to-peak swings; a flat
high current only produces IR drop.  Both effects emerge from the same
two state equations.

Integration uses semi-implicit Euler at one step per clock cycle
(dt = 1/f_clk ≈ 0.3 ns, ~30 samples per resonance period at the Athlon
preset), which is stable for damped oscillators at this step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .microarch import PDNParams

__all__ = ["VoltageTrace", "PDNModel"]

#: Share of a voltage trace, from its start, that the scope statistics
#: skip as settling.
_WARMUP_FRACTION = 0.25


@dataclass
class VoltageTrace:
    """Die voltage waveform and derived scope statistics (volts)."""

    voltage: np.ndarray
    supply: float
    warmup_samples: int

    @property
    def steady(self) -> np.ndarray:
        return self.voltage[self.warmup_samples:]

    @property
    def v_min(self) -> float:
        return float(np.min(self.steady))

    @property
    def v_max(self) -> float:
        return float(np.max(self.steady))

    @property
    def peak_to_peak(self) -> float:
        """The oscilloscope's max−min measurement (Figure 8's metric)."""
        return self.v_max - self.v_min

    @property
    def max_droop(self) -> float:
        """Deepest excursion below the supply setting."""
        return self.supply - self.v_min

    @property
    def mean(self) -> float:
        return float(np.mean(self.steady))


class PDNModel:
    """Simulates the die voltage response to a per-cycle current trace."""

    def __init__(self, params: PDNParams, frequency_hz: float) -> None:
        if min(params.r_ohm, params.l_h, params.c_f) <= 0:
            raise ValueError("PDN R, L, C must all be positive")
        if frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.params = params
        self.frequency_hz = frequency_hz
        self.dt = 1.0 / frequency_hz

    @property
    def resonance_hz(self) -> float:
        return self.params.resonance_hz

    @property
    def resonance_period_cycles(self) -> float:
        """Clock cycles per resonance period — the denominator of the
        paper's loop-length rule of thumb."""
        return self.frequency_hz / self.resonance_hz

    def simulate(self, current_a: np.ndarray, supply_v: float,
                 period: int | None = None,
                 prefix: int = 0) -> VoltageTrace:
        """Integrate the network against a per-cycle load current.

        The state starts at the DC solution for the trace's mean current
        so the scope statistics reflect steady operation, and the first
        ``_WARMUP_FRACTION`` of samples is excluded from the
        min/max/peak-to-peak statistics.

        ``period``/``prefix`` are an optional hint that ``current_a`` is
        periodic with that period from ``prefix`` onwards (the pipeline's
        detected steady-state kernel).  The damped RLC map is a
        contraction, so with a periodic input the float64 state lands on
        a bit-exact periodic orbit; the integrator checks the ``(v, i)``
        state at every period boundary and, on an exact recurrence,
        stops stepping and tiles the captured voltage segment over the
        remaining samples.  Because recurrence is checked with bitwise
        equality and the map is deterministic, the tiled waveform is
        identical to full integration — a wrong hint simply never
        matches and costs nothing.  (A frequency-domain convolution
        would be asymptotically faster still, but changes the result in
        the last ulps, violating the bit-identical contract.)
        """
        if len(current_a) == 0:
            raise ValueError("current trace is empty")
        p = self.params
        dt = self.dt
        n = len(current_a)

        mean_current = float(np.mean(current_a))
        v = supply_v - p.r_ohm * mean_current   # DC operating point
        i = mean_current

        voltage = np.empty(n)
        r, l, c = p.r_ohm, p.l_h, p.c_f
        # Scalar indexing into a plain list is several times faster than
        # into an ndarray, and float arithmetic on the resulting Python
        # floats is bit-identical to numpy scalar float64 arithmetic.
        samples = np.asarray(current_a, dtype=np.float64).tolist()

        check_at = prefix if period and period > 0 else -1
        seen: dict = {}
        k = 0
        while k < n:
            if k == check_at:
                state = (v, i)
                first = seen.get(state)
                if first is not None:
                    segment = voltage[first:k]
                    remaining = n - k
                    repeats = remaining // len(segment)
                    tail = remaining % len(segment)
                    if repeats:
                        voltage[k:k + repeats * len(segment)] = \
                            np.tile(segment, repeats)
                    if tail:
                        voltage[n - tail:] = segment[:tail]
                    break
                seen[state] = k
                check_at += period
            # Semi-implicit Euler: advance inductor current with the old
            # node voltage, then the node voltage with the new current.
            i += dt * (supply_v - v - r * i) / l
            v += dt * (i - samples[k]) / c
            voltage[k] = v
            k += 1

        return VoltageTrace(voltage=voltage, supply=supply_v,
                            warmup_samples=int(n * _WARMUP_FRACTION))

    def impedance_magnitude(self, frequency_hz: float) -> float:
        """|Z(f)| seen by the die load — peaks near the resonance.

        Useful for tests and for explaining why a loop frequency works:
        droop ≈ ΔI · |Z(f_loop)|.
        """
        if frequency_hz < 0:
            raise ValueError("frequency cannot be negative")
        p = self.params
        omega = 2.0 * np.pi * frequency_hz
        series = p.r_ohm + 1j * omega * p.l_h
        if omega == 0:
            return float(abs(series))
        cap = 1.0 / (1j * omega * p.c_f)
        z = (series * cap) / (series + cap)
        return float(abs(z))

    def resonant_loop_length(self, ipc: float) -> int:
        """The paper's rule of thumb: loop length ≈ IPC · f_clk / f_res,
        i.e. one loop iteration per resonance period."""
        if ipc <= 0:
            raise ValueError("ipc must be positive")
        return max(1, round(ipc * self.resonance_period_cycles))
