"""First-order RC thermal model.

The paper's X-Gene2 experiments read the chip temperature through the
i2c interface; the thermal substrate here produces the value such a
sensor would report.  A single junction-to-ambient RC stage is enough
for the paper's use (steady, whole-chip workloads measured after a few
seconds):

``T(t) = T_amb + R_th · P · (1 − e^(−t/τ))``

The sensor quantises to the step of a typical on-die thermal diode
readout (0.125 °C, as in LM75-class i2c sensors), which also gives the GA a realistic plateaued fitness
landscape instead of an infinitely precise one.
"""

from __future__ import annotations

import math

from .microarch import ThermalParams

__all__ = ["ThermalModel"]


class ThermalModel:
    """Chip temperature from chip power."""

    #: Quantisation step of the i2c sensor readout (°C).
    SENSOR_STEP_C = 0.125

    def __init__(self, params: ThermalParams) -> None:
        if params.r_th_c_per_w <= 0 or params.tau_s <= 0:
            raise ValueError("thermal resistance and tau must be positive")
        self.params = params

    def temperature_c(self, power_w: float, elapsed_s: float) -> float:
        """Exact model temperature after ``elapsed_s`` at ``power_w``."""
        if elapsed_s < 0:
            raise ValueError("elapsed time cannot be negative")
        p = self.params
        rise = p.r_th_c_per_w * power_w
        return p.t_ambient_c + rise * (1.0 - math.exp(-elapsed_s / p.tau_s))

    def steady_state_c(self, power_w: float) -> float:
        return self.params.steady_state_c(power_w)

    def sensor_reading_c(self, power_w: float, elapsed_s: float) -> float:
        """Temperature as the quantised i2c sensor would report it."""
        exact = self.temperature_c(power_w, elapsed_s)
        return round(exact / self.SENSOR_STEP_C) * self.SENSOR_STEP_C

    def idle_temperature_c(self, idle_power_w: float) -> float:
        """Steady-state temperature under idle power — the ``I_T`` term
        of the paper's Equation 1."""
        return self.steady_state_c(idle_power_w)
