"""Current-spectrum analysis for dI/dt viruses (paper Sections II/VI).

The paper's explanation for dI/dt viruses is spectral: "Periodic
current surges that match the CPU's PDN 1st order resonance-frequency
maximize the CPU voltage droops and overshoots."  This module makes
that mechanism inspectable: FFT the per-cycle current trace of a run
and report where its AC energy sits relative to the PDN resonance.

A good dI/dt virus concentrates current energy near ``f_res``; a
power virus (flat current) has almost no AC content at all.  The
spectrum benchmark verifies this on the evolved viruses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.errors import SimulationError

__all__ = ["CurrentSpectrum", "current_spectrum", "resonance_band_ratio"]

#: Equivalent noise bandwidth of the Hann window in bins: the window
#: spreads a tone's energy over ~1.5 bins, so root-sum-square band
#: amplitudes must be divided by sqrt(1.5) to recover the tone
#: amplitude.
_HANN_ENBW = 1.5

#: Share of a current trace, from its start, discarded as warm-up
#: (pipeline fill, cache warming).
_WARMUP_FRACTION = 0.25

#: Width of the resonance band as a fraction of the resonance frequency
#: (±12.5%).
_RELATIVE_BANDWIDTH = 0.25


@dataclass
class CurrentSpectrum:
    """One-sided amplitude spectrum of a current trace."""

    frequencies_hz: np.ndarray
    amplitudes_a: np.ndarray
    dc_a: float
    sample_rate_hz: float

    def dominant_frequency_hz(self) -> float:
        """Frequency of the largest AC component."""
        if len(self.amplitudes_a) == 0:
            return 0.0
        return float(self.frequencies_hz[int(np.argmax(self.amplitudes_a))])

    def amplitude_near(self, frequency_hz: float,
                       bandwidth_hz: float) -> float:
        """RMS-combined amplitude within ±bandwidth/2 of a frequency."""
        low = frequency_hz - bandwidth_hz / 2.0
        high = frequency_hz + bandwidth_hz / 2.0
        mask = (self.frequencies_hz >= low) & (self.frequencies_hz <= high)
        if not np.any(mask):
            return 0.0
        return float(np.sqrt(np.sum(self.amplitudes_a[mask] ** 2)
                             / _HANN_ENBW))

    def total_ac_amplitude(self) -> float:
        return float(np.sqrt(np.sum(self.amplitudes_a ** 2)
                             / _HANN_ENBW))


def current_spectrum(current_a: np.ndarray,
                     sample_rate_hz: float) -> CurrentSpectrum:
    """One-sided FFT of a per-cycle current trace.

    The warm-up prefix is discarded (unless that would leave fewer than
    8 samples), the mean (DC) removed and a Hann window applied so loop
    harmonics don't leak across the whole spectrum.
    """
    current_a = np.asarray(current_a, dtype=float)
    if current_a.ndim != 1 or len(current_a) < 8:
        raise SimulationError(
            "current trace must be a 1-D array of at least 8 samples")
    if sample_rate_hz <= 0:
        raise SimulationError("sample rate must be positive")

    start = int(len(current_a) * _WARMUP_FRACTION)
    steady = current_a[start:] if len(current_a) - start >= 8 else current_a
    dc = float(np.mean(steady))
    ac = steady - dc
    window = np.hanning(len(ac))
    # Amplitude-correct for the Hann window's coherent gain (0.5).
    spectrum = np.fft.rfft(ac * window)
    scale = 2.0 / (len(ac) * 0.5)
    amplitudes = np.abs(spectrum) * scale
    frequencies = np.fft.rfftfreq(len(ac), d=1.0 / sample_rate_hz)
    # Drop the DC bin; it is reported separately.
    return CurrentSpectrum(frequencies_hz=frequencies[1:],
                           amplitudes_a=amplitudes[1:],
                           dc_a=dc,
                           sample_rate_hz=sample_rate_hz)


def resonance_band_ratio(spectrum: CurrentSpectrum,
                         resonance_hz: float) -> Tuple[float, float]:
    """(amplitude near resonance, fraction of total AC energy there),
    over a band ±12.5% around the resonance frequency."""
    if resonance_hz <= 0:
        raise SimulationError("resonance frequency must be positive")
    band = spectrum.amplitude_near(resonance_hz,
                                   resonance_hz * _RELATIVE_BANDWIDTH)
    total = spectrum.total_ac_amplitude()
    fraction = (band / total) ** 2 if total > 0 else 0.0
    return band, fraction
