"""Frequency-domain model of the analog amplification chain.

Each stage is a minimum-phase rational response with real corner
frequencies:

    H(f) = gain_factor * prod (1 + j f/f_zero) / prod (1 + j f/f_pole)
                       * prod (j f/f_c) / (1 + j f/f_c)      [hp_corners]

``hp_corners`` entries are single-pole high-pass (coupling) sections;
``zeros``/``poles`` form shelving pairs such as a partially bypassed
emitter resistor.  Noise accumulates through a cascade by the Friis rule
on noise temperatures, with available power gain taken as |H|^2 at the
evaluation frequency.
"""

from __future__ import annotations

import math

import numpy as np

from . import Record
from .device import BiasNetwork, SmallSignalParams

__all__ = [
    "StageResponse",
    "ChainResponse",
    "hbt_stage_response",
    "unity_gain_load",
    "fixed_gain_stage",
    "s21_db",
]

DEFAULT_REFERENCE_FREQUENCY = 10e6   # Hz, mid-band for gain/noise bookkeeping


class StageResponse(Record):
    """One amplifier stage: gain, corner frequencies, noise temperature."""

    gain_factor: float
    poles: tuple[float, ...] = ()
    zeros: tuple[float, ...] = ()
    hp_corners: tuple[float, ...] = ()
    noise_temperature: float = 0.0        # K, input-referred

    def __post_init__(self):
        for f in (*self.poles, *self.zeros, *self.hp_corners):
            if not f > 0:
                raise ValueError("corner frequencies must be positive")
        if not 0.0 <= self.noise_temperature < math.inf:
            raise ValueError(f"noise temperature must be finite and >= 0 K, "
                             f"got {self.noise_temperature:g}")

    def evaluate(self, f):
        """Complex response at frequency/frequencies ``f`` (Hz)."""
        f = np.asarray(f, dtype=float)
        h = np.full(f.shape, self.gain_factor, dtype=complex)
        # in place, so each product rounds in the written order at any
        # array size (numpy may reuse a large temporary with the operands
        # swapped)
        for fz in self.zeros:
            h *= 1.0 + 1j * f / fz
        for fp in self.poles:
            h /= 1.0 + 1j * f / fp
        for fc in self.hp_corners:
            x = 1j * f / fc
            h *= x
            h /= 1.0 + x
        return h if h.shape else complex(h)


class ChainResponse(Record):
    """A cascade of stages, first stage first."""

    stages: tuple[StageResponse, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("cascade needs at least one stage")

    def evaluate(self, f):
        h = self.stages[0].evaluate(f)
        for s in self.stages[1:]:
            h *= s.evaluate(f)
        return h

    def total_noise_temperature(self):
        """Friis accumulation of stage noise temperatures at
        ``DEFAULT_REFERENCE_FREQUENCY``."""
        t_total = 0.0
        g_run = 1.0
        for k, s in enumerate(self.stages):
            t_total += s.noise_temperature / g_run
            g = abs(s.evaluate(DEFAULT_REFERENCE_FREQUENCY)) ** 2
            if g == 0.0 and k < len(self.stages) - 1:
                raise ValueError(
                    f"stage {k} has zero gain at "
                    f"{DEFAULT_REFERENCE_FREQUENCY:g} Hz; "
                    "noise accumulation undefined")
            g_run *= g
        return t_total


def _hbt_corners(ss: SmallSignalParams, net: BiasNetwork, load_resistance,
                 source_resistance):
    """Corner frequencies of the common-emitter stage, Hz."""
    beta = ss.g_m * ss.r_pi
    r_bias = net.thevenin_resistance
    # input coupling: C_in against source + (bias divider || base input);
    # the emitter is bypassed above f_p3, so the base input is just r_pi
    r_in = 1.0 / (1.0 / r_bias + 1.0 / ss.r_pi)
    f_c1 = 1.0 / (2.0 * math.pi * net.c_in * (source_resistance + r_in))
    # output coupling: C_out against collector resistor + load
    f_c2 = 1.0 / (2.0 * math.pi * net.c_out * (net.r_collector + load_resistance))
    # emitter bypass shelf: zero where C_bypass shorts R_emitter, pole set by
    # the resistance seen from the emitter node
    f_z3 = 1.0 / (2.0 * math.pi * net.c_bypass * net.r_emitter)
    r_src_base = 1.0 / (1.0 / r_bias + 1.0 / source_resistance)
    r_emitter_side = (ss.r_pi + r_src_base) / (beta + 1.0)
    r_seen = 1.0 / (1.0 / net.r_emitter + 1.0 / r_emitter_side)
    f_p3 = 1.0 / (2.0 * math.pi * net.c_bypass * r_seen)
    return f_c1, f_c2, f_z3, f_p3


def hbt_stage_response(ss: SmallSignalParams, net: BiasNetwork,
                       load_resistance: float, source_resistance: float,
                       noise_temperature: float = 0.0) -> StageResponse:
    """Common-emitter stage response.

    Mid-band gain is -g_m*(R_c || r_o || R_load) with the emitter resistor
    fully bypassed; below the bypass shelf the gain drops to the degenerated
    value, and the two coupling capacitors add high-pass corners.
    """
    if load_resistance <= 0:
        raise ValueError("load resistance must be positive")
    if not source_resistance > 0:
        raise ValueError("source resistance must be positive")
    r_par = 1.0 / (1.0 / net.r_collector + 1.0 / ss.r_o + 1.0 / load_resistance)
    a_mid = ss.g_m * r_par
    f_c1, f_c2, f_z3, f_p3 = _hbt_corners(ss, net, load_resistance,
                                          source_resistance)
    # gain_factor is low-frequency referenced; the f_z3/f_p3 shelf raises it
    # to the fully bypassed value a_mid at mid-band
    return StageResponse(
        gain_factor=-a_mid * f_z3 / f_p3,
        zeros=(f_z3,),
        poles=(f_p3,),
        hp_corners=(f_c1, f_c2),
        noise_temperature=noise_temperature,
    )


def unity_gain_load(ss: SmallSignalParams, net: BiasNetwork) -> float:
    """Load resistance that sets the stage's mid-band gain
    g_m*(R_c || r_o || R_load) to unity: R_load = 1/(g_m - 1/R_c - 1/r_o).

    Every shelf and coupling factor of the stage is below 1, so its |H|
    rises to unity from below.  Raises ``ValueError`` when g_m does not
    exceed 1/R_c + 1/r_o.
    """
    g_out = 1.0 / net.r_collector + 1.0 / ss.r_o
    inv = ss.g_m - g_out
    if not inv > 0:
        raise ValueError(
            f"unity gain unreachable: stage too weak (g_m = {ss.g_m:.6g} S, "
            f"1/R_c + 1/r_o = {g_out:.6g} S)")
    return 1.0 / inv


def fixed_gain_stage(gain_db: float, f_low: float, f_high: float,
                     noise_temperature: float = 0.0) -> StageResponse:
    """Band-limited fixed-gain block: one high-pass corner at ``f_low``, one
    low-pass pole at ``f_high``, mid-band gain 10^(gain_db/20)."""
    if not f_low < f_high:
        raise ValueError("need f_low < f_high")
    try:
        gain = 10.0 ** (gain_db / 20.0)
    except OverflowError:
        raise ValueError(f"gain of {gain_db:g} dB overflows") from None
    return StageResponse(
        gain_factor=gain,
        poles=(f_high,),
        hp_corners=(f_low,),
        noise_temperature=noise_temperature,
    )


def s21_db(chain: ChainResponse, frequencies):
    """Rows (f, S21 in dB) of the voltage-ratio transmission, an (n, 2)
    array."""
    frequencies = np.asarray(frequencies, dtype=float)
    if np.any(frequencies <= 0):
        raise ValueError("frequencies must be positive")
    mag = np.abs(chain.evaluate(frequencies))
    if not np.all((mag > 0) & np.isfinite(mag)):
        raise FloatingPointError("chain gain is zero or not finite; "
                                 "S21 in dB is undefined")
    return np.column_stack((frequencies, 20.0 * np.log10(mag)))

