"""Electrons-on-helium signal source.

Stark-tuned Rydberg resonance (Lorentzian in bottom-plate voltage),
rate-equation population dynamics under pulsed microwave drive, and the
induced image charge / current / voltage.

Population dynamics use the two-level rate equation

    d rho22/dt = r(t) * (1 - 2 rho22) - rho22 / tau

with r(t) equal to the pumping rate during the MW-on half of the
modulation period and zero during MW-off.  Each segment is integrated
analytically (piecewise exponential), and the waveform starts from the
exact periodic fixed point, so periodicity holds to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CellGeometry",
    "EnsembleParams",
    "stark_excitation_fraction",
    "rydberg_population",
    "image_charge_waveform",
    "cw_rate_for_occupancy",
]

# CODATA 2022, as in scipy.constants
ELEMENTARY_CHARGE = 1.602176634e-19   # C, exact


@dataclass(frozen=True)
class CellGeometry:
    """Parallel-plate cell of the surface electrons, and its stray C_p."""

    c_cell: float         # C_0, F
    s_over_d: float       # plate area / plate spacing, m
    delta_z: float        # excited-state displacement, m
    c_parasitic: float    # C_p, cable and input parasitics, F

    def __post_init__(self):
        if not (self.c_cell > 0 and self.s_over_d > 0 and self.delta_z > 0
                and self.c_parasitic > 0):
            raise ValueError("c_cell, s_over_d, delta_z and c_parasitic "
                             "must be positive")


@dataclass(frozen=True)
class EnsembleParams:
    """Electron ensemble and resonance parameters."""

    n_s: float            # areal density, m^-2
    rho22_target: float   # MW-on steady-state occupancy at resonance
    tau_relax: float      # excited-state relaxation time, s
    v_resonance: float    # bottom-plate voltage at resonance, V
    linewidth_v: float    # resonance FWHM in V_BC units, V

    def __post_init__(self):
        # zero electrons is the noise-only baseline
        if not self.n_s >= 0:
            raise ValueError("n_s must be non-negative")
        # the drive rate is cw_rate_for_occupancy(rho22_target, tau_relax),
        # which diverges at 0.5
        if not 0.0 <= self.rho22_target < 0.5:
            raise ValueError("rho22_target must lie in [0, 0.5)")
        if not self.tau_relax > 0:
            raise ValueError("tau_relax must be positive")
        if not self.linewidth_v > 0:
            raise ValueError("linewidth_v must be positive")


def cw_rate_for_occupancy(rho22: float, tau: float) -> float:
    """Pumping rate whose CW steady state r*tau/(1+2*r*tau) equals rho22."""
    if not 0.0 <= rho22 < 0.5:
        raise ValueError("steady-state occupancy must lie in [0, 0.5)")
    return rho22 / (tau * (1.0 - 2.0 * rho22))


def stark_excitation_fraction(v_bc, ens: EnsembleParams):
    """Lorentzian resonance factor, unit peak at the resonance voltage, of
    one V_BC or an array of them.

    A V_BC so far off resonance that x^2 overflows to inf gives 0.
    """
    with np.errstate(over="ignore"):
        x = 2.0 * (np.asarray(v_bc, dtype=float) - ens.v_resonance) \
            / ens.linewidth_v
        return 1.0 / (1.0 + x * x)


def rydberg_population(f_m, duty: float, ens: EnsembleParams,
                       excitation_scale, samples_per_period: int):
    """Periodic steady-state excited-state occupancy over one period of
    the microwave drive, pulsed at ``f_m`` with MW-on fraction ``duty``.

    Returns ``rho22`` for one modulation period, sample k at
    t = k / (samples_per_period * f_m) with the MW-on edge at t = 0; the
    waveform is exactly periodic, so a longer record is this one tiled.
    The drive rate is the ensemble's CW-calibrated rate,
    ``cw_rate_for_occupancy(ens.rho22_target, ens.tau_relax)``, scaled by
    ``excitation_scale``.  ``f_m`` and ``excitation_scale`` broadcast: the
    result has their shape plus a last axis of ``samples_per_period``.
    """
    f_m = np.asarray(f_m, dtype=float)[..., None]
    if not np.all(f_m > 0):
        raise ValueError("f_m must be positive")
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must lie in (0, 1)")
    tau = ens.tau_relax
    r = cw_rate_for_occupancy(ens.rho22_target, tau) \
        * np.asarray(excitation_scale, dtype=float)[..., None]
    if np.any(r < 0):
        raise ValueError("excitation rate must be non-negative")

    period = 1.0 / f_m
    t_on = duty * period
    t_off = period - t_on
    t = np.arange(samples_per_period) * (period / samples_per_period)

    tau_on = 1.0 / (2.0 * r + 1.0 / tau)
    rho_inf = r * tau_on
    a = np.exp(-t_on / tau_on)
    b = np.exp(-t_off / tau)
    # periodic fixed point at the start of the on segment, rho_inf (1 - a)
    # b / (1 - a b), with expm1 keeping both differences exact when tau is
    # long against the period
    rho0 = (rho_inf * np.expm1(-t_on / tau_on) * b
            / np.expm1(-t_on / tau_on - t_off / tau))
    rho_end_on = rho_inf + (rho0 - rho_inf) * a
    on = t < t_on
    # np.where evaluates both branches on every sample; the clamp keeps the
    # off-segment decay from overflowing on the on-samples when tau is short
    return np.where(
        on,
        rho_inf + (rho0 - rho_inf) * np.exp(-t / tau_on),
        rho_end_on * np.exp(-np.maximum(t - t_on, 0.0) / tau),
    )


def image_charge_waveform(rho22, geom: CellGeometry, n_s: float):
    """Induced image charge and coupled voltage for an occupancy waveform.

    delta_q = delta_z * e * n_s * rho22 * (S/D); v_ac = delta_q/(C_0 + C_p).
    Both are pointwise linear in rho22.
    """
    rho22 = np.asarray(rho22, dtype=float)
    delta_q = geom.delta_z * ELEMENTARY_CHARGE * n_s * rho22 * geom.s_over_d
    v_ac = delta_q / (geom.c_cell + geom.c_parasitic)
    return delta_q, v_ac
