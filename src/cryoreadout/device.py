"""Nonlinear HBT device model and DC bias-point analysis.

The transistor is modeled with a single exponential junction law plus a
linear Early-effect factor and a constant forward current gain:

    i_c = i_sat * exp(v_be / v_teff) * (1 + v_ce / v_early)
    i_b = i_c / beta_f

The effective thermal voltage ``v_teff`` is a fitted quantity (cryogenic
devices do not follow kT/q), defaulting to 25 mV.  The common-emitter bias
network is solved for its DC operating point with a damped Newton iteration
on the two-node Kirchhoff system in (v_be, v_ce).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TransistorParams",
    "BiasNetwork",
    "OperatingPoint",
    "SmallSignalParams",
    "ConvergenceError",
    "evaluate_dc",
    "solve_operating_point",
    "small_signal",
    "power_dissipation",
    "thermal_budget_check",
    "calibrated_i_sat",
    "default_network",
    "default_transistor",
]

# exp() argument cap for the junction law; beyond this the model is rejected
EXP_CAP = 200.0

# cooling powers of the two candidate mounting plates, W
STILL_COOLING_POWER = 33e-3
MIXING_CHAMBER_COOLING_POWER = 420e-6


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class TransistorParams:
    """Fitted large-signal device parameters."""

    i_sat: float      # saturation current, A
    v_teff: float     # effective thermal voltage, V
    v_early: float    # Early voltage, V
    beta_f: float     # forward current gain

    def __post_init__(self):
        if not (self.i_sat > 0 and self.v_teff > 0):
            raise ValueError("i_sat and v_teff must be positive")
        if not self.v_early >= 1.0:
            raise ValueError("v_early below 1 V is unphysical for these devices")
        if not self.beta_f >= 1.0:
            raise ValueError("beta_f must be >= 1")


@dataclass(frozen=True)
class BiasNetwork:
    """Common-emitter bias network component values."""

    v_supply: float = 1.0        # V
    r_upper: float = 574e3       # supply-to-base divider resistor, ohm
    r_lower: float = 235e3       # base-to-ground divider resistor, ohm
    r_collector: float = 1e3     # ohm
    r_emitter: float = 24.0      # ohm
    c_in: float = 12e-9          # input coupling, F
    c_out: float = 12e-9         # output coupling, F
    c_bypass: float = 220e-9     # emitter bypass, F

    def __post_init__(self):
        vals = (self.v_supply, self.r_upper, self.r_lower, self.r_collector,
                self.r_emitter, self.c_in, self.c_out, self.c_bypass)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError("all bias network values must be positive and finite")

    @property
    def thevenin_voltage(self):
        return self.v_supply * self.r_lower / (self.r_lower + self.r_upper)

    @property
    def thevenin_resistance(self):
        return self.r_lower * self.r_upper / (self.r_lower + self.r_upper)


@dataclass(frozen=True)
class OperatingPoint:
    v_be: float
    v_ce: float
    i_b: float
    i_c: float


@dataclass(frozen=True)
class SmallSignalParams:
    """Hybrid-pi parameters derived from an operating point."""

    g_m: float    # transconductance, S
    r_pi: float   # base-emitter resistance, ohm
    r_o: float    # output resistance, ohm


def evaluate_dc(params: TransistorParams, v_be: float, v_ce: float):
    """Evaluate the large-signal model, returning ``(i_b, i_c)``.

    Raises ValueError if v_ce is negative or v_be exceeds the exponential
    overflow cap.
    """
    if v_ce < 0:
        raise ValueError(f"v_ce must be non-negative, got {v_ce}")
    x = v_be / params.v_teff
    if x > EXP_CAP:
        raise ValueError(
            f"v_be/v_teff = {x:.1f} exceeds cap {EXP_CAP:.0f} (exponential overflow)")
    i_c = params.i_sat * math.exp(x) * (1.0 + v_ce / params.v_early)
    return i_c / params.beta_f, i_c


def _residuals(network: BiasNetwork, params: TransistorParams, v_be, v_ce):
    """Kirchhoff current residuals (base node, collector node), in amperes."""
    i_b, i_c = evaluate_dc(params, v_be, v_ce)
    v_e = (i_b + i_c) * network.r_emitter
    v_b = v_be + v_e
    v_c = v_ce + v_e
    f1 = (network.v_supply - v_b) / network.r_upper - v_b / network.r_lower - i_b
    f2 = (network.v_supply - v_c) / network.r_collector - i_c
    return f1, f2, i_b, i_c


def _collector_loop(network: BiasNetwork, params: TransistorParams, v_be):
    """Solve the collector/emitter loop analytically for a given v_be.

    With the junction factor A = i_sat*exp(v_be/v_teff) fixed, the Early
    term makes i_c linear in v_ce, and v_ce is linear in i_c through the
    collector and emitter resistors, so i_c follows in closed form.  v_ce
    is clamped at zero (deep saturation) when the loop would drive it
    negative.
    """
    a = params.i_sat * math.exp(v_be / params.v_teff)
    k_e = (1.0 + 1.0 / params.beta_f)
    r_loop = network.r_collector + network.r_emitter * k_e
    i_c = a * (1.0 + network.v_supply / params.v_early) / \
        (1.0 + a * r_loop / params.v_early)
    v_ce = network.v_supply - i_c * r_loop
    if v_ce < 0.0:
        v_ce = 0.0
        i_c = a
    return i_c, v_ce


def _initial_guess(network: BiasNetwork, params: TransistorParams):
    """Bisect the base-node residual, which is strictly decreasing in v_be."""
    def base_residual(v_be):
        i_c, _ = _collector_loop(network, params, v_be)
        i_b = i_c / params.beta_f
        v_b = v_be + (i_b + i_c) * network.r_emitter
        return (network.v_supply - v_b) / network.r_upper \
            - v_b / network.r_lower - i_b

    hi = min(network.thevenin_voltage, 0.995 * EXP_CAP * params.v_teff)
    lo = hi - max(1.0, abs(hi))
    if base_residual(hi) > 0:
        raise ConvergenceError("no DC solution below the Thevenin voltage")
    while base_residual(lo) < 0:
        lo -= max(1.0, abs(lo))
        if lo < -1e3:
            raise ConvergenceError("base-node residual never changes sign")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if base_residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    v_be = 0.5 * (lo + hi)
    _, v_ce = _collector_loop(network, params, v_be)
    return v_be, v_ce


def solve_operating_point(network: BiasNetwork, params: TransistorParams,
                          tol: float = 1e-9, max_iter: int = 100) -> OperatingPoint:
    """Solve the bias network for its DC operating point.

    A 1-D reduction (analytic collector loop + bisection on the base node)
    provides the starting point; a damped Newton iteration (step halving)
    on (v_be, v_ce) then drives both node residuals below ``tol`` relative
    to i_c.  Deterministic for fixed inputs.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    re = network.r_emitter
    g_div = 1.0 / network.r_upper + 1.0 / network.r_lower

    v_be, v_ce = _initial_guess(network, params)

    def clamp(vbe, vce):
        vbe = min(vbe, 0.995 * EXP_CAP * params.v_teff)
        vce = max(vce, 0.0)
        return vbe, vce

    f1, f2, i_b, i_c = _residuals(network, params, v_be, v_ce)

    for _ in range(max_iter):
        scale = max(abs(i_c), 1e-30)
        if abs(f1) < tol * scale and abs(f2) < tol * scale:
            return OperatingPoint(v_be=v_be, v_ce=v_ce, i_b=i_b, i_c=i_c)

        # analytic Jacobian of (f1, f2) wrt (v_be, v_ce)
        dic_dvbe = i_c / params.v_teff
        dic_dvce = i_c / (params.v_early + v_ce)
        dib_dvbe = dic_dvbe / params.beta_f
        dib_dvce = dic_dvce / params.beta_f
        die_dvbe = dib_dvbe + dic_dvbe
        die_dvce = dib_dvce + dic_dvce
        # v_b = v_be + re*i_e, so d f1/d vbe = -(1 + re*die)*g_div - dib
        j11 = -(1.0 + re * die_dvbe) * g_div - dib_dvbe
        j12 = -(re * die_dvce) * g_div - dib_dvce
        j21 = -(re * die_dvbe) / network.r_collector - dic_dvbe
        j22 = -(1.0 + re * die_dvce) / network.r_collector - dic_dvce

        det = j11 * j22 - j12 * j21
        if det == 0 or not math.isfinite(det):
            raise ConvergenceError("singular Jacobian", residual=max(abs(f1), abs(f2)))
        dvbe = -(f2 * j12 - f1 * j22) / det
        dvce = -(f1 * j21 - f2 * j11) / det

        norm0 = f1 * f1 + f2 * f2
        step = 1.0
        for _halve in range(60):
            vbe_t, vce_t = clamp(v_be + step * dvbe, v_ce + step * dvce)
            try:
                f1_t, f2_t, ib_t, ic_t = _residuals(network, params, vbe_t, vce_t)
            except ValueError:
                step *= 0.5
                continue
            if f1_t * f1_t + f2_t * f2_t < norm0:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "step halving stalled", residual=max(abs(f1), abs(f2)))
        v_be, v_ce, f1, f2, i_b, i_c = vbe_t, vce_t, f1_t, f2_t, ib_t, ic_t

    raise ConvergenceError(
        f"no convergence after {max_iter} iterations",
        residual=max(abs(f1), abs(f2)))


def small_signal(op: OperatingPoint, params: TransistorParams) -> SmallSignalParams:
    """Linearize at an operating point: g_m = i_c/v_teff, r_pi = beta/g_m,
    r_o = (v_early + v_ce)/i_c."""
    if op.i_c <= 0:
        raise ValueError("i_c must be positive to linearize")
    g_m = op.i_c / params.v_teff
    return SmallSignalParams(
        g_m=g_m,
        r_pi=params.beta_f / g_m,
        r_o=(params.v_early + op.v_ce) / op.i_c,
    )


def power_dissipation(op: OperatingPoint) -> float:
    """Static dissipation i_c*v_ce + i_b*v_be, W."""
    return op.i_c * op.v_ce + op.i_b * op.v_be


def thermal_budget_check(p_dissipated: float, p_cooling: float,
                         margin_ratio: float = 10.0):
    """Check dissipation against a plate's cooling power.

    Returns ``(ok, margin, margin_ok)`` where ``ok`` is the strict budget
    check, ``margin`` = p_cooling - p_dissipated, and ``margin_ok`` requires
    p_cooling >= margin_ratio * p_dissipated.
    """
    if p_dissipated < 0 or p_cooling < 0:
        raise ValueError("powers must be non-negative")
    ok = p_dissipated < p_cooling
    margin = p_cooling - p_dissipated
    margin_ok = ok and p_cooling >= margin_ratio * p_dissipated
    return ok, margin, margin_ok


def calibrated_i_sat(network: BiasNetwork, v_teff: float, v_early: float,
                     beta_f: float, i_c_target: float = 1e-4) -> float:
    """Back-solve the saturation current so the network biases at i_c_target.

    The bias network fixes (v_be, v_ce) once i_c is prescribed, so i_sat
    follows directly from the junction law.
    """
    i_b = i_c_target / beta_f
    i_e = i_c_target + i_b
    v_e = i_e * network.r_emitter
    v_b = network.thevenin_voltage - i_b * network.thevenin_resistance
    v_be = v_b - v_e
    v_ce = network.v_supply - i_c_target * network.r_collector - v_e
    if v_ce <= 0 or v_be <= 0:
        raise ValueError("target collector current is not reachable in this network")
    return i_c_target / (math.exp(v_be / v_teff) * (1.0 + v_ce / v_early))


def default_network() -> BiasNetwork:
    return BiasNetwork()


def default_transistor(network: BiasNetwork | None = None,
                       v_teff: float = 25e-3, v_early: float = 124.0,
                       beta_f: float = 160.0,
                       i_c_target: float = 1e-4) -> TransistorParams:
    """Paper-style fitted parameters: i_sat calibrated so the default
    network solves to the nominal 0.1 mA bias point."""
    net = network if network is not None else default_network()
    return TransistorParams(
        i_sat=calibrated_i_sat(net, v_teff, v_early, beta_f, i_c_target),
        v_teff=v_teff, v_early=v_early, beta_f=beta_f)
