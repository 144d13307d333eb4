"""Nonlinear HBT device model and DC bias-point analysis.

The transistor follows the forward-active Gummel-Poon law (I. Getreu,
*Modeling the Bipolar Transistor*, 1976): with the junction factor
j = i_sat * exp(v_be / v_teff),

    i_b = j / beta_f
    i_c = j * (1 + v_ce / v_early)

so the Early factor tilts the collector current alone: beta_f is the
current gain at v_ce -> 0, which is how fit-iv reports it, and the
small-signal r_pi is v_teff/i_b.  `forward_currents` is the one statement
of this law; the bias point, the synthetic IV files and their fits all use
it.  The effective thermal voltage ``v_teff`` is a fitted quantity
(cryogenic devices do not follow kT/q).  The common-emitter bias network
is solved for its DC operating point by bisection on the exact 1-D
reduction, checked by the two-node residuals: for fixed v_be the collector
loop is linear in v_ce and solves in closed form, which leaves one
monotone base-node equation in v_be; its bisection walks the base-node
residual of the two-node Kirchhoff residuals that then check the result.
"""

from __future__ import annotations

import math

from . import Record

__all__ = [
    "TransistorParams",
    "BiasNetwork",
    "OperatingPoint",
    "SmallSignalParams",
    "ConvergenceError",
    "forward_currents",
    "evaluate_dc",
    "solve_operating_point",
    "small_signal",
    "power_dissipation",
    "thermal_budget_check",
    "calibrated_i_sat",
]

# exp() argument cap for the junction law; beyond this the model is rejected
EXP_CAP = 200.0

# cooling powers of the two candidate mounting plates, W
STILL_COOLING_POWER = 33e-3
MIXING_CHAMBER_COOLING_POWER = 420e-6

# a plate has margin when its cooling power is this many times the dissipation
THERMAL_MARGIN_RATIO = 10.0

# relative tolerance of the DC solve's two-node residual check
DC_TOL = 1e-9


class ConvergenceError(ArithmeticError):
    """The DC bias point (bisection on the exact 1-D reduction, checked by
    the two-node residuals) missed its tolerance.  ``residual`` holds the
    final residual if known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TransistorParams(Record):
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


class BiasNetwork(Record):
    """Common-emitter bias network component values."""

    v_supply: float       # V
    r_upper: float        # supply-to-base divider resistor, ohm
    r_lower: float        # base-to-ground divider resistor, ohm
    r_collector: float    # ohm
    r_emitter: float      # ohm
    c_in: float           # input coupling, F
    c_out: float          # output coupling, F
    c_bypass: float       # emitter bypass, F

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


class OperatingPoint(Record):
    """The DC bias point: junction voltages and terminal currents."""

    v_be: float
    v_ce: float
    i_b: float
    i_c: float


class SmallSignalParams(Record):
    """Hybrid-pi parameters derived from an operating point."""

    g_m: float    # transconductance, S
    r_pi: float   # base-emitter resistance, ohm
    r_o: float    # output resistance, ohm


def forward_currents(params: TransistorParams, j, v_ce):
    """The forward-active law at junction factor ``j`` = i_sat*exp(v_be/v_teff):
    ``(i_b, i_c)`` = (j/beta_f, j*(1 + v_ce/v_early)).  Works on arrays."""
    return j / params.beta_f, j * (1.0 + v_ce / params.v_early)


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
            f"v_be/v_teff = {x:.4g} exceeds cap {EXP_CAP:.0f} (exponential overflow)")
    return forward_currents(params, params.i_sat * math.exp(x), v_ce)


def _residuals(network: BiasNetwork, params: TransistorParams, v_be, v_ce):
    """Kirchhoff current residuals (base node, collector node), in amperes."""
    i_b, i_c = evaluate_dc(params, v_be, v_ce)
    v_e = (i_b + i_c) * network.r_emitter
    v_b = v_be + v_e
    v_c = v_ce + v_e
    f1 = (network.v_supply - v_b) / network.r_upper - v_b / network.r_lower - i_b
    f2 = (network.v_supply - v_c) / network.r_collector - i_c
    return f1, f2, i_b, i_c


def _collector_v_ce(network: BiasNetwork, params: TransistorParams, v_be):
    """Solve the collector/emitter loop analytically for v_ce at a given v_be.

    With the junction factor j fixed, i_b = j/beta_f is fixed and i_c is
    linear in v_ce, while v_ce is linear in i_c through the collector and
    emitter resistors, so v_ce follows in closed form.  v_ce is clamped at
    zero (deep saturation) when the loop would drive it negative.
    """
    j = params.i_sat * math.exp(v_be / params.v_teff)
    r_loop = network.r_collector + network.r_emitter
    v_ce = (network.v_supply - j * (r_loop + network.r_emitter / params.beta_f)) \
        / (1.0 + j * r_loop / params.v_early)
    return max(v_ce, 0.0)


def solve_operating_point(network: BiasNetwork,
                          params: TransistorParams) -> OperatingPoint:
    """Solve the bias network for its DC operating point.

    Bisection on the exact 1-D reduction: v_be is bisected down to adjacent
    floats on [-1 kV, min(V_th, 0.995 EXP_CAP v_teff)], walking the
    base-node residual of ``_residuals`` (strictly decreasing in v_be) at
    the collector loop's closed-form v_ce.  The two-node residuals then
    check the point: each must lie below ``DC_TOL`` times the larger of
    |i_c| and that node's own current scale (v_supply/r_upper for the base
    node, v_supply/r_collector for the collector node), else
    ``ConvergenceError`` carries the larger residual.  A node's residual is
    a difference of currents of that scale, so rounding alone leaves it a
    few ulps of the scale.  Deterministic for fixed inputs.
    """
    def base_residual(v_be):
        return _residuals(network, params, v_be,
                          _collector_v_ce(network, params, v_be))[0]

    lo = -1e3
    hi = min(network.thevenin_voltage, 0.995 * EXP_CAP * params.v_teff)
    f_hi = base_residual(hi)
    if f_hi > 0:
        raise ConvergenceError("no DC solution below the Thevenin voltage",
                               residual=f_hi)
    f_lo = base_residual(lo)
    if f_lo < 0:
        raise ConvergenceError("base-node residual never changes sign",
                               residual=f_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if base_residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    v_be = 0.5 * (lo + hi)
    v_ce = _collector_v_ce(network, params, v_be)
    f1, f2, i_b, i_c = _residuals(network, params, v_be, v_ce)
    limit1 = DC_TOL * max(abs(i_c), network.v_supply / network.r_upper)
    limit2 = DC_TOL * max(abs(i_c), network.v_supply / network.r_collector)
    if abs(f1) < limit1 and abs(f2) < limit2:
        return OperatingPoint(v_be=v_be, v_ce=v_ce, i_b=i_b, i_c=i_c)
    raise ConvergenceError(
        f"node residuals {abs(f1):.3g} A (base), {abs(f2):.3g} A (collector) "
        f"not below {limit1:.3g} A, {limit2:.3g} A",
        residual=max(abs(f1), abs(f2)))


def small_signal(op: OperatingPoint, params: TransistorParams) -> SmallSignalParams:
    """Linearize at an operating point: g_m = i_c/v_teff, r_pi = v_teff/i_b,
    r_o = (v_early + v_ce)/i_c."""
    if not (op.i_c > 0 and op.i_b > 0):
        raise ValueError("i_c and i_b must be positive to linearize")
    g_m = op.i_c / params.v_teff
    return SmallSignalParams(
        g_m=g_m,
        r_pi=params.v_teff / op.i_b,
        r_o=(params.v_early + op.v_ce) / op.i_c,
    )


def power_dissipation(op: OperatingPoint) -> float:
    """Static dissipation i_c*v_ce + i_b*v_be, W."""
    return op.i_c * op.v_ce + op.i_b * op.v_be


def thermal_budget_check(p_dissipated: float, p_cooling: float):
    """Check dissipation against a plate's cooling power.

    Returns ``(ok, margin, margin_ok)`` where ``ok`` is the strict budget
    check, ``margin`` = p_cooling - p_dissipated, and ``margin_ok`` requires
    p_cooling >= THERMAL_MARGIN_RATIO * p_dissipated.
    """
    if p_dissipated < 0 or p_cooling < 0:
        raise ValueError("powers must be non-negative")
    ok = p_dissipated < p_cooling
    margin = p_cooling - p_dissipated
    margin_ok = ok and p_cooling >= THERMAL_MARGIN_RATIO * p_dissipated
    return ok, margin, margin_ok


def calibrated_i_sat(network: BiasNetwork, v_teff: float, v_early: float,
                     beta_f: float, i_c_target: float) -> float:
    """Back-solve the saturation current so the network biases at i_c_target.

    With i_c prescribed, the collector loop and the law make the junction
    factor j the root of (r_emitter/(beta_f v_early)) j^2 - p j + i_c = 0,
    p = 1 + (v_supply - i_c (r_collector + r_emitter))/v_early; the smaller
    root, taken in its stable form, fixes (v_be, v_ce), and i_sat follows
    from j = i_sat*exp(v_be/v_teff).
    """
    if not i_c_target > 0:
        raise ValueError(f"i_c_target must be positive, got {i_c_target:g} A")
    p = 1.0 + (network.v_supply - i_c_target
               * (network.r_collector + network.r_emitter)) / v_early
    q = network.r_emitter / (beta_f * v_early)
    d = 1.0 - 4.0 * q * i_c_target / p / p if p > 0 else -1.0
    # with no real root j is NaN, and so are v_be and v_ce below
    j = 2.0 * i_c_target / (p * (1.0 + math.sqrt(d))) if d >= 0 else math.nan
    i_b = j / beta_f
    v_e = (i_c_target + i_b) * network.r_emitter
    v_be = network.thevenin_voltage - i_b * network.thevenin_resistance - v_e
    v_ce = network.v_supply - i_c_target * network.r_collector - v_e
    if not (v_ce > 0 and v_be > 0):
        raise ValueError("target collector current is not reachable in this network")
    x = v_be / v_teff
    if x > EXP_CAP:
        raise ValueError(f"v_be/v_teff = {x:.4g} at the target current "
                         f"exceeds cap {EXP_CAP:.0f}")
    return j / math.exp(x)
