import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cryoreadout import device
from cryoreadout.device import (ConvergenceError, OperatingPoint,
                                TransistorParams, calibrated_i_sat,
                                evaluate_dc, power_dissipation, small_signal,
                                solve_operating_point, thermal_budget_check)

from conftest import grid_search_operating_point, noiseless_family, reference

PARAMS = TransistorParams(i_sat=1e-12, v_teff=25e-3, v_early=124.0, beta_f=160.0)

# solved default bias point, frozen from an independent 40-digit run of the
# analytic back-substitution (calibrated_i_sat fixes i_c = 0.1 mA exactly)
DEFAULT_I_SAT = 6.1650833450086793e-08
DEFAULT_V_BE = 0.18460565499140901
DEFAULT_V_CE = 0.89758510779853434


def test_cutoff_limit():
    i_b, i_c = evaluate_dc(PARAMS, -2.0, 0.5)
    assert 0 < i_c < 1e-40
    assert 0 < i_b < i_c


def test_early_factor_doubles_at_v_early():
    _, ic0 = evaluate_dc(PARAMS, 0.3, 0.0)
    _, ic1 = evaluate_dc(PARAMS, 0.3, 124.0)
    assert ic1 == pytest.approx(2.0 * ic0, rel=1e-15)


def test_fitted_model_beta_point():
    # the v_be that draws i_b = 600 nA puts the bias-point model on the
    # synthetic family's 600 nA curve: i_c = 160 * 600 nA * (1 + v_ce/V_A)
    params = reference().transistor
    v_be = params.v_teff * math.log(600e-9 * params.beta_f / params.i_sat)
    curve = noiseless_family().forward[8]
    assert curve.label == pytest.approx(600e-9, rel=1e-12)
    v_ce = curve.voltage[180]
    assert v_ce == pytest.approx(0.9, rel=1e-12)
    i_b, i_c = evaluate_dc(params, v_be, v_ce)
    assert i_b == pytest.approx(600e-9, rel=1e-12)
    assert i_c == pytest.approx(96e-6 * (1.0 + 0.9 / 124.0), rel=1e-12)
    assert i_c == pytest.approx(curve.current[180], rel=1e-12)


def test_exponential_cap_rejected():
    with pytest.raises(ValueError, match="cap"):
        evaluate_dc(PARAMS, 25e-3 * 201, 0.5)


def test_negative_vce_rejected():
    with pytest.raises(ValueError):
        evaluate_dc(PARAMS, 0.3, -0.1)


def test_monotone_in_vbe_and_vce():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = TransistorParams(i_sat=10 ** rng.uniform(-14, -8),
                             v_teff=rng.uniform(0.01, 0.05),
                             v_early=rng.uniform(30, 300),
                             beta_f=rng.uniform(50, 300))
        vbe = np.sort(rng.uniform(0.1, 0.4, 8))
        ics = [evaluate_dc(p, v, 0.5)[1] for v in vbe]
        assert all(b > a for a, b in zip(ics, ics[1:]))
        vce = np.sort(rng.uniform(0.0, 2.0, 8))
        ics = [evaluate_dc(p, 0.3, v)[1] for v in vce]
        assert all(b > a for a, b in zip(ics, ics[1:]))


def test_param_validation():
    with pytest.raises(ValueError):
        TransistorParams(i_sat=-1e-12, v_teff=25e-3, v_early=124, beta_f=160)
    with pytest.raises(ValueError):
        TransistorParams(i_sat=1e-12, v_teff=0.0, v_early=124, beta_f=160)
    with pytest.raises(ValueError):
        TransistorParams(i_sat=1e-12, v_teff=25e-3, v_early=0.5, beta_f=160)
    with pytest.raises(ValueError):
        TransistorParams(i_sat=1e-12, v_teff=25e-3, v_early=124, beta_f=0.5)


def test_network_validation():
    net = reference().network
    with pytest.raises(ValueError):
        replace(net, r_collector=float("inf"))   # open collector: no DC path
    with pytest.raises(ValueError):
        replace(net, r_emitter=0.0)
    with pytest.raises(ValueError):
        replace(net, v_supply=-1.0)


def test_thevenin_properties():
    net = reference().network
    assert net.thevenin_voltage == pytest.approx(235.0 / 809.0, rel=1e-12)
    assert net.thevenin_resistance == pytest.approx(235e3 * 574e3 / 809e3,
                                                    rel=1e-12)


def test_solver_constructed_solution():
    # back-substitute a network/params pair whose exact solution is
    # (v_be, v_ce) = (0.95 V, 0.90 V)
    v_be, v_ce = 0.95, 0.90
    beta, v_early, v_teff = 160.0, 124.0, 25e-3
    i_c = 1e-3
    j = i_c / (1.0 + v_ce / v_early)     # the junction factor
    i_b = j / beta
    r_emitter, r_collector, r_lower = 10.0, 1e3, 10e3
    v_e = (i_b + i_c) * r_emitter
    v_supply = v_ce + i_c * r_collector + v_e
    v_b = v_be + v_e
    r_upper = (v_supply - v_b) / (v_b / r_lower + i_b)
    i_sat = j / math.exp(v_be / v_teff)

    net = replace(reference().network, v_supply=v_supply, r_upper=r_upper,
                  r_lower=r_lower, r_collector=r_collector,
                  r_emitter=r_emitter)
    params = TransistorParams(i_sat=i_sat, v_teff=v_teff, v_early=v_early,
                              beta_f=beta)
    op = solve_operating_point(net, params)
    assert op.v_be == pytest.approx(v_be, abs=1e-9)
    assert op.v_ce == pytest.approx(v_ce, abs=1e-9)
    assert op.i_c == pytest.approx(i_c, rel=1e-9)

    g_vbe, g_vce = grid_search_operating_point(net, params)
    assert abs(g_vbe - v_be) <= 1.5e-4
    assert abs(g_vce - v_ce) <= 1.5e-4


def test_solver_default_point():
    net = reference().network
    params = reference().transistor
    op = solve_operating_point(net, params)
    assert op.i_c == pytest.approx(1e-4, rel=0.2)
    assert op.v_ce == pytest.approx(0.9, rel=0.2)
    # frozen exact values (i_sat calibration makes the point analytic)
    assert params.i_sat == pytest.approx(DEFAULT_I_SAT, rel=1e-12)
    assert op.v_be == pytest.approx(DEFAULT_V_BE, rel=1e-9)
    assert op.v_ce == pytest.approx(DEFAULT_V_CE, rel=1e-9)
    assert op.i_b == pytest.approx(
        op.i_c / (params.beta_f * (1.0 + op.v_ce / params.v_early)), rel=1e-12)


def test_isat_doubling_shifts_vbe_by_vteff_ln2():
    # stiff divider (small Thevenin resistance) removes base-current
    # loading; strong emitter degeneration (i_c*r_e >> v_teff) pins i_c so
    # the junction absorbs the i_sat change entirely in v_be
    net = replace(reference().network, v_supply=20.0, r_upper=100.0,
                  r_lower=100.0, r_collector=100.0, r_emitter=1e4)
    p1 = TransistorParams(i_sat=1e-12, v_teff=25e-3, v_early=100.0, beta_f=200.0)
    p2 = TransistorParams(i_sat=2e-12, v_teff=25e-3, v_early=100.0, beta_f=200.0)
    op1 = solve_operating_point(net, p1)
    op2 = solve_operating_point(net, p2)
    assert op2.v_be - op1.v_be == pytest.approx(-25e-3 * math.log(2.0), rel=0.02)


def test_solver_failure_carries_residual():
    # saturated: with a 1 Mohm collector resistor the collector node cannot
    # balance with v_ce >= 0
    net = replace(reference().network, r_collector=1e6)
    with pytest.raises(ConvergenceError) as info:
        solve_operating_point(net, reference().transistor)
    assert info.value.residual is not None


@pytest.mark.parametrize("i_sat, v_teff, beta_f, message, sign", [
    # the junction cap 199 v_teff = 0.2 V sits below V_th = 0.29 V, and the
    # junction passes 26 fA there: the base node still sources current at
    # the bracket top
    (1e-100, 1e-3, 160.0, "no DC solution below the Thevenin voltage", 1.0),
    # v_teff = 10 kV: at -1 kV the junction still sinks 0.9 A
    (1.0, 1e4, 1.0, "base-node residual never changes sign", -1.0),
])
def test_solver_bracket_errors(i_sat, v_teff, beta_f, message, sign):
    params = TransistorParams(i_sat=i_sat, v_teff=v_teff, v_early=124.0,
                              beta_f=beta_f)
    with pytest.raises(ConvergenceError, match=message) as info:
        solve_operating_point(reference().network, params)
    assert sign * info.value.residual > 0


def test_solver_node_scale():
    # i_c = 9 nA through a 1.2 ohm collector resistor: the collector node's
    # currents are of order v_supply/r_collector = 1 A, so rounding alone
    # leaves a residual of 3e-17 A there, above 1e-9 |i_c|
    net = replace(reference().network, v_supply=1.2, r_upper=5e5,
                  r_lower=290.0, r_collector=1.2, r_emitter=1000.0)
    params = TransistorParams(i_sat=5.6e-9, v_teff=0.5, v_early=1.9,
                              beta_f=6.3)
    op = solve_operating_point(net, params)
    g_vbe, g_vce = grid_search_operating_point(net, params, step=1e-5)
    assert abs(g_vbe - op.v_be) <= 1.5e-5
    assert abs(g_vce - op.v_ce) <= 1.5e-5


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(v_supply=_log_uniform(1e-2, 1e2), r_upper=_log_uniform(1e1, 1e8),
       r_lower=_log_uniform(1e1, 1e8), r_collector=_log_uniform(1.0, 1e6),
       r_emitter=_log_uniform(1e-2, 1e4), i_sat=_log_uniform(1e-20, 1e-3),
       v_teff=_log_uniform(1e-3, 1.0), v_early=_log_uniform(1.0, 1e4),
       beta_f=_log_uniform(1.0, 1e5))
# cut-off: the Thevenin voltage (10 uV) is far below v_teff
@example(v_supply=0.01, r_upper=1e6, r_lower=1e3, r_collector=1e3,
         r_emitter=24.0, i_sat=DEFAULT_I_SAT, v_teff=25e-3, v_early=124.0,
         beta_f=160.0)
# saturated: the collector node cannot balance with v_ce >= 0
@example(v_supply=1.0, r_upper=574e3, r_lower=235e3, r_collector=1e6,
         r_emitter=24.0, i_sat=DEFAULT_I_SAT, v_teff=25e-3, v_early=124.0,
         beta_f=160.0)
def test_solver_converges_or_reports_residual(v_supply, r_upper, r_lower,
                                              r_collector, r_emitter, i_sat,
                                              v_teff, v_early, beta_f):
    net = replace(reference().network, v_supply=v_supply, r_upper=r_upper,
                  r_lower=r_lower, r_collector=r_collector,
                  r_emitter=r_emitter)
    params = TransistorParams(i_sat=i_sat, v_teff=v_teff, v_early=v_early,
                              beta_f=beta_f)
    try:
        op = solve_operating_point(net, params)
    except ConvergenceError as exc:
        assert exc.residual is not None
        return
    assert op.v_ce >= 0
    f1, f2, i_b, i_c = device._residuals(net, params, op.v_be, op.v_ce)
    assert (i_b, i_c) == (op.i_b, op.i_c)
    # each node to DC_TOL of the larger of |i_c| and its own current scale
    assert abs(f1) < device.DC_TOL * max(abs(i_c), v_supply / r_upper)
    assert abs(f2) < device.DC_TOL * max(abs(i_c), v_supply / r_collector)


def test_small_signal_values():
    op = OperatingPoint(v_be=0.95, v_ce=0.9, i_b=0.625e-6, i_c=1e-4)
    ss = small_signal(op, TransistorParams(i_sat=1e-12, v_teff=25e-3,
                                           v_early=124.0, beta_f=160.0))
    assert ss.g_m == pytest.approx(4e-3, rel=1e-12)
    assert ss.r_pi == pytest.approx(40e3, rel=1e-12)
    assert ss.r_o == pytest.approx((124.0 + 0.9) / 1e-4, rel=1e-12)


def test_small_signal_rejects_nonpositive_ic():
    op = OperatingPoint(v_be=0.1, v_ce=0.5, i_b=0.0, i_c=0.0)
    with pytest.raises(ValueError):
        small_signal(op, PARAMS)


def test_power_dissipation_examples():
    assert power_dissipation(OperatingPoint(0.0, 0.0, 0.0, 0.0)) == 0.0
    assert power_dissipation(OperatingPoint(0.0, 1.0, 0.0, 1e-3)) == \
        pytest.approx(1e-3, rel=1e-15)
    p = power_dissipation(OperatingPoint(v_be=0.95, v_ce=0.9, i_b=0.6e-6,
                                         i_c=1e-4))
    assert p == pytest.approx(90.57e-6, rel=1e-6)   # dominated by i_c*v_ce


def test_thermal_budget():
    ok, margin, margin_ok = thermal_budget_check(90e-6,
                                                 device.STILL_COOLING_POWER)
    assert ok and margin_ok
    assert margin == pytest.approx(32.91e-3, rel=1e-3)
    ok, margin, margin_ok = thermal_budget_check(
        90e-6, device.MIXING_CHAMBER_COOLING_POWER)
    assert ok and not margin_ok          # fails the 10x margin requirement
    assert margin == pytest.approx(330e-6, rel=1e-3)
    ok, _, _ = thermal_budget_check(0.0, 0.0)
    assert not ok                        # strict inequality at the boundary
    with pytest.raises(ValueError):
        thermal_budget_check(-1e-6, 1e-3)


# i_c_target such that p = 1 + (v_supply - i_c (r_c + r_e))/v_early is 0.01
# for the reference network: the junction factor's quadratic has no real root
NO_ROOT_TARGET = (125.0 - 1.24) / 1024.0


@settings(max_examples=300, deadline=None)
@given(v_teff=st.floats(0.015, 0.04), beta_f=st.floats(50.0, 300.0),
       v_early=st.floats(30.0, 300.0), v_supply=st.floats(0.7, 1.2),
       r_upper=_log_uniform(10 ** 4.5, 10 ** 5.9),
       r_lower=_log_uniform(10 ** 4.5, 10 ** 5.7),
       r_collector=_log_uniform(10 ** 2.7, 10 ** 3.7),
       r_emitter=st.floats(5.0, 50.0), i_c_target=_log_uniform(1e-6, 1.0))
@example(v_teff=25e-3, beta_f=160.0, v_early=124.0, v_supply=1.0,
         r_upper=574e3, r_lower=235e3, r_collector=1e3, r_emitter=24.0,
         i_c_target=NO_ROOT_TARGET)
def test_calibrated_i_sat_biases_at_target(v_teff, beta_f, v_early, v_supply,
                                           r_upper, r_lower, r_collector,
                                           r_emitter, i_c_target):
    # over c08-style networks and targets from 1 uA to 1 A: the calibrated
    # device biases at the target, or the target is rejected as unreachable
    # (never by a math domain error)
    net = replace(reference().network, v_supply=v_supply, r_upper=r_upper,
                  r_lower=r_lower, r_collector=r_collector,
                  r_emitter=r_emitter)
    try:
        i_sat = calibrated_i_sat(net, v_teff, v_early, beta_f, i_c_target)
    except ValueError as exc:
        assert "not reachable in this network" in str(exc)
        return
    op = solve_operating_point(net, TransistorParams(
        i_sat=i_sat, v_teff=v_teff, v_early=v_early, beta_f=beta_f))
    assert op.i_c == pytest.approx(i_c_target, rel=1e-9)


def test_calibrated_i_sat_unreachable_target():
    for target in (1.5e-3,            # drives v_ce below zero
                   NO_ROOT_TARGET,    # no real junction factor
                   0.13):             # p < 0
        with pytest.raises(ValueError, match="not reachable in this network"):
            calibrated_i_sat(reference().network, 25e-3, 124.0, 160.0,
                             i_c_target=target)
    # v_be / v_teff beyond the junction law's cap: exp() would overflow
    with pytest.raises(ValueError, match="exceeds cap"):
        calibrated_i_sat(reference().network, 1e-6, 124.0, 160.0,
                         i_c_target=1e-4)
    for target in (0.0, -1e-3):
        with pytest.raises(ValueError, match="i_c_target must be positive"):
            calibrated_i_sat(reference().network, 25e-3, 124.0, 160.0,
                             i_c_target=target)
