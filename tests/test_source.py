import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants
from scipy.constants import e as Q_E, epsilon_0
from scipy.integrate import solve_ivp

from cryoreadout import source
from cryoreadout.source import (cw_rate_for_occupancy, image_charge_waveform,
                                rydberg_population, stark_excitation_fraction)

from conftest import dft_fundamental_rms, reference, rms_image_current


def _ensemble(**changes):
    return replace(reference().ensemble, **changes)


def _geometry(**changes):
    return replace(reference().geometry, **changes)


def test_validation():
    with pytest.raises(ValueError):
        _geometry(delta_z=0.0)
    with pytest.raises(ValueError):
        _geometry(c_parasitic=0.0)
    with pytest.raises(ValueError):
        _ensemble(rho22_target=0.6)
    with pytest.raises(ValueError):
        # the CW-calibrated drive rate diverges at 0.5
        _ensemble(rho22_target=0.5)
    with pytest.raises(ValueError):
        _ensemble(tau_relax=0.0)
    with pytest.raises(ValueError, match="n_s"):
        _ensemble(n_s=-1e12)
    # no electrons: the noise-only baseline
    assert _ensemble(n_s=0.0).n_s == 0.0
    # the drive is checked by the library function and by the [synthesis]
    # settings the sweeps read it from
    with pytest.raises(ValueError, match="f_m"):
        rydberg_population(0.0, 0.5, _ensemble(), 1.0, 64)
    with pytest.raises(ValueError, match="duty"):
        rydberg_population(1e5, 1.0, _ensemble(), 1.0, 64)
    with pytest.raises(ValueError, match="excitation rate"):
        rydberg_population(1e5, 0.5, _ensemble(), -1.0, 64)
    with pytest.raises(ValueError, match="f_m"):
        replace(reference().synthesis, f_m=0.0)
    with pytest.raises(ValueError, match="duty"):
        replace(reference().synthesis, duty=1.0)


def test_cw_rate_back_solve():
    r = cw_rate_for_occupancy(0.1, 1e-6)
    assert r == pytest.approx(0.1 / (1e-6 * 0.8), rel=1e-12)
    # CW fixed point of the rate equation reproduces the target
    assert r * 1e-6 / (1.0 + 2.0 * r * 1e-6) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        cw_rate_for_occupancy(0.5, 1e-6)


def test_stark_lineshape():
    ens = _ensemble()
    assert stark_excitation_fraction(11.6, ens) == 1.0
    assert stark_excitation_fraction(11.65, ens) == pytest.approx(0.5, rel=1e-12)
    assert stark_excitation_fraction(11.55, ens) == pytest.approx(0.5, rel=1e-12)


def test_stark_rigid_shift():
    ens = _ensemble()
    shifted = _ensemble(v_resonance=10.45)
    for v in np.linspace(10.0, 12.5, 11):
        assert stark_excitation_fraction(v - 1.15, shifted) == \
            pytest.approx(stark_excitation_fraction(v, ens), rel=1e-12)


def test_population_zero_rate():
    rho = rydberg_population(250e3, 0.5, _ensemble(rho22_target=0.0), 1.0, 64)
    assert np.all(rho == 0.0)


def test_population_saturation_and_free_decay():
    # slow modulation, very strong drive (r = 1e9/s, the CW occupancy
    # r tau / (1 + 2 r tau) at tau = 1 us): on-plateau at 0.5, off-segment
    # decays as exp(-t/tau)
    ens = _ensemble(tau_relax=1e-6, rho22_target=1000.0 / 2001.0)
    f_m = 1e3
    rho = rydberg_population(f_m, 0.5, ens, 1.0, 1024)
    t = np.arange(rho.size) / (1024 * f_m)
    on = t < 0.5e-3
    assert rho[on][-1] == pytest.approx(0.5, rel=1e-3)
    off = np.flatnonzero(~on)[10:50]
    ratios = rho[off][1:] / rho[off][:-1]
    dt = t[1] - t[0]
    np.testing.assert_allclose(ratios, math.exp(-dt / 1e-6), rtol=1e-9)


def test_population_bounds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f_m, duty = 10 ** rng.uniform(4, 7), rng.uniform(0.1, 0.9)
        ens = _ensemble(tau_relax=10 ** rng.uniform(-7, -5),
                        rho22_target=rng.uniform(0.0, 0.5))
        rho = rydberg_population(f_m, duty, ens, 1.0, 64)
        assert np.all(rho >= 0.0) and np.all(rho <= 0.5)


def test_population_high_frequency_ripple():
    ens = _ensemble()
    rho_lo = rydberg_population(250e3, 0.5, ens, 1.0, 256)
    rho_hi = rydberg_population(10e6, 0.5, ens, 1.0, 256)
    assert np.ptp(rho_hi) < 0.1 * np.ptp(rho_lo)


def _rho0_exact(f_m, duty, ens):
    """The periodic fixed point rho_inf (1 - a) b / (1 - a b) of the
    population at the MW-on edge, in 60-digit decimal arithmetic from the
    same float inputs."""
    with decimal.localcontext(decimal.Context(prec=60)):
        tau, rho22 = decimal.Decimal(ens.tau_relax), \
            decimal.Decimal(ens.rho22_target)
        r = rho22 / (tau * (1 - 2 * rho22))
        tau_on = 1 / (2 * r + 1 / tau)
        period = 1 / decimal.Decimal(f_m)
        t_on = decimal.Decimal(duty) * period
        a = (-t_on / tau_on).exp()
        b = (-(period - t_on) / tau).exp()
        return float(r * tau_on * (1 - a) * b / (1 - a * b))


@pytest.mark.parametrize("tau_relax_us", [1.0, 1e9, 1e12, 1e13, 1e18])
def test_population_fixed_point_long_relaxation(tau_relax_us):
    # a relaxation far longer than the period leaves 1 - a and 1 - a b
    # below the rounding of a and a b; the fixed point stays exact
    ens = _ensemble(tau_relax=tau_relax_us * 1e-6)
    duty = reference().synthesis.duty
    rho = rydberg_population(250e3, duty, ens, 1.0, 64)
    assert rho[0] == pytest.approx(_rho0_exact(250e3, duty, ens), rel=1e-14)


def test_population_matches_dense_integration():
    ens = _ensemble()
    f_m, duty = 250e3, 0.5
    r = cw_rate_for_occupancy(ens.rho22_target, ens.tau_relax)
    spp = 64
    rho = rydberg_population(f_m, duty, ens, 1.0, spp)
    t = np.arange(spp) / (spp * f_m)
    period = 1.0 / f_m
    t_on = duty * period

    def ode(t_, y):
        rate = r if (t_ % period) < t_on else 0.0
        return rate * (1.0 - 2.0 * y) - y / ens.tau_relax

    t_eval = np.append(t, period)
    sol = solve_ivp(ode, (0.0, period), [rho[0]], t_eval=t_eval, rtol=1e-11,
                    atol=1e-14, max_step=period / 256)
    np.testing.assert_allclose(sol.y[0][:-1], rho, rtol=1e-6, atol=1e-9)
    # periodic fixed point: one full period returns to the start
    assert sol.y[0][-1] == pytest.approx(rho[0], rel=1e-6)


def test_fundamental_crossover():
    ens = _ensemble()
    drive_r = cw_rate_for_occupancy(ens.rho22_target, ens.tau_relax)
    spp = 128

    def fundamental(f_m):
        rho = rydberg_population(f_m, 0.5, ens, 1.0, spp)
        return dft_fundamental_rms(rho, spp)

    # flat at low f_m, 1/f decay at high f_m
    assert fundamental(2e3) == pytest.approx(fundamental(4e3), rel=0.02)
    assert fundamental(20e6) == pytest.approx(0.5 * fundamental(10e6), rel=0.1)

    f_low = fundamental(2e3)
    grid = np.geomspace(1e4, 2e6, 60)
    vals = np.array([fundamental(f) for f in grid])
    k = int(np.argmax(vals < f_low / math.sqrt(2.0)))
    crossover = grid[k]
    tau_eff = ens.tau_relax / (1.0 + 2.0 * drive_r * ens.tau_relax * 0.5)
    predicted = 1.0 / (2.0 * math.pi * tau_eff)
    assert predicted / 3.0 <= crossover <= predicted * 3.0


def test_image_charge_values():
    ens = _ensemble()
    dq, v300 = image_charge_waveform(np.array([0.1]),
                                     _geometry(c_parasitic=300e-12), ens.n_s)
    exact = 35e-9 * Q_E * 1e12 * 0.1 * 5.65e-3
    assert dq[0] == pytest.approx(exact, rel=1e-12)
    assert dq[0] == pytest.approx(3.16e-18, rel=0.01)
    assert v300[0] == pytest.approx(10.5e-9, rel=0.03)
    _, v10 = image_charge_waveform(np.array([0.1]),
                                   _geometry(c_parasitic=10e-12), ens.n_s)
    assert v10[0] == pytest.approx(290e-9, rel=0.03)


def test_image_charge_linearity():
    geom = _geometry(c_parasitic=10e-12)
    rho = np.linspace(0.0, 0.4, 9)
    dq1, v1 = image_charge_waveform(rho, geom, 1e12)
    dq2, v2 = image_charge_waveform(2.0 * rho, geom, 1e12)
    dq3, _ = image_charge_waveform(rho, geom, 2e12)
    np.testing.assert_allclose(dq2, 2.0 * dq1, rtol=1e-15)
    np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-15)
    np.testing.assert_allclose(dq3, 2.0 * dq1, rtol=1e-15)


def test_constants_match_scipy():
    # source writes e as a literal; scipy.constants is the reference
    assert source.ELEMENTARY_CHARGE == scipy.constants.e


def test_rms_image_current():
    geom = _geometry()
    i = rms_image_current(100e3, geom, 1e12, 0.1)
    verbatim = (2.0 * math.pi * 100e3 * Q_E * 1e12 * 1e-12 * 35e-9 * 0.1) \
        / epsilon_0
    assert i == pytest.approx(verbatim, rel=1e-12)
    assert rms_image_current(200e3, geom, 1e12, 0.1) == \
        pytest.approx(2.0 * i, rel=1e-12)
    assert rms_image_current(100e3, geom, 1e12, 0.0) == 0.0
    with pytest.raises(ValueError):
        rms_image_current(0.0, geom, 1e12, 0.1)
    with pytest.raises(ValueError, match="rho22"):
        rms_image_current(100e3, geom, 1e12, -0.1)


def test_rms_current_charge_identity():
    # with C_0 = eps_0 * S/D the verbatim formula equals 2*pi*f*delta_q
    geom = _geometry(c_cell=epsilon_0 * 5.65e-3)
    dq, _ = image_charge_waveform(np.array([0.1]), geom, 1e12)
    i = rms_image_current(100e3, geom, 1e12, 0.1)
    assert i == pytest.approx(2.0 * math.pi * 100e3 * dq[0], rel=1e-12)
