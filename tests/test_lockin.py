import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from cryoreadout import lockin, replace
from cryoreadout.cli import NormalStream
from cryoreadout.config import load_config
from cryoreadout.lockin import demodulate, sweep_fm, sweep_vbc, synthesize
from cryoreadout.source import image_charge_waveform, rydberg_population
from conftest import (SETTLED_TIME_CONSTANTS, UNIT_CHAIN, dft_fundamental_rms,
                      lockin_noise_covariance, reference, resolve_sampling,
                      sweep_point, time_domain_point)

FS = 4e6
F_REF = 1e5
TAU = 2e-4
ORDER = reference().synthesis.filter_order


@functools.cache
def _reference_chain():
    return reference().amplifier_chain()


def _synthesis(**changes):
    return replace(reference().synthesis, **changes)


def _record(duration=25 * TAU):
    n = int(round(duration * FS))
    return np.arange(n) / FS


def test_demod_sine():
    t = _record()
    res = demodulate(np.sin(2 * math.pi * F_REF * t + 0.3), F_REF, TAU,
                     ORDER, FS)
    assert res.amplitude_r == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
    assert res.phase == pytest.approx(0.3, abs=1e-4)


def test_demod_dc_rejected():
    t = _record()
    res = demodulate(np.full(t.size, 0.7), F_REF, TAU, ORDER, FS)
    assert res.amplitude_r < 1e-6


def test_demod_unit_square_wave():
    t = _record()
    x = (np.sin(2 * math.pi * F_REF * t) >= 0).astype(float)   # 0/1 square
    res = demodulate(x, F_REF, TAU, ORDER, FS)
    # continuous-time fundamental; sampling at 40/period shifts it ~0.2%
    assert res.amplitude_r == pytest.approx((2.0 / math.pi) / math.sqrt(2.0),
                                            rel=5e-3)
    spp = int(FS / F_REF)
    n_keep = (t.size // spp) * spp
    assert res.amplitude_r == pytest.approx(
        dft_fundamental_rms(x[:n_keep], spp), rel=1e-3)


def test_demod_input_validation():
    t = _record()
    x = np.sin(2 * math.pi * F_REF * t)
    with pytest.raises(TypeError):
        demodulate(x, F_REF, TAU)     # filter order and sample rate required
    with pytest.raises(ValueError, match="unresolvable"):
        demodulate(x, FS / 2.0, TAU, ORDER, FS)
    with pytest.raises(ValueError, match="20 time constants"):
        demodulate(x[: int(5 * TAU * FS)], F_REF, TAU, ORDER, FS)


def test_demod_linearity():
    t = _record()
    x = np.sin(2 * math.pi * F_REF * t)
    r1 = demodulate(x, F_REF, TAU, ORDER, FS).amplitude_r
    r2 = demodulate(3.0 * x, F_REF, TAU, ORDER, FS).amplitude_r
    assert r2 == pytest.approx(3.0 * r1, rel=1e-12)


def test_demod_phase_invariance():
    t = _record()
    a = demodulate(np.sin(2 * math.pi * F_REF * t + 0.2), F_REF, TAU,
                   ORDER, FS)
    b = demodulate(np.sin(2 * math.pi * F_REF * t + 0.9), F_REF, TAU,
                   ORDER, FS)
    assert b.amplitude_r == pytest.approx(a.amplitude_r, rel=1e-6)
    assert b.phase - a.phase == pytest.approx(0.7, abs=1e-6)


def test_lfilter_is_scipys():
    # lockin imports lfilter on first lookup of the module attribute
    import scipy.signal
    assert lockin.lfilter is scipy.signal.lfilter


def test_unknown_module_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        lockin.no_such_name


def test_demodulate_calls_module_lfilter(monkeypatch):
    # demodulate runs whatever lockin.lfilter is at call time, which is how
    # a wrapper set on the module (the benchmark's lfilter span) sees it
    t = _record()
    x = np.sin(2 * math.pi * F_REF * t + 0.3)
    want = demodulate(x, F_REF, TAU, ORDER, FS)
    real, calls = lockin.lfilter, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lockin, "lfilter", counting)
    assert demodulate(x, F_REF, TAU, ORDER, FS) == want
    assert len(calls) == 2 * ORDER


def test_demod_matches_dft_oracle():
    # multi-harmonic periodic waveform
    spp = int(FS / F_REF)
    t = _record()
    x = (0.4 + np.sin(2 * math.pi * F_REF * t + 0.5)
         + 0.3 * np.sin(2 * math.pi * 3 * F_REF * t))
    r = demodulate(x, F_REF, TAU, ORDER, FS).amplitude_r
    n_keep = (t.size // spp) * spp
    assert r == pytest.approx(dft_fundamental_rms(x[:n_keep], spp), rel=1e-3)


def test_synthesize_identity():
    t = _record(1e-3)
    x = np.sin(2 * math.pi * F_REF * t)
    cfg = _synthesis(input_noise_density=0.0)
    out = synthesize(x, UNIT_CHAIN, cfg, FS, NormalStream(0))
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-12)


def test_synthesize_gain_through_configured_chain():
    resp = _reference_chain()
    fs = 3.2e7
    n = int(20 * TAU * fs)
    t = np.arange(n) / fs
    amp = 1e-6
    x = amp * np.sin(2 * math.pi * 1e6 * t)
    cfg = _synthesis(input_noise_density=0.0)
    out = synthesize(x, resp, cfg, fs, NormalStream(0))
    r = demodulate(out, 1e6, TAU, ORDER, fs).amplitude_r
    h = abs(resp.evaluate(1e6))
    assert h == pytest.approx(100.0, rel=0.01)
    assert r == pytest.approx(h * amp / math.sqrt(2.0), rel=0.01)


def test_noise_rms_parseval():
    # white noise density through a unity chain: RMS = density * sqrt(fs/2)
    n = 16384
    zeros = np.zeros(n)
    cfg = _synthesis(input_noise_density=35e-12)
    rms = []
    for seed in range(50):
        out = synthesize(zeros, UNIT_CHAIN, cfg, 2e6,
                         NormalStream(seed))
        rms.append(np.sqrt(np.mean(out ** 2)))
    expected = 35e-12 * math.sqrt(1e6)
    assert np.mean(rms) == pytest.approx(expected, rel=0.1)


def test_synthesize_seeded_reproducibility():
    # two generators from one seed give equal records
    cfg = _synthesis()
    a = synthesize(np.zeros(4096), UNIT_CHAIN, cfg, 2e6,
                   NormalStream(42))
    b = synthesize(np.zeros(4096), UNIT_CHAIN, cfg, 2e6,
                   NormalStream(42))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("order", [0, lockin.MAX_FILTER_ORDER + 1, 2000,
                                   100000])
def test_synthesis_filter_order_range(order):
    # orders 1-8 (6-48 dB/octave); a larger one cost 74.5 GiB at 100000
    with pytest.raises(ValueError, match="filter_order"):
        _synthesis(filter_order=order)


def _sweep_fixtures(noise=0.0):
    ens = reference().ensemble
    geom = reference().geometry
    cfg = _synthesis(input_noise_density=noise, time_constant=2e-4,
                     f_m=250e3, duty=0.5)
    return ens, geom, cfg


def test_sweep_vbc_zero_rate_flat_zero():
    ens, geom, cfg = _sweep_fixtures()
    out = sweep_vbc([11.5, 11.6, 11.7], replace(ens, rho22_target=0.0),
                    geom, UNIT_CHAIN, cfg, NormalStream(0))
    assert np.all(out[:, 1] < 1e-15)


def test_sweep_grid_order_is_kept():
    # each point is computed on its own: a permuted grid gives the sorted
    # grid's rows, permuted
    ens, geom, cfg = _sweep_fixtures()
    grid = [2.5e5, 5e5, 1e6, 2e6, 4e6]
    perm = [3, 0, 4, 2, 1]
    rows = sweep_fm(grid, ens, geom, UNIT_CHAIN, cfg, NormalStream(0))
    permuted = sweep_fm([grid[k] for k in perm], ens, geom, UNIT_CHAIN, cfg,
                        NormalStream(0))
    np.testing.assert_array_equal(permuted, rows[perm])


def test_sweep_fm_no_mechanism_is_flat():
    # all-pass chain and relaxation far slower than the drive (tau = 1e6 s
    # against r = 2e5/s): population pins at saturation, leaving no f_m
    # dependence
    tau, r = 1e6, 2e5
    ens = replace(reference().ensemble, tau_relax=tau,
                  rho22_target=r * tau / (1.0 + 2.0 * r * tau))
    _, geom, cfg = _sweep_fixtures()
    out = sweep_fm([2e5, 5e5, 2e6], ens, geom, UNIT_CHAIN, cfg, NormalStream(0))
    # the source sits ~1.4 uV DC; any f_m dependence would appear as a
    # nonzero fundamental
    assert np.all(out[:, 1] < 1e-12)


def test_sweep_non_finite_output_raises():
    # a source voltage that overflows reads NaN at the lock-in; numpy warns
    # first, so the check on the rows is reached with the warning silenced
    ens, geom, cfg = _sweep_fixtures()
    ens = replace(ens, n_s=1e300)
    geom = replace(geom, delta_z=1e30)
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="non-finite lock-in"):
        sweep_vbc([11.6], ens, geom, UNIT_CHAIN, cfg, NormalStream(0))


def test_sweep_reproducibility():
    ens, geom, cfg = _sweep_fixtures(noise=35e-12)
    grid = [11.55, 11.6, 11.65]
    a = sweep_vbc(grid, ens, geom, UNIT_CHAIN, cfg, NormalStream(7))
    b = sweep_vbc(grid, ens, geom, UNIT_CHAIN, cfg, NormalStream(7))
    np.testing.assert_array_equal(a, b)


# -- closed form against the time-domain oracle ------------------------------


def _xy(res):
    return (res.amplitude_r * math.cos(res.phase),
            res.amplitude_r * math.sin(res.phase))


@pytest.mark.parametrize("order", range(1, lockin.MAX_FILTER_ORDER + 1))
def test_noise_std_matches_bandwidth_integral(order):
    # sigma = density * gain * sqrt(integral of the cascade's |H(f)|^2)
    tau, density, gain = 1e-3, 35e-12, 7.5
    cfg = _synthesis(time_constant=tau, filter_order=order,
                     input_noise_density=density)

    def power(f):
        return (1.0 + (2.0 * math.pi * f * tau) ** 2) ** -order

    corner = 1.0 / (2.0 * math.pi * tau)
    band = (quad(power, 0.0, corner, epsabs=0.0, epsrel=1e-13)[0]
            + quad(power, corner, math.inf, epsabs=0.0, epsrel=1e-13)[0])
    assert lockin._noise_std(cfg, gain) == pytest.approx(
        density * gain * math.sqrt(band), rel=1e-10)


@pytest.mark.parametrize("tau", [2e-4, 1e-3])
@pytest.mark.parametrize("f_m", [100e3, 250e3, 1e6])
def test_noise_std_matches_exact_covariance(tau, f_m):
    resp = _reference_chain()
    cfg = _synthesis(time_constant=tau)
    var_x, var_y, cov = lockin_noise_covariance(resp, cfg, f_m)
    s2 = lockin._noise_std(cfg, abs(resp.evaluate(f_m))) ** 2
    assert s2 == pytest.approx(var_x, rel=1e-5)
    assert s2 == pytest.approx(var_y, rel=1e-5)
    assert abs(cov) / math.sqrt(var_x * var_y) <= 1e-9


# per order at the floor, as the _noise_std docstring states them:
# (var X / s^2 - 1, var Y / s^2 - 1, corr(X, Y)) and the tolerances on the
# variances and on the correlation (half a unit of the last stated digit at
# orders 1 and 2, the stated bounds from order 3 on)
_FLOOR_NOISE = {1: ((3.0e-2, -3.3e-2, -0.31), (5e-4, 5e-3)),
                2: ((2.5e-2, -2.0e-2, 0.017), (5e-4, 5e-4)),
                3: ((0.0, 0.0, 0.0), (3.8e-3, 1e-3)),
                4: ((0.0, 0.0, 0.0), (1.1e-3, 2.5e-4))}


@pytest.mark.parametrize("order", range(1, lockin.MAX_FILTER_ORDER + 1))
def test_noise_std_at_time_constant_floor(order):
    # at tau = 8 samples the noise-bandwidth sigma is within 1.3e-3 of the
    # sampled cascade's, X and Y averaged (order 2 is the worst, 1.29e-3);
    # each channel on its own is off by the 2 f_m part of the mixed noise,
    # which a short cascade passes
    f_m = 250e3
    cfg = _synthesis(filter_order=order,
                     time_constant=lockin.MIN_TAU_SAMPLES
                     / (lockin.SAMPLES_PER_PERIOD * f_m))
    var_x, var_y, cov = lockin_noise_covariance(UNIT_CHAIN, cfg, f_m)
    s2 = lockin._noise_std(cfg, 1.0) ** 2
    assert math.sqrt(0.5 * (var_x + var_y)) == pytest.approx(
        math.sqrt(s2), rel=1.3e-3)
    (dx, dy, corr), (var_tol, corr_tol) = _FLOOR_NOISE.get(
        order, ((0.0, 0.0, 0.0), (9.5e-4, 2e-5)))
    assert abs(var_x / s2 - 1.0 - dx) <= var_tol
    assert abs(var_y / s2 - 1.0 - dy) <= var_tol
    assert abs(cov / math.sqrt(var_x * var_y) - corr) <= corr_tol


def _noise_rows(noisy, clean):
    """(X, Y) of each noisy row minus that of its noise-free row."""
    return np.array([np.subtract(_xy(lockin.LockInResult(*a[1:])),
                                 _xy(lockin.LockInResult(*b[1:])))
                     for a, b in zip(noisy, clean)])


def test_sweep_point_noise_is_one_draw():
    # row k adds s * z[k] to (X, Y), z the generator's standard normals
    # drawn as one (points, 2) array, X in column 0
    resp = _reference_chain()
    f_m, seed, n = 1e6, 5, 8
    cfg = _synthesis(duty=0.5)
    grid = np.full(n, f_m)
    fixtures = (reference().ensemble, reference().geometry, resp)
    noisy = sweep_fm(grid, *fixtures, cfg, NormalStream(seed))
    clean = sweep_fm(grid, *fixtures, replace(cfg, input_noise_density=0.0),
                     NormalStream(seed))
    z = NormalStream(seed).standard_normal((n, 2))
    s = lockin._noise_std(cfg, abs(resp.evaluate(f_m)))
    np.testing.assert_allclose(_noise_rows(noisy, clean), s * z, rtol=1e-9,
                               atol=0)


def test_sweep_blocks_keep_per_point_draws():
    # a grid two points past one block: the rows on both sides of the block
    # edge add rows of the one (points, 2) draw, and the noise-free rows
    # are the points swept one at a time, bit for bit
    resp = _reference_chain()
    ens, geom, cfg = _sweep_fixtures(noise=35e-12)
    seed, n = 5, lockin.SWEEP_BLOCK + 2
    grid = np.linspace(10.0, 12.5, n)
    noisy = sweep_vbc(grid, ens, geom, resp, cfg, NormalStream(seed))
    quiet = replace(cfg, input_noise_density=0.0)
    clean = sweep_vbc(grid, ens, geom, resp, quiet, NormalStream(seed))
    s = lockin._noise_std(cfg, abs(resp.evaluate(cfg.f_m)))
    edge = slice(n - 3, n)
    z = NormalStream(seed).standard_normal((n, 2))[edge]
    np.testing.assert_allclose(_noise_rows(noisy[edge], clean[edge]), s * z,
                               rtol=1e-9, atol=0)
    one_at_a_time = np.array([sweep_vbc([v], ens, geom, resp, quiet,
                                        NormalStream(0))[0] for v in grid])
    np.testing.assert_array_equal(clean, one_at_a_time)


@pytest.mark.parametrize("m", [1, 25, lockin.SWEEP_BLOCK + 1])
def test_sweep_prefix_rows_are_exact(m):
    # the first m points of a grid, swept on their own from the same seed,
    # give the first m rows of the whole grid's sweep, noise included
    resp = _reference_chain()
    ens, geom, cfg = _sweep_fixtures(noise=35e-12)
    grid = np.geomspace(1e5, 1e7, lockin.SWEEP_BLOCK + 2)
    full = sweep_fm(grid, ens, geom, resp, cfg, NormalStream(3))
    prefix = sweep_fm(grid[:m], ens, geom, resp, cfg, NormalStream(3))
    np.testing.assert_array_equal(prefix, full[:m])


def test_sweep_large_grid_peak():
    # 20,000 seed-0 points in one call: finite rows on the grid, peaking
    # within a tenth of the 0.1 V linewidth of the 11.6 V resonance
    cfg = load_config(overrides={("sweep", "grid"): "10:12.5:20000"})
    rows = sweep_vbc(cfg.sweep_grid, cfg.ensemble, cfg.geometry,
                     cfg.amplifier_chain(), cfg.synthesis, NormalStream(cfg.seed))
    assert rows.shape == (20000, 3)
    assert np.all(np.isfinite(rows))
    np.testing.assert_array_equal(rows[:, 0], cfg.sweep_grid)
    assert abs(rows[np.argmax(rows[:, 1]), 0] - 11.6) <= 0.01


@pytest.mark.parametrize("grid", ["10:12.5:51:lin", "11.5:11.7:5:lin"])
def test_sweep_vbc_peak_at_nearest_point_for_every_seed(grid):
    # the benchmark's vbc check at each seed it may run, on the stream the
    # command draws from: R peaks at the grid point nearest the 11.6 V
    # resonance
    cfg = load_config(overrides={("sweep", "grid"): grid})
    resp = cfg.amplifier_chain()
    want = np.argmin(np.abs(cfg.sweep_grid - 11.6))
    misses = [seed for seed in range(200)
              if np.argmax(sweep_vbc(cfg.sweep_grid, cfg.ensemble,
                                     cfg.geometry, resp, cfg.synthesis,
                                     NormalStream(seed))[:, 1]) != want]
    assert misses == []


def test_noise_statistics_match_time_domain():
    # 1000 seeds of the full-record path at f_m = 250 kHz, tau = 0.2 ms
    ens, geom = reference().ensemble, reference().geometry
    resp = _reference_chain()
    f_m, n = 250e3, 1000
    point = (f_m, 1.0, ens, geom, resp)
    cfg = _synthesis(time_constant=2e-4, duty=0.5)
    x0, y0 = _xy(sweep_point(*point, replace(cfg, input_noise_density=0.0),
                             NormalStream(0)))
    xy = np.array([_xy(time_domain_point(*point, cfg, NormalStream(seed)))
                   for seed in range(n)])
    s2 = lockin._noise_std(cfg, abs(resp.evaluate(f_m))) ** 2
    se = math.sqrt(s2 / n)
    assert abs(xy[:, 0].mean() - x0) <= 4.0 * se
    assert abs(xy[:, 1].mean() - y0) <= 4.0 * se
    var = xy.var(axis=0, ddof=1)
    assert np.all(np.abs(var / s2 - 1.0) <= 4.0 * math.sqrt(2.0 / (n - 1)))
    assert abs(np.corrcoef(xy.T)[0, 1]) <= 4.0 / math.sqrt(n)


@settings(max_examples=100, deadline=None)
@given(f_m=st.floats(1e4, 1e7),
       tau_periods=st.floats(0.5, 50.05),
       order=st.integers(1, lockin.MAX_FILTER_ORDER),
       duty=st.floats(0.05, 0.95),
       scale=st.floats(0.01, 1.0),
       with_chain=st.booleans())
@example(f_m=250e3, tau_periods=50.0, order=8, duty=0.5, scale=1.0,
         with_chain=True)
def test_closed_form_matches_time_domain(f_m, tau_periods, order, duty, scale,
                                         with_chain):
    # the periodic steady state against a record of 60 time constants
    # started from rest (200 to 3003 periods, at most 16 * 3003 samples),
    # whose settling term is below 1e-17 at order 8
    tau = tau_periods / f_m
    # tau_periods = 0.5 is the floor, which tau * 16 f_m may round below
    assume(lockin.SAMPLES_PER_PERIOD * f_m * tau >= lockin.MIN_TAU_SAMPLES)
    cfg = _synthesis(input_noise_density=0.0, time_constant=tau,
                     filter_order=order, duty=duty)
    resp = _reference_chain() if with_chain else UNIT_CHAIN
    point = (f_m, scale, reference().ensemble, reference().geometry, resp,
             cfg, NormalStream(0))
    fast = sweep_point(*point)
    slow = time_domain_point(*point, time_constants=SETTLED_TIME_CONSTANTS)
    assert fast.amplitude_r == pytest.approx(slow.amplitude_r, rel=1e-9)
    # X and Y rather than the phase, which wraps at +-pi
    err = np.subtract(_xy(fast), _xy(slow))
    assert np.all(np.abs(err) <= 1e-9 * slow.amplitude_r)


def test_closed_form_extreme_record():
    # tau = 1 s at f_m = 10 MHz: the time-domain record would be 3.2e9
    # samples (25.6 GB per float64 array)
    ens, geom = reference().ensemble, reference().geometry
    resp = _reference_chain()
    f_m = 10e6
    cfg = _synthesis(time_constant=1.0, input_noise_density=0.0, duty=0.5)
    spp, n_per = resolve_sampling(cfg, f_m)
    assert spp * n_per == 3_200_000_000
    tracemalloc.start()
    try:
        res = sweep_point(f_m, 1.0, ens, geom, resp, cfg, NormalStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    rho = rydberg_population(f_m, 0.5, ens, 1.0, spp)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
    want = abs(resp.evaluate(f_m)) * dft_fundamental_rms(v_ac, spp)
    assert math.isfinite(res.amplitude_r)
    assert res.amplitude_r == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("tau", [1e9, 1e12, 4e301])
def test_closed_form_long_time_constant(tau):
    # the steady state reads |H(f_m)| times the fundamental at any tau whose
    # 16 f_m tau is finite, also where the one-sample decay rounds to 1
    # (from about 2e9 s at 250 kHz)
    ens, geom = reference().ensemble, reference().geometry
    resp = _reference_chain()
    f_m, spp = 250e3, lockin.SAMPLES_PER_PERIOD
    cfg = _synthesis(time_constant=tau, input_noise_density=0.0, duty=0.5)
    res = sweep_point(f_m, 1.0, ens, geom, resp, cfg, NormalStream(0))
    rho = rydberg_population(f_m, 0.5, ens, 1.0, spp)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
    want = abs(resp.evaluate(f_m)) * dft_fundamental_rms(v_ac, spp)
    assert res.amplitude_r == pytest.approx(want, rel=1e-12)
