import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryoreadout import lockin
from cryoreadout.chain import StageResponse, cascade
from cryoreadout.lockin import demodulate, sweep_fm, sweep_vbc, synthesize
from cryoreadout.source import (DriveWaveform, image_charge_waveform,
                                rydberg_population)
from conftest import (dft_fundamental_rms, lockin_noise_covariance,
                      reference, time_domain_point)

FS = 4e6
F_REF = 1e5
TAU = 2e-4


@functools.cache
def _reference_chain():
    return reference().amplifier_chain()


def _synthesis(**changes):
    return replace(reference().synthesis(), **changes)


def _record(duration=25 * TAU):
    n = int(round(duration * FS))
    return np.arange(n) / FS


def test_demod_sine():
    t = _record()
    res = demodulate(np.sin(2 * math.pi * F_REF * t + 0.3), F_REF, TAU,
                     sample_rate=FS)
    assert res.amplitude_r == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
    assert res.phase == pytest.approx(0.3, abs=1e-4)


def test_demod_dc_rejected():
    t = _record()
    res = demodulate(np.full(t.size, 0.7), F_REF, TAU, sample_rate=FS)
    assert res.amplitude_r < 1e-6


def test_demod_unit_square_wave():
    t = _record()
    x = (np.sin(2 * math.pi * F_REF * t) >= 0).astype(float)   # 0/1 square
    res = demodulate(x, F_REF, TAU, sample_rate=FS)
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
    with pytest.raises(ValueError):
        demodulate(x, F_REF, TAU, sample_rate=None)
    with pytest.raises(ValueError, match="unresolvable"):
        demodulate(x, FS / 2.0, TAU, sample_rate=FS)
    with pytest.raises(ValueError, match="20 time constants"):
        demodulate(x[: int(5 * TAU * FS)], F_REF, TAU, sample_rate=FS)


def test_demod_linearity():
    t = _record()
    x = np.sin(2 * math.pi * F_REF * t)
    r1 = demodulate(x, F_REF, TAU, sample_rate=FS).amplitude_r
    r2 = demodulate(3.0 * x, F_REF, TAU, sample_rate=FS).amplitude_r
    assert r2 == pytest.approx(3.0 * r1, rel=1e-12)


def test_demod_phase_invariance():
    t = _record()
    a = demodulate(np.sin(2 * math.pi * F_REF * t + 0.2), F_REF, TAU,
                   sample_rate=FS)
    b = demodulate(np.sin(2 * math.pi * F_REF * t + 0.9), F_REF, TAU,
                   sample_rate=FS)
    assert b.amplitude_r == pytest.approx(a.amplitude_r, rel=1e-6)
    assert b.phase - a.phase == pytest.approx(0.7, abs=1e-6)


def test_demod_matches_dft_oracle():
    # multi-harmonic periodic waveform
    spp = int(FS / F_REF)
    t = _record()
    x = (0.4 + np.sin(2 * math.pi * F_REF * t + 0.5)
         + 0.3 * np.sin(2 * math.pi * 3 * F_REF * t))
    r = demodulate(x, F_REF, TAU, sample_rate=FS).amplitude_r
    n_keep = (t.size // spp) * spp
    assert r == pytest.approx(dft_fundamental_rms(x[:n_keep], spp), rel=1e-3)


def test_synthesize_identity():
    t = _record(1e-3)
    x = np.sin(2 * math.pi * F_REF * t)
    unity = cascade([StageResponse(gain_factor=1.0)])
    cfg = _synthesis(input_noise_density=0.0)
    out = synthesize(x, unity, cfg, FS)
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-12)


def test_synthesize_gain_through_configured_chain():
    resp = _reference_chain()
    fs = 3.2e7
    n = int(20 * TAU * fs)
    t = np.arange(n) / fs
    amp = 1e-6
    x = amp * np.sin(2 * math.pi * 1e6 * t)
    cfg = _synthesis(input_noise_density=0.0)
    out = synthesize(x, resp, cfg, fs)
    r = demodulate(out, 1e6, TAU, sample_rate=fs).amplitude_r
    h = abs(resp.evaluate(1e6))
    assert h == pytest.approx(100.0, rel=0.01)
    assert r == pytest.approx(h * amp / math.sqrt(2.0), rel=0.01)


def test_noise_rms_parseval():
    # white noise density through a unity chain: RMS = density * sqrt(fs/2)
    unity = cascade([StageResponse(gain_factor=1.0)])
    n = 16384
    zeros = np.zeros(n)
    rms = []
    for seed in range(50):
        cfg = _synthesis(noise_seed=seed, input_noise_density=35e-12)
        rms.append(np.sqrt(np.mean(synthesize(zeros, unity, cfg, 2e6) ** 2)))
    expected = 35e-12 * math.sqrt(1e6)
    assert np.mean(rms) == pytest.approx(expected, rel=0.1)


def test_synthesize_seeded_reproducibility():
    cfg = _synthesis(noise_seed=42)
    unity = cascade([StageResponse(gain_factor=1.0)])
    a = synthesize(np.zeros(4096), unity, cfg, 2e6)
    b = synthesize(np.zeros(4096), unity, cfg, 2e6)
    np.testing.assert_array_equal(a, b)


def _sweep_fixtures(noise=0.0):
    ens = reference().ensemble()
    geom = reference().geometry()
    cfg = _synthesis(input_noise_density=noise, time_constant=2e-4)
    return ens, geom, cfg


def test_sweep_vbc_zero_rate_flat_zero():
    ens, geom, cfg = _sweep_fixtures()
    drive = DriveWaveform(f_m=250e3, duty=0.5, excitation_rate=0.0)
    out = sweep_vbc([11.5, 11.6, 11.7], drive, ens, geom, None, cfg)
    assert all(r.amplitude_r < 1e-15 for _, r in out)


def test_sweep_grid_must_be_sorted():
    ens, geom, cfg = _sweep_fixtures()
    drive = DriveWaveform(f_m=250e3, duty=0.5)
    with pytest.raises(ValueError):
        sweep_vbc([11.7, 11.5], drive, ens, geom, None, cfg)
    with pytest.raises(ValueError):
        sweep_fm([1e6, 1e5], ens, geom, None, cfg, 0.5)


def test_sweep_fm_no_mechanism_is_flat():
    # all-pass chain and no relaxation: population pins at saturation,
    # leaving no f_m dependence
    ens = replace(reference().ensemble(), tau_relax=math.inf)
    _, geom, cfg = _sweep_fixtures()
    out = sweep_fm([2e5, 5e5, 2e6], ens, geom, None, cfg, 0.5,
                   excitation_rate=2e5)
    # the source sits ~1.4 uV DC; any f_m dependence would appear as a
    # nonzero fundamental
    assert all(r.amplitude_r < 1e-12 for _, r in out)


def test_sweep_reproducibility():
    ens, geom, cfg = _sweep_fixtures(noise=35e-12)
    drive = DriveWaveform(f_m=250e3, duty=0.5)
    grid = [11.55, 11.6, 11.65]
    a = sweep_vbc(grid, drive, ens, geom, None, cfg)
    b = sweep_vbc(grid, drive, ens, geom, None, cfg)
    assert [(x, r.amplitude_r, r.phase) for x, r in a] == \
        [(x, r.amplitude_r, r.phase) for x, r in b]


# -- closed form against the time-domain oracle ------------------------------


def _xy(res):
    return (res.amplitude_r * math.cos(res.phase),
            res.amplitude_r * math.sin(res.phase))


@pytest.mark.parametrize("order", range(1, 7))
def test_cascade_energy_matches_impulse_response(order):
    a = math.exp(-1.0 / 50.0)
    g = np.zeros(5000)
    g[0] = 1.0
    for _ in range(order):
        g = np.convolve(g, (1.0 - a) * a ** np.arange(5000))[:5000]
    assert lockin._cascade_energy(a, order) == pytest.approx(g @ g, rel=1e-12)


@pytest.mark.parametrize("tau", [2e-4, 1e-3])
@pytest.mark.parametrize("f_m", [100e3, 250e3, 1e6])
def test_noise_std_matches_exact_covariance(tau, f_m):
    resp = _reference_chain()
    cfg = _synthesis(time_constant=tau)
    var_x, var_y, cov = lockin_noise_covariance(resp, cfg, f_m)
    spp, _ = lockin._resolve_sampling(cfg, f_m)
    s2 = lockin._noise_std(cfg, spp * f_m, abs(resp.evaluate(f_m))) ** 2
    assert s2 == pytest.approx(var_x, rel=1e-5)
    assert s2 == pytest.approx(var_y, rel=1e-5)
    assert abs(cov) / math.sqrt(var_x * var_y) <= 1e-9


def test_sweep_point_noise_is_one_draw():
    # a point adds s * z to (X, Y), z = the first two standard normals of
    # the (seed, index) stream, X first
    resp = _reference_chain()
    f_m, seed, index = 1e6, 5, 7
    point = (index, f_m, 0.5, None, 1.0, reference().ensemble(),
             reference().geometry(), resp)
    cfg = _synthesis(noise_seed=seed)
    x0, y0 = _xy(lockin._run_point(
        *point, replace(cfg, input_noise_density=0.0)))
    x, y = _xy(lockin._run_point(*point, cfg))
    z = np.random.default_rng((seed, index)).standard_normal(2)
    s = lockin._noise_std(cfg, 16 * f_m, abs(resp.evaluate(f_m)))
    assert x - x0 == pytest.approx(s * z[0], rel=1e-9)
    assert y - y0 == pytest.approx(s * z[1], rel=1e-9)


def test_noise_statistics_match_time_domain():
    # 1000 seeds of the full-record path at f_m = 250 kHz, tau = 0.2 ms
    ens, geom = reference().ensemble(), reference().geometry()
    resp = _reference_chain()
    f_m, n = 250e3, 1000
    point = (0, f_m, 0.5, None, 1.0, ens, geom, resp)
    cfg = _synthesis(time_constant=2e-4)
    x0, y0 = _xy(lockin._run_point(*point,
                                   replace(cfg, input_noise_density=0.0)))
    xy = np.array([
        _xy(time_domain_point(*point, replace(cfg, noise_seed=seed)))
        for seed in range(n)])
    s2 = lockin._noise_std(cfg, 16 * f_m, abs(resp.evaluate(f_m))) ** 2
    se = math.sqrt(s2 / n)
    assert abs(xy[:, 0].mean() - x0) <= 4.0 * se
    assert abs(xy[:, 1].mean() - y0) <= 4.0 * se
    var = xy.var(axis=0, ddof=1)
    assert np.all(np.abs(var / s2 - 1.0) <= 4.0 * math.sqrt(2.0 / (n - 1)))
    assert abs(np.corrcoef(xy.T)[0, 1]) <= 4.0 / math.sqrt(n)


@settings(max_examples=100, deadline=None)
@given(f_m=st.floats(1e4, 1e7),
       tau_periods=st.floats(0.5, 50.05),
       order=st.integers(1, 6),
       duty=st.floats(0.05, 0.95),
       scale=st.floats(0.01, 1.0),
       with_chain=st.booleans())
def test_closed_form_matches_time_domain(f_m, tau_periods, order, duty, scale,
                                         with_chain):
    # 200 to 1001 periods (20 time constants), records of at most
    # 16 * 1001 samples
    tau = tau_periods / f_m
    cfg = _synthesis(input_noise_density=0.0, time_constant=tau,
                     filter_order=order)
    resp = _reference_chain() if with_chain else None
    point = (3, f_m, duty, None, scale, reference().ensemble(),
             reference().geometry(), resp, cfg)
    fast = lockin._run_point(*point)
    slow = time_domain_point(*point)
    assert fast.amplitude_r == pytest.approx(slow.amplitude_r, rel=1e-9)
    # X and Y rather than the phase, which wraps at +-pi
    err = np.subtract(_xy(fast), _xy(slow))
    assert np.all(np.abs(err) <= 1e-9 * slow.amplitude_r)


def test_closed_form_extreme_record():
    # tau = 1 s at f_m = 10 MHz: the time-domain record would be 3.2e9
    # samples (25.6 GB per float64 array)
    ens, geom = reference().ensemble(), reference().geometry()
    resp = _reference_chain()
    f_m = 10e6
    cfg = _synthesis(time_constant=1.0, input_noise_density=0.0)
    spp, n_per = lockin._resolve_sampling(cfg, f_m)
    assert spp * n_per == 3_200_000_000
    tracemalloc.start()
    try:
        res = lockin._run_point(0, f_m, 0.5, None, 1.0, ens, geom, resp,
                                cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    rho = rydberg_population(DriveWaveform(f_m=f_m, duty=0.5), ens,
                             samples_per_period=spp)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
    want = abs(resp.evaluate(f_m)) * dft_fundamental_rms(v_ac, spp)
    assert math.isfinite(res.amplitude_r)
    assert res.amplitude_r == pytest.approx(want, rel=1e-5)
