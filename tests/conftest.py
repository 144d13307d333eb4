"""Shared independent oracles and acceptance-line reporting."""

import math

import numpy as np
from scipy.signal import lfilter

from cryoreadout.device import EXP_CAP
from cryoreadout.lockin import _resolve_sampling, demodulate, synthesize
from cryoreadout.source import (DriveWaveform, image_charge_waveform,
                                rydberg_population)

# one "[ACCEPTANCE nn] PASS/FAIL - ..." line per criterion, filled in by
# tests/test_acceptance.py and printed after capture ends
ACCEPTANCE_LINES = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])


def grid_search_operating_point(network, params, step=1e-4):
    """Brute-force DC solution on a (v_be, v_ce) grid.

    Independent of the solver's bisection on the exact 1-D reduction:
    evaluates the raw node equations on a dense grid.  For each v_be the
    collector-node residual picks the best v_ce cell, then the base-node
    residual picks the best v_be; this nested argmin avoids mixing the two
    residuals' very different current scales.

    The v_be range is bounded above by the divider's Thevenin voltage (the
    base node cannot sit above it) and by the v_be at which the collector
    current would exceed the supply's reach through the collector resistor
    (plus margin) -- beyond that both residuals grow monotonically.
    """
    vbe_cap = math.log(network.v_supply / (network.r_collector * params.i_sat)) \
        * params.v_teff + 0.05
    vbe_hi = min(network.thevenin_voltage, 0.995 * EXP_CAP * params.v_teff,
                 vbe_cap)
    vbe = np.arange(0.0, vbe_hi + step, step)
    vce = np.arange(0.0, network.v_supply + step, step)
    early = 1.0 + vce / params.v_early

    best = (np.inf, None, None)
    chunk = 512
    for k0 in range(0, vbe.size, chunk):
        vb = vbe[k0:k0 + chunk]
        a = params.i_sat * np.exp(vb / params.v_teff)      # per-v_be junction factor
        ic = a[:, None] * early[None, :]
        f2 = (network.v_supply - vce[None, :]
              - (ic / params.beta_f + ic) * network.r_emitter) \
            / network.r_collector - ic
        j = np.argmin(np.abs(f2), axis=1)
        ic_best = ic[np.arange(vb.size), j]
        ib = ic_best / params.beta_f
        v_b = vb + (ib + ic_best) * network.r_emitter
        f1 = (network.v_supply - v_b) / network.r_upper \
            - v_b / network.r_lower - ib
        k = int(np.argmin(np.abs(f1)))
        if abs(f1[k]) < best[0]:
            best = (abs(f1[k]), vb[k], vce[j[k]])
    return best[1], best[2]


def dft_fundamental_rms(x, samples_per_period):
    """RMS amplitude of the fundamental of a periodic record.

    The record must contain an integer number of periods of length
    ``samples_per_period``; the fundamental bin is then exact.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    assert n % samples_per_period == 0
    m = n // samples_per_period       # fundamental bin index
    c = np.fft.rfft(x)[m] * 2.0 / n
    return abs(c) / np.sqrt(2.0)


def time_domain_point(index, f_m, duty, excitation_rate, scale, ens, geom,
                      chain, cfg):
    """One sweep point by the full-record path the closed form replaced:
    the source tiled over the whole record, ``synthesize`` (FFT filtering
    plus white noise from the (seed, index) stream) and ``demodulate``
    (mixing plus the IIR cascade, sample by sample)."""
    drive = DriveWaveform(f_m=f_m, duty=duty, excitation_rate=excitation_rate)
    spp, n_per = _resolve_sampling(cfg, f_m)
    fs = spp * f_m
    rho = rydberg_population(drive, ens, excitation_scale=scale,
                             n_periods=n_per, samples_per_period=spp)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
    rng = np.random.default_rng((cfg.noise_seed, index))
    v_out = synthesize(v_ac, chain, cfg, sample_rate=fs, rng=rng)
    return demodulate(v_out, f_m, cfg.time_constant, cfg.filter_order,
                      sample_rate=fs)


def lockin_noise_covariance(chain, cfg, f_m):
    """Exact covariance (var X, var Y, cov XY) of the time-domain lock-in
    output due to the white input noise, at the auto-scaled sampling.

    X = c . (H w) with w iid N(0, sigma^2), sigma^2 = density^2 fs/2, H the
    circular chain filter and c the reversed cascade impulse response times
    the sqrt(2) sin reference (cos for Y).  So X = u . w with u = H^T c =
    irfft(conj(H) rfft(c)), and var X = sigma^2 |u|^2.
    """
    spp, n_per = _resolve_sampling(cfg, f_m)
    fs = spp * f_m
    n = spp * n_per
    a = math.exp(-1.0 / (fs * cfg.time_constant))
    g = np.zeros(n)
    g[0] = 1.0
    for _ in range(cfg.filter_order):
        g = lfilter([1.0 - a], [1.0, -a], g)
    t = np.arange(n) / fs
    w = 2.0 * math.pi * f_m
    h = chain.evaluate(np.fft.rfftfreq(n, 1.0 / fs))
    u = [np.fft.irfft(np.conj(h) * np.fft.rfft(g[::-1] * math.sqrt(2.0) * ref),
                      n)
         for ref in (np.sin(w * t), np.cos(w * t))]
    sigma2 = cfg.input_noise_density ** 2 * fs / 2.0
    return (sigma2 * (u[0] @ u[0]), sigma2 * (u[1] @ u[1]),
            sigma2 * (u[0] @ u[1]))
