"""Shared independent oracles, the reference setup and acceptance-line
reporting."""

import functools
import math

import numpy as np
from hypothesis import strategies as st
from scipy.constants import e as ELEMENTARY_CHARGE, epsilon_0
from scipy.signal import lfilter

from cryoreadout import lockin, replace
from cryoreadout.chain import ChainResponse, StageResponse
from cryoreadout.cli import NormalStream
from cryoreadout.config import load_config
from cryoreadout.device import EXP_CAP
from cryoreadout.ivfit import synth_input_curve, synth_output_family
from cryoreadout.lockin import (MIN_TIME_CONSTANTS, SAMPLES_PER_PERIOD,
                               LockInResult, demodulate, synthesize)
from cryoreadout.source import image_charge_waveform, rydberg_population

# one "[ACCEPTANCE nn] PASS/FAIL - ..." line per criterion, filled in by
# tests/test_acceptance.py and printed after capture ends
ACCEPTANCE_LINES = {}

# the time-domain oracle's record spans at least this many modulation
# periods and MIN_TIME_CONSTANTS time constants
MIN_PERIODS = 200
# records of this many time constants settle below 1e-17 at filter order 8
SETTLED_TIME_CONSTANTS = 60.0

# a one-stage chain of gain 1+0j: multiplying by it is exact, so the signal
# path through it is the bare source
UNIT_CHAIN = ChainResponse(stages=(StageResponse(gain_factor=1.0),))


@functools.cache
def reference():
    """RunConfig of the reference setup: ``config._SCHEMA``'s defaults, as
    the CLI reads them with no config file.  Tests take reference objects
    from it (``reference().network``) and build variants with
    ``cryoreadout.replace``."""
    return load_config()


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])


def grid_search_operating_point(network, params, step=1e-4):
    """Brute-force DC solution on a (v_be, v_ce) grid.

    Independent of the solver's bisection on the exact 1-D reduction:
    evaluates the raw node equations on a dense grid, with its own statement
    of the forward-active law: i_b = i_sat exp(v_be/v_teff)/beta_f and
    i_c = i_sat exp(v_be/v_teff) (1 + v_ce/v_early).  For each v_be the
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
        ib = a / params.beta_f                             # no Early factor
        ic = a[:, None] * early[None, :]
        f2 = (network.v_supply - vce[None, :]
              - (ib[:, None] + ic) * network.r_emitter) \
            / network.r_collector - ic
        j = np.argmin(np.abs(f2), axis=1)
        ic_best = ic[np.arange(vb.size), j]
        v_b = vb + (ib + ic_best) * network.r_emitter
        f1 = (network.v_supply - v_b) / network.r_upper \
            - v_b / network.r_lower - ib
        k = int(np.argmin(np.abs(f1)))
        if abs(f1[k]) < best[0]:
            best = (abs(f1[k]), vb[k], vce[j[k]])
    return best[1], best[2]


def noiseless_family(beta_f=160.0, v_early=124.0):
    """The synthetic output family of the reference device with ``beta_f``
    and ``v_early``, with no noise."""
    params = replace(reference().transistor, beta_f=beta_f, v_early=v_early)
    return synth_output_family(params, 0.0, NormalStream(0))


def noiseless_diode(i_sat=6.35e-8):
    """Noise-free synthetic input characteristics of the reference device
    (v_teff = 25 mV, beta_f = 160) with saturation current ``i_sat``."""
    params = replace(reference().transistor, i_sat=i_sat)
    return synth_input_curve(params, 0.0, NormalStream(0))


def rms_image_current(f_m, geom, n_s, rho22):
    """RMS image current, evaluated with the published estimate verbatim:

        <i> = 2 pi f_m e n_s C_0 delta_z rho22 / epsilon_0

    This equals 2 pi f_m * delta_q only when C_0 = epsilon_0 * (S/D); with
    the reference C_0 = 1 pF the two differ by C_0/(epsilon_0 S/D) ~ 20.
    The package's charge-based figure is ``image_charge_waveform`` times
    2 pi f_m.
    """
    if f_m <= 0 or n_s <= 0:
        raise ValueError("f_m and n_s must be positive")
    if rho22 < 0:
        raise ValueError("rho22 must be non-negative")
    return (2.0 * math.pi * f_m * ELEMENTARY_CHARGE * n_s * geom.c_cell
            * geom.delta_z * rho22) / epsilon_0


def csv_file(directory, text, name="iv.csv"):
    """Write ``text`` verbatim (no newline translation) to ``directory /
    name`` and return the path."""
    path = directory / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


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


def resolve_sampling(cfg, f_m, time_constants=MIN_TIME_CONSTANTS):
    """Samples per period and period count of a time-domain record: 16
    samples per modulation period over max(``time_constants`` time
    constants, ``MIN_PERIODS`` periods)."""
    n_per = max(int(math.ceil(time_constants * cfg.time_constant * f_m)),
                MIN_PERIODS)
    return SAMPLES_PER_PERIOD, n_per


def sweep_point(f_m, scale, ens, geom, chain, cfg, rng):
    """One sweep point in closed form at (``f_m``, ``scale``): a one-point
    sweep, so its noise is the first (X, Y) pair drawn from ``rng``."""
    rows = lockin._sweep([f_m], f_m, scale, ens, geom, chain, cfg, rng)
    return LockInResult(amplitude_r=rows[0, 1], phase=rows[0, 2])


def time_domain_point(f_m, scale, ens, geom, chain, cfg, rng,
                      time_constants=MIN_TIME_CONSTANTS):
    """One sweep point by the full-record path the closed form replaced:
    the source period tiled over a record of ``time_constants`` time
    constants started from rest, ``synthesize`` (FFT filtering plus white
    noise drawn from ``rng``) and ``demodulate`` (mixing plus the IIR
    cascade, sample by sample)."""
    spp, n_per = resolve_sampling(cfg, f_m, time_constants)
    fs = spp * f_m
    rho = np.tile(rydberg_population(f_m, cfg.duty, ens, scale, spp), n_per)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
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
    spp, n_per = resolve_sampling(cfg, f_m)
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



# CSV-like text for the IV loader.  Most draws are well-formed datasets,
# input curves or output families with or without a direction column,
# whose numbers are either typical values or any float (huge ones make
# the fits overflow); some cells are then swapped for junk (nan, inf,
# words, random text) or rows cut short; the rest is random rows under a
# random header.
_IV_JUNK = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "fwd", "bwd", "x", "1e400"]),
    st.floats().map(repr),
    st.text(max_size=4))


def _iv_numbers(typical):
    return st.sampled_from(typical) | st.floats(allow_nan=False,
                                                allow_infinity=False)


def _iv_sweep(typical, currents):
    voltages = st.just(typical) | st.lists(_iv_numbers(typical), min_size=1,
                                           max_size=8, unique=True)
    return voltages.flatmap(
        lambda v: st.tuples(
            st.just(sorted(v)),
            st.lists(currents, min_size=len(v), max_size=len(v))))


@st.composite
def _iv_rows(draw):
    kind = draw(st.sampled_from(["input", "output", "direction", "random"]))
    if kind == "random":
        header = draw(st.text(max_size=12))
        rows = draw(st.lists(st.lists(_IV_JUNK, min_size=1, max_size=5),
                             max_size=10))
        return header, rows
    currents = _iv_numbers([1e-9, 1e-7, 1e-5, 1e-4, 1.1e-4, 0.0, -1e-9])
    # the model's law with any parameters, or any currents
    law = draw(st.booleans())
    if kind == "input":
        # i_b = i_0 exp(v_be / v_teff)
        i_0, v_teff = draw(_iv_numbers([1e-12])), draw(_iv_numbers([0.025]))
        v, i = draw(_iv_sweep([0.1, 0.15, 0.2, 0.25, 0.3], currents))
        if law:
            with np.errstate(all="ignore"):
                i = i_0 * np.exp(np.array(v) / v_teff)
        return "v_be_V,i_b_A", [[repr(float(a)), repr(float(b))]
                                for a, b in zip(v, i)]
    # i_c = beta i_b (1 + v_ce / v_early)
    beta, v_early = draw(_iv_numbers([160.0])), draw(_iv_numbers([124.0]))
    rows = []
    typical = [2e-7, 4e-7, 6e-7, 8e-7]
    labels = draw(st.just(typical) | st.lists(_iv_numbers(typical),
                                              min_size=1, max_size=4,
                                              unique=True))
    for label in labels:
        v, i = draw(_iv_sweep([0.0, 0.5, 1.0, 1.5, 2.0], currents))
        if law:
            with np.errstate(all="ignore"):
                i = beta * label * (1.0 + np.array(v) / v_early)
        end = [] if kind == "output" else [draw(st.sampled_from(["fwd",
                                                                 "bwd"]))]
        rows += [[repr(label), repr(float(a)), repr(float(b)), *end]
                 for a, b in zip(v, i)]
    header = "i_b_A,v_ce_V,i_c_A" + (",direction" if kind != "output" else "")
    return header, rows


@st.composite
def iv_csv_text(draw):
    header, rows = draw(_iv_rows())
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not rows:
            break
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, len(row)))
        if col < len(row):
            row[col] = draw(_IV_JUNK)
        else:
            del row[-1:]    # cut the row short
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"
