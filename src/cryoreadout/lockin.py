"""Lock-in readout of the source through the amplifier chain.

A sweep is one array pass over its grid, ``SWEEP_BLOCK`` points at a
time, that computes every point in closed form; ``sweep_vbc`` and
``sweep_fm`` differ only in the input that varies, the excitation scale or
f_m.  The source is exactly periodic and the chain and the lock-in are
linear, so the reading is the periodic steady state, the one a record
started from rest reaches after infinitely many periods.  Each point's
period of 16 samples is filtered by the chain at its harmonics and mixed
with the unit-RMS references, which shifts its spectrum up one bin; the
low-pass cascade multiplies that spectrum by its response at the same
bins, and the reading is the period's last sample.  The 2 f_m ripple that
the cascade passes stays in the reading.  White input noise adds a
bivariate Gaussian to (X, Y) of standard deviation
density * |H(f_m)| * sqrt(B), B the cascade's noise bandwidth; this holds
while |H| is flat across that band.  It is drawn from the caller's normal
stream (any object with ``standard_normal(shape)``), one (X, Y) row per
point in grid order, so row k depends only on the seed and k.  The time
constant has one range: it must span at least ``MIN_TAU_SAMPLES`` = 8
samples (tau * f_m >= 0.5), where that sigma is within 1.3e-3 of the
sampled cascade's (X and Y averaged), and 16 f_m tau must be finite.  The steady state is exact at any longer tau.

``synthesize`` and ``demodulate`` are the time-domain path the closed form
replaces, kept as its oracle: the full record filtered by the chain via
FFT with white Gaussian noise added, then mixed with unit-RMS sine/cosine
references at the modulation frequency and low-passed by a cascade of
identical single-pole IIR sections, reading the final value.  That IIR
filter is scipy's ``lfilter``, which this module imports on the first
lookup of its attribute ``lfilter``: no command runs the oracle, so none
loads scipy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import Record
from .chain import ChainResponse
from .source import (CellGeometry, EnsembleParams, image_charge_waveform,
                     rydberg_population, stark_excitation_fraction)

__all__ = [
    "SynthesisConfig",
    "LockInResult",
    "synthesize",
    "demodulate",
    "sweep_vbc",
    "sweep_fm",
]

SAMPLES_PER_PERIOD = 16
# shortest time constant a sweep accepts, in samples: 0.5 / f_m
MIN_TAU_SAMPLES = 8
# sweep points computed together: 16 samples of each are in memory at once
SWEEP_BLOCK = 4096
MIN_TIME_CONSTANTS = 20.0
# low-pass cascade orders lock-in amplifiers offer: 6 to 48 dB/octave
MAX_FILTER_ORDER = 8


def __getattr__(name):
    # PEP 562; the cached global answers every later lookup of lfilter
    if name == "lfilter":
        from scipy.signal import lfilter
        globals()["lfilter"] = lfilter
        return lfilter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SynthesisConfig(Record):
    """The ``[synthesis]`` section: drive modulation, input noise and
    lock-in settings of a run."""

    input_noise_density: float   # V/sqrt(Hz), referred to chain input
    time_constant: float         # lock-in time constant, s
    filter_order: int
    f_m: float                   # modulation frequency of a vbc sweep, Hz
    duty: float                  # MW-on fraction of the modulation period

    def __post_init__(self):
        if not self.time_constant > 0:
            raise ValueError("time_constant must be positive")
        if not 1 <= self.filter_order <= MAX_FILTER_ORDER:
            raise ValueError(
                f"filter_order must lie in 1-{MAX_FILTER_ORDER}, "
                f"got {self.filter_order}")
        if not self.input_noise_density >= 0:
            raise ValueError("input_noise_density must be non-negative")
        if not self.f_m > 0:
            raise ValueError("f_m must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")


class LockInResult(Record):
    """A lock-in reading: R and its phase."""

    amplitude_r: float    # RMS convention
    phase: float          # radians, in (-pi, pi]


def synthesize(v_source, chain: ChainResponse, cfg: SynthesisConfig,
               sample_rate: float, rng):
    """Filter a sampled source voltage through the chain and add white
    input noise drawn from ``rng``, filtered by the chain too.  ``rng`` is
    a normal stream: any object with ``standard_normal(shape)``.

    The sweeps do not call this: they use the closed form, and this
    full-record path is its oracle in the tests.
    """
    v_source = np.asarray(v_source, dtype=float)
    n = v_source.size
    h = chain.evaluate(np.fft.rfftfreq(n, 1.0 / sample_rate))
    out = np.fft.irfft(np.fft.rfft(v_source) * h, n)
    if cfg.input_noise_density > 0:
        sigma = cfg.input_noise_density * math.sqrt(sample_rate / 2.0)
        noise = sigma * rng.standard_normal(n)
        out = out + np.fft.irfft(np.fft.rfft(noise) * h, n)
    return out


def demodulate(x, f_ref: float, time_constant: float, filter_order: int,
               sample_rate: float) -> LockInResult:
    """Lock-in demodulation of a sampled record.

    Quadrature mixing with unit-RMS references followed by ``filter_order``
    cascaded single-pole low-pass sections; the final value gives
    R = sqrt(X^2 + Y^2) (RMS convention) and the phase relative to a sine
    reference.  The sweeps compute the value it settles to, the periodic
    steady state, in closed form; this sample-by-sample path is their
    oracle in the tests.
    """
    x = np.asarray(x, dtype=float)
    if sample_rate < 10.0 * f_ref:
        raise ValueError(f"f_ref={f_ref:g} unresolvable at fs={sample_rate:g}")
    if x.size / sample_rate < MIN_TIME_CONSTANTS * time_constant:
        raise ValueError("record shorter than 20 time constants")
    t = np.arange(x.size) / sample_rate
    w = 2.0 * math.pi * f_ref
    xi = x * (math.sqrt(2.0) * np.sin(w * t))
    xq = x * (math.sqrt(2.0) * np.cos(w * t))
    a = math.exp(-1.0 / (sample_rate * time_constant))
    b_coef, a_coef = [1.0 - a], [1.0, -a]
    # looked up at call time, so a replaced module attribute is the one run
    lfilter = sys.modules[__name__].lfilter
    for _ in range(filter_order):
        xi = lfilter(b_coef, a_coef, xi)
        xq = lfilter(b_coef, a_coef, xq)
    return LockInResult(*(float(v) for v in _polar(xi[-1], xq[-1])))


def _polar(x_f, y_f):
    """R = sqrt(X^2 + Y^2) and the phase in (-pi, pi] of X and Y."""
    phase = np.arctan2(y_f, x_f)
    return (np.hypot(x_f, y_f),
            np.where(phase <= -math.pi, phase + 2.0 * math.pi, phase))


def _noise_std(cfg: SynthesisConfig, gain):
    """Standard deviation of X and of Y due to the white input noise.

    The noise is white at density ``cfg.input_noise_density`` and reaches
    the mixer through a chain of magnitude ``gain`` at f_m.  Each channel
    then passes the cascade of ``filter_order`` = K sections, whose one-sided
    noise bandwidth is B = C(2K-2, K-1) / (4^K time_constant), so the
    standard deviation is density * gain * sqrt(B), and X and Y are
    uncorrelated.  This holds while |H| is flat across the band of width
    ~1/time_constant around f_m and the time constant is well above one
    sample, 1/(16 f_m): at order 4, within about 1e-5 relative of the exact
    covariance for the default chain at f_m >= 100 kHz and tau >= 0.2 ms.
    From the floor, tau f_m = 0.5, up, the mean of var X and var Y is within
    2.6e-3 of s^2, but at low orders each channel alone is not: a short
    cascade passes the 2 f_m part of the mixed noise.  With the unit chain
    at 250 kHz, var X / s^2 - 1, var Y / s^2 - 1 and corr(X, Y) at the floor
    are +3.0 %, -3.3 %, -0.31 at order 1 (beyond it, at most about +-0.06
    and about -0.155, over tau f_m) and +2.5 %, -2.0 %, +0.017 at order 2
    (within 2.5e-3 from tau f_m = 1); orders 3, 4 and 5-8 are within 3.8e-3,
    1.1e-3 and 9.5e-4, with |corr| within 1e-3, 2.5e-4 and 2e-5.
    """
    k = cfg.filter_order
    bandwidth = math.comb(2 * k - 2, k - 1) / (4 ** k * cfg.time_constant)
    return cfg.input_noise_density * gain * math.sqrt(bandwidth)


def _sweep(grid, f_m, scale, ens, geom, chain, cfg, rng):
    """Rows (x, R, phase) of a sweep over ``grid``, in closed form.

    Each point runs at modulation frequency ``f_m`` and excitation scale
    ``scale``, each one value or one per point, and reads the periodic
    steady state at a period's last sample.  The chain filters one period
    of the source at its harmonics; mixing with sqrt(2) e^{j w t} (Y + jX,
    w = 2 pi f_m) shifts that spectrum up one bin, and each of the
    ``filter_order`` = K sections y[n] = a y[n-1] + (1-a) x[n] multiplies
    bin k by (1-a) / (1 - a z), z = e^{-2 pi j k / 16}.  The denominator is
    written (1 - z) + (1-a) z, with 1-a from ``expm1``, so the DC gain is
    exactly 1 at any a.  The 2 f_m ripple the cascade passes stays in the
    reading.  The noise adds (X, Y) drawn iid from N(0, s^2), s from
    ``_noise_std``: each block draws its rows' standard normals from
    ``rng``, a normal stream (any object with ``standard_normal(shape)``),
    as one (points, 2) array, X in column 0.  The stream fills them in
    order, so row k is the k-th pair of ``rng``'s draws however the grid
    is split into blocks.

    Points go through as arrays, ``SWEEP_BLOCK`` at a time, so the
    temporaries stay bounded at any grid length.  The time constant in
    samples, 16 f_m tau, must be at least ``MIN_TAU_SAMPLES``, where
    ``_noise_std`` holds, and finite (where it overflows, 1-a is 0 and the
    DC bin reads 0/0); else ``ValueError`` before any point is computed.
    A non-finite output raises ``FloatingPointError``.  Both name the first
    bad point.
    """
    spp = SAMPLES_PER_PERIOD
    x, f_m, scale = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (grid, f_m, scale)))
    # an f_m near the float limit overflows fs to inf, which the check
    # below rejects
    with np.errstate(over="ignore"):
        fs = spp * f_m
        tau_samples = fs * cfg.time_constant
    bad = np.flatnonzero(~((tau_samples >= MIN_TAU_SAMPLES)
                           & (tau_samples < math.inf)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"time_constant {cfg.time_constant:g} s spans {tau_samples[k]:g} "
            f"samples at the sample rate {fs[k]:g} Hz; it must span at least "
            f"{MIN_TAU_SAMPLES} (time_constant * f_m >= "
            f"{MIN_TAU_SAMPLES / spp:g}) and a finite number")
    rows = np.empty((x.size, 3))
    rows[:, 0] = x
    z = np.exp(-2j * math.pi * np.arange(spp) / spp)
    for lo in range(0, x.size, SWEEP_BLOCK):
        blk = slice(lo, lo + SWEEP_BLOCK)
        rho = rydberg_population(f_m[blk], cfg.duty, ens, scale[blk], spp)
        _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
        h = chain.evaluate(np.arange(spp // 2 + 1) * f_m[blk, None])
        v_out = np.fft.irfft(np.fft.rfft(v_ac) * h, spp)
        mixed = math.sqrt(2.0) * np.roll(np.fft.fft(v_out), 1, axis=-1)
        g = -np.expm1(-1.0 / tau_samples[blk, None])
        # inverse DFT at the last sample, n = spp - 1: e^{2 pi j k n / spp} = z
        y = np.mean(z * mixed * (g / ((1.0 - z) + g * z)) ** cfg.filter_order,
                    axis=-1)
        s = _noise_std(cfg, np.abs(h[:, 1]))      # harmonic 1 is f_m
        draw = rng.standard_normal((len(y), 2))
        rows[blk, 1], rows[blk, 2] = _polar(y.imag + s * draw[:, 0],
                                            y.real + s * draw[:, 1])
    bad = np.flatnonzero(~np.isfinite(rows[:, 1:]).all(axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite lock-in output at sweep point "
                                 f"{bad[0]} (f_m={f_m[bad[0]]:g})")
    return rows


def sweep_vbc(grid, ens: EnsembleParams, geom: CellGeometry,
              chain: ChainResponse, syn: SynthesisConfig, rng):
    """Resonance sweep: rows (V_BC, R, phase) of the lock-in output versus
    bottom-plate voltage, at the modulation frequency ``syn.f_m``, with the
    input noise drawn from ``rng``, a normal stream: any object with
    ``standard_normal(shape)``."""
    return _sweep(grid, syn.f_m, stark_excitation_fraction(grid, ens), ens,
                  geom, chain, syn, rng)


def sweep_fm(grid, ens: EnsembleParams, geom: CellGeometry,
             chain: ChainResponse, syn: SynthesisConfig, rng):
    """Modulation-frequency sweep on resonance: rows (f_m, R, phase), at
    the ensemble's CW-calibrated drive rate, with the input noise drawn
    from ``rng``, a normal stream: any object with
    ``standard_normal(shape)``; ``syn.f_m`` is not used."""
    return _sweep(grid, grid, 1.0, ens, geom, chain, syn, rng)
