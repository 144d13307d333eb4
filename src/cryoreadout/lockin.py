"""Lock-in readout of the source through the amplifier chain.

Sweeps compute each point in closed form.  The source is exactly periodic
and the chain and the lock-in are linear, so one period filtered by the
chain at its harmonics gives the periodic steady state.  One sample of the
low-pass cascade is a homogeneous matrix over the section outputs and the
input, so the settled (X, Y) is one entry of a power of that period's
product.  White input noise adds a bivariate Gaussian to (X, Y) of standard
deviation density * |H(f_m)| * sqrt(B), B the cascade's noise bandwidth;
this holds while |H| is flat across that band and the time constant is
well above one sample.  Each point draws it from its own ``(seed, index)``
stream.

``synthesize`` and ``demodulate`` are the time-domain path the closed form
replaces, kept as its oracle: the full record filtered by the chain via
FFT with white Gaussian noise added, then mixed with unit-RMS sine/cosine
references at the modulation frequency and low-passed by a cascade of
identical single-pole IIR sections, reading the final settled value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

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
MIN_PERIODS = 200
MIN_TIME_CONSTANTS = 20.0
# low-pass cascade orders lock-in amplifiers offer: 6 to 48 dB/octave
MAX_FILTER_ORDER = 8


@dataclass(frozen=True)
class SynthesisConfig:
    """The ``[synthesis]`` section: drive modulation, input noise and
    lock-in settings of a run."""

    noise_seed: int
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


@dataclass(frozen=True)
class LockInResult:
    amplitude_r: float    # RMS convention
    phase: float          # radians, in (-pi, pi]


def _resolve_sampling(cfg: SynthesisConfig, f_m: float):
    """Samples per period and period count for one sweep point: 16 samples
    per modulation period over max(20 time constants, 200 periods)."""
    n_per = max(int(math.ceil(MIN_TIME_CONSTANTS * cfg.time_constant * f_m)),
                MIN_PERIODS)
    return SAMPLES_PER_PERIOD, n_per


def synthesize(v_source, chain: ChainResponse, cfg: SynthesisConfig,
               sample_rate: float, rng: np.random.Generator):
    """Filter a sampled source voltage through the chain and add white
    input noise drawn from ``rng``, filtered by the chain too.

    The sweeps do not call this: they use the closed form, and this
    full-record path is its oracle in the tests.
    """
    v_source = np.asarray(v_source, dtype=float)
    n = v_source.size
    h = chain.evaluate(np.fft.rfftfreq(n, 1.0 / sample_rate))
    out = np.fft.irfft(np.fft.rfft(v_source) * h, n)
    if cfg.input_noise_density > 0:
        sigma = cfg.input_noise_density * math.sqrt(sample_rate / 2.0)
        noise = rng.normal(0.0, sigma, n)
        out = out + np.fft.irfft(np.fft.rfft(noise) * h, n)
    return out


def demodulate(x, f_ref: float, time_constant: float, filter_order: int,
               sample_rate: float) -> LockInResult:
    """Lock-in demodulation of a sampled record.

    Quadrature mixing with unit-RMS references followed by ``filter_order``
    cascaded single-pole low-pass sections; the settled final value gives
    R = sqrt(X^2 + Y^2) (RMS convention) and the phase relative to a sine
    reference.  The sweeps compute the same settled value in closed form;
    this sample-by-sample path is their oracle in the tests.
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
    for _ in range(filter_order):
        xi = lfilter(b_coef, a_coef, xi)
        xq = lfilter(b_coef, a_coef, xq)
    return _result(xi[-1], xq[-1])


def _result(x_f, y_f) -> LockInResult:
    phase = math.atan2(y_f, x_f)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return LockInResult(amplitude_r=float(math.hypot(x_f, y_f)), phase=phase)


def _settled_output(mixed, a, order, n_periods):
    """Final output of ``order`` sections y[n] = a*y[n-1] + (1-a)*x[n],
    started from rest and driven by ``n_periods`` repeats of ``mixed``.

    ``mixed`` holds one period, one column per channel, and S holds the
    section outputs in the same columns.  A sample x maps S to A S + B x^T,
    the homogeneous map [S; I] <- [[A, B x^T], [0, I]] [S; I].  A period is
    the product of its samples' maps, and the record is that product's
    ``n_periods``-th power applied to [0; I].
    """
    g = 1.0 - a
    k = np.arange(order)
    step = np.eye(order + mixed.shape[1])
    period = step.copy()
    # A[k, j] = a (1-a)^(k-j) for j <= k;  B[k] = (1-a)^(k+1)
    step[:order, :order] = np.tril(a * g ** np.abs(k[:, None] - k))
    b = g ** (k + 1)
    for x in mixed:
        step[:order, order:] = np.outer(b, x)
        period = step @ period
    return np.linalg.matrix_power(period, n_periods)[order - 1, order:]


def _noise_std(cfg: SynthesisConfig, gain):
    """Standard deviation of X and of Y due to the white input noise.

    The noise is white at density ``cfg.input_noise_density`` and reaches
    the mixer through a chain of magnitude ``gain`` at f_m.  Each channel
    then passes the cascade of ``filter_order`` = K sections, whose one-sided
    noise bandwidth is B = C(2K-2, K-1) / (4^K time_constant), so the
    standard deviation is density * gain * sqrt(B), and X and Y are
    uncorrelated.  This holds while |H| is flat across the band of width
    ~1/time_constant around f_m and the time constant is well above one
    sample, 1/(16 f_m): within about 1e-5 relative of the exact covariance
    for the default chain at f_m >= 100 kHz and time constants >= 0.2 ms.
    """
    k = cfg.filter_order
    bandwidth = math.comb(2 * k - 2, k - 1) / (4 ** k * cfg.time_constant)
    return cfg.input_noise_density * gain * math.sqrt(bandwidth)


def _run_point(index, f_m, scale, ens, geom, chain, cfg):
    """Lock-in output of one sweep point in closed form.

    The record ``synthesize`` + ``demodulate`` would process is one period
    tiled ``n_per`` times, and the chain filters it circularly, so the
    noise-free lock-in input is one chain-filtered period repeated; its
    settled (X, Y) is ``_settled_output``.  The noise adds (X, Y) drawn iid
    from N(0, s^2), s from ``_noise_std``, from the RNG stream keyed by
    (seed, index), X first.
    """
    spp, n_per = _resolve_sampling(cfg, f_m)
    fs = spp * f_m
    rho = rydberg_population(f_m, cfg.duty, ens, scale, spp)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
    h = chain.evaluate(np.fft.rfftfreq(spp, 1.0 / fs))
    v_out = np.fft.irfft(np.fft.rfft(v_ac) * h, spp)
    t = np.arange(spp) / fs
    w = 2.0 * math.pi * f_m
    refs = math.sqrt(2.0) * np.stack([np.sin(w * t), np.cos(w * t)], axis=1)
    a = math.exp(-1.0 / (fs * cfg.time_constant))
    if a == 1.0:
        raise ValueError(
            f"time_constant {cfg.time_constant:g} s is too long for the "
            f"sample rate {fs:g} Hz: the lock-in filter would pass nothing")
    x_f, y_f = _settled_output(v_out[:, None] * refs, a, cfg.filter_order,
                               n_per)
    s = _noise_std(cfg, abs(h[1]))      # harmonic 1 is f_m
    z = np.random.default_rng((cfg.noise_seed, index)).standard_normal(2)
    res = _result(x_f + s * z[0], y_f + s * z[1])
    if not (math.isfinite(res.amplitude_r) and math.isfinite(res.phase)):
        raise FloatingPointError(
            f"non-finite lock-in output at sweep point {index} (f_m={f_m:g})")
    return res


def sweep_vbc(grid, ens: EnsembleParams, geom: CellGeometry,
              chain: ChainResponse, syn: SynthesisConfig):
    """Resonance sweep: lock-in amplitude versus bottom-plate voltage, at
    the modulation frequency ``syn.f_m``."""
    grid = list(grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("v_bc grid must be sorted ascending")
    out = []
    for k, v_bc in enumerate(grid):
        scale = stark_excitation_fraction(v_bc, ens)
        res = _run_point(k, syn.f_m, scale, ens, geom, chain, syn)
        out.append((v_bc, res))
    return out


def sweep_fm(grid, ens: EnsembleParams, geom: CellGeometry,
             chain: ChainResponse, syn: SynthesisConfig):
    """Modulation-frequency sweep on resonance, at the ensemble's
    CW-calibrated drive rate; ``syn.f_m`` is not used."""
    grid = list(grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("f_m grid must be sorted ascending")
    out = []
    for k, f_m in enumerate(grid):
        res = _run_point(k, f_m, 1.0, ens, geom, chain, syn)
        out.append((f_m, res))
    return out
