"""Lock-in readout of the source through the amplifier chain.

Sweeps compute each point in closed form.  The source is exactly periodic
and the chain and the lock-in are linear, so one period filtered by the
chain at its harmonics gives the periodic steady state, and the settled
(X, Y) of the low-pass cascade follows from that period by a matrix
geometric series.  White input noise adds a bivariate Gaussian to (X, Y)
whose variance is exact to about 1e-5 relative; each point draws it from
its own ``(seed, index)`` stream.

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
from .source import (CellGeometry, DriveWaveform, EnsembleParams,
                     image_charge_waveform, rydberg_population,
                     stark_excitation_fraction)

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


@dataclass(frozen=True)
class SynthesisConfig:
    """Per-run synthesis/demodulation settings."""

    noise_seed: int
    input_noise_density: float   # V/sqrt(Hz), referred to chain input
    time_constant: float         # lock-in time constant, s
    filter_order: int

    def __post_init__(self):
        if not self.time_constant > 0:
            raise ValueError("time_constant must be positive")
        if self.filter_order < 1:
            raise ValueError("filter_order must be >= 1")
        if not self.input_noise_density >= 0:
            raise ValueError("input_noise_density must be non-negative")


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


def synthesize(v_source, chain: ChainResponse | None, cfg: SynthesisConfig,
               sample_rate: float, rng=None):
    """Filter a sampled source voltage through the chain and add noise.

    Deterministic for a fixed seed/rng.  The sweeps do not call this: they
    use the closed form, and this full-record path is its oracle in the
    tests.
    """
    v_source = np.asarray(v_source, dtype=float)
    n = v_source.size
    spectrum = np.fft.rfft(v_source)
    if chain is not None:
        h = chain.evaluate(np.fft.rfftfreq(n, 1.0 / sample_rate))
        spectrum = spectrum * h
    out = np.fft.irfft(spectrum, n)
    if cfg.input_noise_density > 0:
        if rng is None:
            rng = np.random.default_rng(cfg.noise_seed)
        sigma = cfg.input_noise_density * math.sqrt(sample_rate / 2.0)
        noise = rng.normal(0.0, sigma, n)
        if chain is not None:
            noise = np.fft.irfft(np.fft.rfft(noise) * h, n)
        out = out + noise
    return out


def demodulate(x, f_ref: float, time_constant: float, filter_order: int = 4,
               sample_rate: float | None = None) -> LockInResult:
    """Lock-in demodulation of a sampled record.

    Quadrature mixing with unit-RMS references followed by ``filter_order``
    cascaded single-pole low-pass sections; the settled final value gives
    R = sqrt(X^2 + Y^2) (RMS convention) and the phase relative to a sine
    reference.  The sweeps compute the same settled value in closed form;
    this sample-by-sample path is their oracle in the tests.
    """
    x = np.asarray(x, dtype=float)
    if sample_rate is None:
        raise ValueError("sample_rate is required")
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

    ``mixed`` holds one period, one column per channel.  With state s_k
    (section k's output) one sample is s <- A s + B x; one period is the
    affine map s <- P s + b with P = A^spp, so the final state is
    (sum_{p < n_periods} P^p) b.  A is entry-wise nonnegative, and so are
    the doubling steps of that sum: no cancellation even when P is close to
    the identity.
    """
    spp = mixed.shape[0]
    g = 1.0 - a
    k = np.arange(order)
    # A[k, j] = a (1-a)^(k-j) for j <= k;  B[k] = (1-a)^(k+1)
    diff = k[:, None] - k[None, :]
    step = np.where(diff >= 0, a * g ** np.maximum(diff, 0), 0.0)
    period = np.linalg.matrix_power(step, spp)
    # b[k] = sum_i w_k[L] mixed[i] with lag L = spp-1-i and the section-k
    # impulse response w_k[L] = (1-a)^(k+1) C(L+k, k) a^L
    lag = np.arange(spp - 1, -1, -1, dtype=float)
    w = np.empty((order, spp))
    w[0] = g * a ** lag
    for j in range(1, order):
        w[j] = w[j - 1] * g * (lag + j) / j
    b = w @ mixed
    # binary doubling over the bits of n_periods: total = sum_{p<m} P^p,
    # power = P^m
    total = np.zeros((order, order))
    power = np.eye(order)
    for bit in bin(n_periods)[2:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ period
    return (total @ b)[-1]


def _cascade_energy(a, order):
    """Sum of g[m]^2 over the impulse response g of ``order`` sections
    y[n] = a*y[n-1] + (1-a)*x[n]:

        (1-a)^(2K) (1-a^2)^(1-2K) sum_{j<K} C(K-1, j)^2 a^(2j),  K = order,

    evaluated as (1-a) (1+a)^(1-2K) sum(...).
    """
    series = sum(math.comb(order - 1, j) ** 2 * a ** (2 * j)
                 for j in range(order))
    return (1.0 - a) * (1.0 + a) ** (1 - 2 * order) * series


def _noise_std(cfg: SynthesisConfig, fs, gain):
    """Standard deviation of X and of Y due to the white input noise.

    The noise is white at density ``cfg.input_noise_density`` up to fs/2
    and reaches the mixer through a chain of magnitude ``gain`` at f_m.
    The lock-in passes only a band of width ~1/time_constant around f_m,
    so the variance is density^2 (fs/2) gain^2 times the cascade's
    impulse-response energy, and X and Y are uncorrelated.  Taking |H| as
    constant across that band is the one approximation: within about 1e-5
    relative of the exact covariance for the default chain at f_m >= 100 kHz
    and time constants >= 0.2 ms.
    """
    a = math.exp(-1.0 / (fs * cfg.time_constant))
    return cfg.input_noise_density * gain * math.sqrt(
        fs / 2.0 * _cascade_energy(a, cfg.filter_order))


def _run_point(index, f_m, duty, excitation_rate, scale, ens, geom, chain,
               cfg):
    """Lock-in output of one sweep point in closed form.

    The record ``synthesize`` + ``demodulate`` would process is one period
    tiled ``n_per`` times, and the chain filters it circularly, so the
    noise-free lock-in input is one chain-filtered period repeated; its
    settled (X, Y) is ``_settled_output``.  The noise adds (X, Y) drawn iid
    from N(0, s^2), s from ``_noise_std``, from the RNG stream keyed by
    (seed, index), X first.
    """
    drive = DriveWaveform(f_m=f_m, duty=duty, excitation_rate=excitation_rate)
    spp, n_per = _resolve_sampling(cfg, f_m)
    fs = spp * f_m
    rho = rydberg_population(drive, ens, excitation_scale=scale,
                             n_periods=1, samples_per_period=spp)
    _, v_ac = image_charge_waveform(rho, geom, ens.n_s)
    spectrum = np.fft.rfft(v_ac)
    gain = 1.0
    if chain is not None:
        h = chain.evaluate(np.fft.rfftfreq(spp, 1.0 / fs))
        spectrum = spectrum * h
        gain = abs(h[1])      # harmonic 1 is f_m
    v_out = np.fft.irfft(spectrum, spp)
    t = np.arange(spp) / fs
    w = 2.0 * math.pi * f_m
    refs = math.sqrt(2.0) * np.stack([np.sin(w * t), np.cos(w * t)], axis=1)
    a = math.exp(-1.0 / (fs * cfg.time_constant))
    x_f, y_f = _settled_output(v_out[:, None] * refs, a, cfg.filter_order,
                               n_per)
    s = _noise_std(cfg, fs, gain)
    z = np.random.default_rng((cfg.noise_seed, index)).standard_normal(2)
    res = _result(x_f + s * z[0], y_f + s * z[1])
    if not (math.isfinite(res.amplitude_r) and math.isfinite(res.phase)):
        raise FloatingPointError(
            f"non-finite lock-in output at sweep point {index} (f_m={f_m:g})")
    return res


def sweep_vbc(v_bc_grid, drive: DriveWaveform, ens: EnsembleParams,
              geom: CellGeometry, chain: ChainResponse | None,
              cfg: SynthesisConfig):
    """Resonance sweep: lock-in amplitude versus bottom-plate voltage."""
    v_bc_grid = list(v_bc_grid)
    if any(b < a for a, b in zip(v_bc_grid, v_bc_grid[1:])):
        raise ValueError("v_bc grid must be sorted ascending")
    out = []
    for k, v_bc in enumerate(v_bc_grid):
        scale = stark_excitation_fraction(v_bc, ens)
        res = _run_point(k, drive.f_m, drive.duty, drive.excitation_rate,
                         scale, ens, geom, chain, cfg)
        out.append((v_bc, res))
    return out


def sweep_fm(f_m_grid, ens: EnsembleParams, geom: CellGeometry,
             chain: ChainResponse | None, cfg: SynthesisConfig,
             duty: float, excitation_rate: float | None = None):
    """Modulation-frequency sweep on resonance."""
    f_m_grid = list(f_m_grid)
    if any(b < a for a, b in zip(f_m_grid, f_m_grid[1:])):
        raise ValueError("f_m grid must be sorted ascending")
    out = []
    for k, f_m in enumerate(f_m_grid):
        res = _run_point(k, f_m, duty, excitation_rate, 1.0, ens, geom, chain,
                         cfg)
        out.append((f_m, res))
    return out
