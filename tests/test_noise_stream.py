"""``cli.NormalStream``, the counter-based normal stream every command draws
its noise from: SplitMix64 outputs into Box-Muller pairs, draw k a pure
function of (seed, k).  numpy's ``default_rng`` is the distribution oracle.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import ks_2samp

from cryoreadout import lockin
from cryoreadout.cli import NormalStream

SEEDS = [0, 1, 42, 2 ** 32, 2 ** 64 - 1]
M64 = 2 ** 64


def _splitmix64(state, n):
    """SplitMix64's first ``n`` outputs from ``state``, in Python integers:
    the reference the stream's uint64 arrays must reproduce."""
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % M64
        out.append(z ^ (z >> 31))
    return out


def _mix(z):
    return _splitmix64((z - 0x9E3779B97F4A7C15) % M64, 1)[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_splitmix64_into_box_muller(seed):
    # counters 2i, 2i + 1 are SplitMix64's outputs from the state mix(seed);
    # their top 53 bits give u1 in (0, 1] and u2 in [0, 1)
    bits = _splitmix64(_mix(seed), 8)
    want = []
    for b1, b2 in zip(bits[0::2], bits[1::2]):
        r = math.sqrt(-2.0 * math.log(((b1 >> 11) + 1) * 2.0 ** -53))
        t = 2.0 * math.pi * (b2 >> 11) * 2.0 ** -53
        want += [r * math.cos(t), r * math.sin(t)]
    np.testing.assert_allclose(NormalStream(seed).standard_normal(8), want,
                               rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_deterministic(seed):
    a = NormalStream(seed).standard_normal((100, 2))
    np.testing.assert_array_equal(a,
                                  NormalStream(seed).standard_normal((100, 2)))
    assert not np.array_equal(a,
                              NormalStream(seed ^ 1).standard_normal((100, 2)))


@given(seed=st.integers(0, M64 - 1),
       sizes=st.lists(st.integers(0, 9), min_size=1, max_size=8))
@example(seed=7, sizes=[5, 7])
def test_any_split_equals_one_call(seed, sizes):
    # odd counts end a call inside a Box-Muller pair; the next call picks
    # the pair's second draw up, and an empty draw does not advance
    s = NormalStream(seed)
    parts = np.concatenate([s.standard_normal(n) for n in sizes])
    np.testing.assert_array_equal(
        parts, NormalStream(seed).standard_normal(sum(sizes)))


def test_row_draws_split_across_blocks_equal_one_draw():
    # a sweep draws one (points, 2) array per SWEEP_BLOCK points; row k is
    # the k-th pair of the stream however the grid is blocked
    n = lockin.SWEEP_BLOCK + 3
    s = NormalStream(3)
    blocks = np.concatenate([s.standard_normal((min(lockin.SWEEP_BLOCK,
                                                    n - lo), 2))
                             for lo in range(0, n, lockin.SWEEP_BLOCK)])
    one = NormalStream(3).standard_normal((n, 2))
    assert one.shape == (n, 2)
    np.testing.assert_array_equal(blocks, one)
    s = NormalStream(3)
    s.standard_normal(1)
    np.testing.assert_array_equal(s.standard_normal((4, 2)),
                                  one.ravel()[1:9].reshape(4, 2))


def _uniforms(z):
    """The (u1, u2) of each Box-Muller pair of ``z``, back in counter order:
    u1 = exp(-(x^2 + y^2) / 2) and u2 = atan2(y, x) / 2 pi, mod 1."""
    x, y = z[0::2], z[1::2]
    u = np.empty(z.size)
    u[0::2] = np.exp(-0.5 * (x * x + y * y))
    u[1::2] = np.arctan2(y, x) / (2.0 * math.pi) % 1.0
    return u


@pytest.mark.parametrize("seed", [0, 1, 1000, 2 ** 63, 2 ** 64 - 2])
def test_adjacent_seeds_are_not_shifted_copies(seed):
    # seeds s and s + 1 share no draw, and the cross-correlation of their
    # draws, and of the uniforms under them in counter order, at lags 0-4,
    # either stream leading, stays within 5 standard errors of 0
    n = 100_000
    a = NormalStream(seed).standard_normal(n + 4)
    b = NormalStream(seed + 1).standard_normal(n + 4)
    assert np.intersect1d(a, b).size == 0
    bound = 5.0 / math.sqrt(n)
    for u, v in ((a, b), (_uniforms(a), _uniforms(b))):
        for lag in range(5):
            for x, y in ((u, v), (v, u)):
                r = np.corrcoef(x[:n], y[lag:lag + n])[0, 1]
                assert abs(r) < bound, (lag, r)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_distribution_matches_default_rng(seed):
    # a two-sample KS test against numpy's generator at the same seed, the
    # mean and variance within 5 standard errors of N(0, 1), the X/Y
    # columns of a sweep's (points, 2) draw uncorrelated within 5 standard
    # errors, and every draw inside Box-Muller's sqrt(106 ln 2) tail bound
    n = 50_000
    z = NormalStream(seed).standard_normal((n, 2))
    oracle = np.random.default_rng(seed).standard_normal(2 * n)
    assert ks_2samp(z.ravel(), oracle).pvalue > 1e-3
    flat = z.ravel()
    assert abs(flat.mean()) < 5.0 / math.sqrt(2 * n)
    assert abs(flat.var() - 1.0) < 5.0 * math.sqrt(2.0 / (2 * n))
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 5.0 / math.sqrt(n)
    assert np.abs(flat).max() <= math.sqrt(106.0 * math.log(2.0))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_stream_never_warns(seed):
    # the uint64 products wrap mod 2**64 as arrays, which numpy does not
    # warn on (its scalars do), and no float step under- or overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            s = NormalStream(seed)
            for shape in (1, (3, 2), 0, (lockin.SWEEP_BLOCK, 2), 7):
                assert np.all(np.isfinite(s.standard_normal(shape)))


@pytest.mark.parametrize("seed", [1.5, -1, M64])
def test_seed_outside_uint64_is_an_input_error(seed):
    # a float would truncate to another seed's stream, and a negative or
    # too-large int would alias one mod 2**64: each is a ValueError (exit
    # 2) naming the seed, not an OverflowError (exit 3)
    with pytest.raises(ValueError, match=f"got {seed!r}$"):
        NormalStream(seed)
