import math
from dataclasses import replace

import numpy as np
import pytest

from cryoreadout import device
from cryoreadout.chain import (ChainResponse, StageResponse, fixed_gain_stage,
                               hbt_stage_response, s21_db, unity_gain_load)
from cryoreadout.cli import NormalStream
from cryoreadout.config import load_config

from conftest import UNIT_CHAIN, reference

R_SOURCE = reference()[("chain", "r_source_ohm")]


def _default_first_stage():
    net = reference().network
    params = reference().transistor
    op = device.solve_operating_point(net, params)
    ss = device.small_signal(op, params)
    return ss, net


def test_coupling_network_validation():
    geom = reference().geometry
    with pytest.raises(ValueError):
        replace(geom, c_cell=0.0)
    with pytest.raises(ValueError):
        replace(geom, c_parasitic=0.0)


def test_stage_response_validation():
    with pytest.raises(ValueError):
        StageResponse(gain_factor=1.0, poles=(-1.0,))
    # a noise temperature is a finite kelvin value, never below zero
    for t in (-5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="noise temperature"):
            StageResponse(gain_factor=1.0, noise_temperature=t)
    assert StageResponse(gain_factor=1.0).noise_temperature == 0.0


def test_fixed_gain_stage_midband():
    st = fixed_gain_stage(40.0, 100e3, 1.5e9, noise_temperature=6.0)
    assert abs(st.evaluate(10e6)) == pytest.approx(100.0, rel=0.01)
    assert abs(fixed_gain_stage(0.0, 1.0, 1e15).evaluate(1e6)) == \
        pytest.approx(1.0, rel=1e-6)


def test_fixed_gain_stage_corner_definitions():
    st = fixed_gain_stage(20.0, 1e3, 1e15)
    assert abs(st.evaluate(1e3)) == pytest.approx(10.0 / math.sqrt(2.0),
                                                  rel=1e-9)
    st = fixed_gain_stage(20.0, 1e-3, 1e6)
    assert abs(st.evaluate(1e6)) == pytest.approx(10.0 / math.sqrt(2.0),
                                                  rel=1e-6)
    with pytest.raises(ValueError):
        fixed_gain_stage(20.0, 1e9, 1e6)


def test_fixed_gain_stage_overflow():
    # a gain whose factor overflows is a bad value; one that underflows to
    # zero is left to s21_db, which rejects the zero gain it gives
    with pytest.raises(ValueError, match="overflows"):
        fixed_gain_stage(1e200, 1e3, 1e9)
    assert fixed_gain_stage(-1e200, 1e3, 1e9).gain_factor == 0.0


def test_cascade_identity_and_multiplicativity():
    st = fixed_gain_stage(20.0, 1e3, 1e9)
    single = ChainResponse(stages=(st,))
    f = np.geomspace(1e3, 1e8, 40)
    np.testing.assert_allclose(single.evaluate(f), st.evaluate(f), rtol=1e-15)

    both = ChainResponse(stages=(st, st))
    np.testing.assert_allclose(np.abs(both.evaluate(f)),
                               np.abs(st.evaluate(f)) ** 2, rtol=1e-12)
    assert abs(both.evaluate(1e6)) == pytest.approx(100.0, rel=0.01)

    with pytest.raises(ValueError):
        ChainResponse(stages=())


def test_friis_accumulation():
    first = StageResponse(gain_factor=1.0, noise_temperature=2.0)
    second = StageResponse(gain_factor=100.0, noise_temperature=6.0)
    total = ChainResponse(stages=(first, second)).total_noise_temperature()
    assert total == pytest.approx(8.0, rel=1e-12)


def test_friis_ordering():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g1, g2 = rng.uniform(1.0, 100.0, 2)
        t_low, t_high = sorted(rng.uniform(1.0, 50.0, 2))
        quiet = StageResponse(gain_factor=g1, noise_temperature=t_low)
        loud = StageResponse(gain_factor=g2, noise_temperature=t_high)
        t_good = ChainResponse(stages=(quiet, loud)).total_noise_temperature()
        t_bad = ChainResponse(stages=(loud, quiet)).total_noise_temperature()
        assert t_good <= t_bad + 1e-12


def test_friis_zero_gain_stage_rejected():
    dead = StageResponse(gain_factor=0.0, noise_temperature=2.0)
    live = StageResponse(gain_factor=100.0, noise_temperature=6.0)
    with pytest.raises(ValueError, match="zero gain"):
        ChainResponse(stages=(dead, live)).total_noise_temperature()


def test_hbt_midband_gain_formula():
    ss, net = _default_first_stage()
    st = hbt_stage_response(ss, net, load_resistance=50.0,
                            source_resistance=R_SOURCE)
    r_par = 1.0 / (1.0 / net.r_collector + 1.0 / ss.r_o + 1.0 / 50.0)
    assert abs(st.evaluate(10e6)) == pytest.approx(ss.g_m * r_par, rel=0.02)
    assert abs(st.evaluate(10e6)) == pytest.approx(0.19, rel=0.02)
    with pytest.raises(ValueError):
        hbt_stage_response(ss, net, load_resistance=0.0,
                           source_resistance=R_SOURCE)


def test_hbt_big_caps_flatten_response():
    ss, net0 = _default_first_stage()
    net = replace(net0, c_in=1.0, c_out=1.0, c_bypass=1.0)
    st = hbt_stage_response(ss, net, load_resistance=333.0,
                            source_resistance=R_SOURCE)
    assert abs(st.evaluate(1e3)) == pytest.approx(abs(st.evaluate(1e7)),
                                                  rel=0.01)


def test_unity_gain_load():
    # the load sets the mid-band gain g_m*(R_c || r_o || R_load) to unity;
    # every shelf and coupling factor is below 1, so |H| rises to it from
    # below and reaches it far above the corners
    ss, net = _default_first_stage()
    r_load = unity_gain_load(ss, net)
    r_par = 1.0 / (1.0 / net.r_collector + 1.0 / ss.r_o + 1.0 / r_load)
    assert ss.g_m * r_par == pytest.approx(1.0, rel=1e-14)
    first = load_config(overrides={("chain", "stage"): "first"}) \
        .amplifier_chain()
    mag = np.abs(first.evaluate(np.geomspace(1e3, 1e12, 400)))
    assert np.all(mag <= 1.0)
    assert mag[-1] == pytest.approx(1.0, abs=1e-12)


def test_first_stage_flat_at_unity():
    resp = load_config(overrides={("chain", "stage"): "first"}) \
        .amplifier_chain()
    db = np.array([d for _, d in s21_db(resp, np.geomspace(1e5, 1e8, 200))])
    assert np.all(np.abs(db) <= 1.0)


def test_two_stage_flat_at_40db():
    resp = load_config().amplifier_chain()
    db = np.array([d for _, d in s21_db(resp, np.geomspace(1e5, 1e8, 200))])
    assert np.all(np.abs(db - 40.0) <= 1.0)
    with pytest.raises(ValueError):
        load_config(overrides={("chain", "stage"): "third"})


def test_s21_db():
    rows = s21_db(UNIT_CHAIN, [1e3, 1e6, 1e9])
    assert all(db == pytest.approx(0.0, abs=1e-12) for _, db in rows)
    pole = ChainResponse(
        stages=(StageResponse(gain_factor=1.0, poles=(1e6,)),))
    rows = s21_db(pole, [1e6])
    assert rows[0][1] == pytest.approx(-10.0 * math.log10(2.0), rel=1e-9)
    with pytest.raises(ValueError):
        s21_db(UNIT_CHAIN, [0.0, 1e6])


def test_transfer_function_matches_impulse_response_fft():
    from cryoreadout.lockin import synthesize

    resp = load_config().amplifier_chain()
    n, fs = 2 ** 16, 2.5e8
    impulse = np.zeros(n)
    impulse[0] = 1.0
    cfg = replace(reference().synthesis, input_noise_density=0.0)
    out = synthesize(impulse, resp, cfg, fs, NormalStream(0))
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    mag_db = 20.0 * np.log10(np.abs(np.fft.rfft(out)[1:]))
    ref_db = np.array([d for _, d in s21_db(resp, freqs[1:])])
    band = (freqs[1:] >= 1e5) & (freqs[1:] <= 1e8)
    assert np.max(np.abs(mag_db[band] - ref_db[band])) < 0.1
