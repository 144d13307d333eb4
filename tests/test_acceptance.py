"""Acceptance suite: one checked, printed pass/fail line per criterion.

Each test evaluates its criterion at the stated tolerance and prints a
single summary line (bypassing capture so it always appears), then asserts.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import epsilon_0

from cryoreadout import chain as chain_mod, device, ivfit
from cryoreadout.chain import s21_db
from cryoreadout.cli import NormalStream, main as cli_main
from cryoreadout.config import load_config
from cryoreadout.device import (TransistorParams, calibrated_i_sat,
                                power_dissipation, solve_operating_point)
from cryoreadout.lockin import (SAMPLES_PER_PERIOD, demodulate, sweep_fm,
                                sweep_vbc)
from cryoreadout.source import image_charge_waveform, rydberg_population

import conftest
from conftest import (UNIT_CHAIN, dft_fundamental_rms,
                      grid_search_operating_point, noiseless_family, reference,
                      rms_image_current, sweep_point)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES[num] = line
    assert ok, f"acceptance criterion {num}: {detail}"


def test_c01_vac_values():
    geom = reference().geometry
    dq, v300 = image_charge_waveform(
        np.array([0.1]), replace(geom, c_parasitic=300e-12), 1e12)
    _, v10 = image_charge_waveform(
        np.array([0.1]), replace(geom, c_parasitic=10e-12), 1e12)
    ok = (abs(v300[0] - 10.5e-9) / 10.5e-9 <= 0.03
          and abs(v10[0] - 290e-9) / 290e-9 <= 0.03)
    _report(1, ok, f"V_ac = {v300[0] * 1e9:.3f} nV (C_p=300 pF), "
                   f"{v10[0] * 1e9:.1f} nV (C_p=10 pF); both within 3%")


def test_c02_intrinsic_gain():
    mu = ivfit.intrinsic_gain(124.0, 25e-3)
    ok = abs(mu - 4960.0) < 1e-9 and abs(mu - 5e3) / 5e3 <= 0.02
    _report(2, ok, f"mu_f = {mu:.0f}, within 2% of 5e3")


def test_c03_power():
    p_exact = power_dissipation(
        device.OperatingPoint(v_be=0.0, v_ce=0.9, i_b=0.0, i_c=1e-4))
    op = solve_operating_point(reference().network,
                               reference().transistor)
    p_full = power_dissipation(op)
    ok = p_exact == 9e-5 and 70e-6 <= p_full <= 110e-6
    _report(3, ok, f"collector term {p_exact * 1e6:.1f} uW exact; "
                   f"full P = {p_full * 1e6:.2f} uW in [70, 110] uW")


def test_c04_early_voltage_recovery():
    fit0 = ivfit.fit_early_voltage(noiseless_family())
    err0 = abs(fit0.v_early - 124.0) / 124.0
    vals = []
    for seed in range(100):
        ds = ivfit.synth_output_family(reference().transistor, noise=0.01,
                                       rng=NormalStream(seed))
        vals.append(ivfit.fit_early_voltage(ds).v_early)
    err_noisy = abs(np.mean(vals) - 124.0) / 124.0
    ok = err0 <= 0.005 and err_noisy <= 0.05
    _report(4, ok, f"V_A noise-free err {err0 * 100:.3f}% (<=0.5%); "
                   f"1%-noise mean over 100 seeds err {err_noisy * 100:.2f}% "
                   "(<=5%)")


def test_c05_beta_recovery():
    # beta_F from the Early-fit lines' i_c-axis intercepts, as fit-iv
    # reports it
    beta = ivfit.fit_early_voltage(noiseless_family()).beta_f
    err = abs(beta - 160.0) / 160.0
    ok = err <= 0.01
    _report(5, ok, f"beta_F = {beta:.2f}, err {err * 100:.2f}% (<=1%)")


def test_c06_s21_flatness():
    freqs = np.geomspace(1e5, 1e8, 200)
    cfg = load_config()
    both = np.array([d for _, d in s21_db(cfg.amplifier_chain(), freqs)])
    first_cfg = load_config(overrides={("chain", "stage"): "first"})
    first = np.array([d for _, d in s21_db(first_cfg.amplifier_chain(),
                                           freqs)])
    ok = np.all(np.abs(both - 40.0) <= 1.0) and np.all(np.abs(first) <= 1.0)
    _report(6, ok, f"two-stage S21 in [{both.min():.2f}, {both.max():.2f}] dB "
                   f"(40+-1); first stage in [{first.min():.2f}, "
                   f"{first.max():.2f}] dB (0+-1), 0.1-100 MHz, 200 points")


def test_c07_friis():
    first = chain_mod.StageResponse(gain_factor=1.0, noise_temperature=2.0)
    second = chain_mod.StageResponse(gain_factor=100.0, noise_temperature=6.0)
    t_total = chain_mod.ChainResponse(
        stages=(first, second)).total_noise_temperature()
    ok = abs(t_total - 8.0) < 1e-12
    _report(7, ok, f"T_total = {t_total:.12f} K (exactly 8 K)")


def test_c08_dc_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    net0 = reference().network
    worst = 0.0
    n_done = 0
    while n_done < 20:
        v_teff = rng.uniform(0.015, 0.04)
        beta = rng.uniform(50.0, 300.0)
        v_early = rng.uniform(30.0, 300.0)
        v1 = rng.uniform(0.7, 1.2)
        net = replace(net0, v_supply=v1,
                      r_upper=10 ** rng.uniform(4.5, 5.9),
                      r_lower=10 ** rng.uniform(4.5, 5.7),
                      r_collector=10 ** rng.uniform(2.7, 3.7),
                      r_emitter=rng.uniform(5.0, 50.0))
        i_target = 10 ** rng.uniform(-4.7, -3.7)
        if i_target * (net.r_collector + 1.01 * net.r_emitter) > 0.6 * v1:
            continue
        try:
            i_sat = calibrated_i_sat(net, v_teff, v_early, beta, i_target)
        except ValueError:
            continue
        params = TransistorParams(i_sat=i_sat, v_teff=v_teff,
                                  v_early=v_early, beta_f=beta)
        op = solve_operating_point(net, params)
        g_vbe, g_vce = grid_search_operating_point(net, params, step=1e-4)
        # along the collector load line dv_ce/dv_be = -r_loop*i_c/v_teff,
        # so the oracle's v_be quantization leverages into v_ce; scale the
        # v_ce tolerance by that sensitivity
        r_loop = net.r_collector + net.r_emitter * (1.0 + 1.0 / beta)
        lever = r_loop * op.i_c / v_teff
        worst = max(worst, abs(g_vbe - op.v_be) / 1.5e-4,
                    abs(g_vce - op.v_ce) / (1.5e-4 * (1.0 + lever)))
        n_done += 1
    ok = worst <= 1.0
    _report(8, ok, f"20 randomized sets: max normalized |bisection - grid| = "
                   f"{worst:.3f} (<= 1.0; 1.5 cells of the 0.1 mV grid, "
                   "v_ce scaled by the load-line sensitivity), "
                   f"{time.perf_counter() - t0:.1f} s")


def test_c09_lockin_vs_dft_oracle():
    fs, f_ref, tau = 4e6, 250e3, 1e-3
    spp = int(fs / f_ref)
    n = int(20 * tau * fs)
    n = (n // spp) * spp
    t = np.arange(n) / fs
    errs = {}

    sine = 0.7 * np.sin(2 * math.pi * f_ref * t + 0.4)
    square = (np.sin(2 * math.pi * f_ref * t) >= 0).astype(float)
    rho = np.tile(rydberg_population(f_ref, 0.5, reference().ensemble,
                                     1.0, spp), n // spp)
    order = reference().synthesis.filter_order
    for name, x in (("sine", sine), ("square", square), ("population", rho)):
        r = demodulate(x, f_ref, tau, order, fs).amplitude_r
        ref = dft_fundamental_rms(x, spp)
        errs[name] = abs(r - ref) / ref

    # the closed form the sweeps run: the population's image-charge voltage
    # through a one-point sweep, with a unit-gain chain and no noise
    ens, geom = reference().ensemble, reference().geometry
    syn = replace(reference().synthesis, input_noise_density=0.0)
    _, v_ac = image_charge_waveform(
        rydberg_population(f_ref, syn.duty, ens, 1.0, SAMPLES_PER_PERIOD),
        geom, ens.n_s)
    r = sweep_point(f_ref, 1.0, ens, geom, UNIT_CHAIN, syn,
                    NormalStream(0)).amplitude_r
    ref = dft_fundamental_rms(v_ac, SAMPLES_PER_PERIOD)
    errs["population via sweep"] = abs(r - ref) / ref
    ok = all(e <= 1e-3 for e in errs.values())
    detail = ", ".join(f"{k} {v * 100:.4f}%" for k, v in errs.items())
    _report(9, ok, f"lock-in R vs DFT fundamental: {detail} (each <=0.1%)")


def _fm_sweep(second_stage_f_low_khz=None, noise=35e-12):
    ref = reference()
    overrides = {} if second_stage_f_low_khz is None else \
        {("chain", "second_stage_f_low_kHz"): second_stage_f_low_khz}
    resp = load_config(overrides=overrides).amplifier_chain()
    cfg = replace(ref.synthesis, input_noise_density=noise, duty=0.5)
    grid = np.geomspace(1e5, 1e7, 25)
    out = sweep_fm(grid, ref.ensemble, ref.geometry, resp, cfg,
                   NormalStream(ref.seed))
    return grid, out[:, 1]


def test_c10_fm_sweep_shape():
    t0 = time.perf_counter()
    grid, r_def = _fm_sweep()
    f_peak = grid[int(np.argmax(r_def))]
    argmax_ok = 150e3 <= f_peak <= 300e3
    ratio_10m = r_def[-1] / r_def.max()
    tail_ok = ratio_10m < 0.2

    # low-corner check, noise-free: the second-stage high-pass corner
    # suppresses the low end (region 1) only; removing it restores the
    # low end while leaving mid-band untouched
    _, r_corner = _fm_sweep(noise=0.0)
    _, r_flat = _fm_sweep(second_stage_f_low_khz="0.001", noise=0.0)
    k_mid = int(np.argmin(np.abs(grid - 1e6)))
    ratio_low = r_corner[0] / r_flat[0]
    ratio_mid = r_corner[k_mid] / r_flat[k_mid]
    corner_ok = ratio_low < 0.97 and ratio_mid > 0.99

    ok = argmax_ok and tail_ok and corner_ok
    _report(10, ok,
            f"f_m sweep: argmax {f_peak / 1e3:.0f} kHz "
            f"({'in' if argmax_ok else 'NOT in'} [150, 300] kHz); "
            f"R(10MHz)/Rmax = {ratio_10m:.3f} (<0.2 {'ok' if tail_ok else 'FAIL'}); "
            f"corner suppression {ratio_low:.3f} at low end, {ratio_mid:.3f} "
            f"mid-band ({'ok' if corner_ok else 'FAIL'}); "
            f"{time.perf_counter() - t0:.0f} s")


def _vbc_sweep(v_resonance, noise):
    ref = reference()
    ens = replace(ref.ensemble, v_resonance=v_resonance)
    cfg = replace(ref.synthesis, input_noise_density=noise, f_m=250e3,
                  duty=0.5)
    grid = np.linspace(10.0, 12.5, 51)
    out = sweep_vbc(grid, ens, ref.geometry, ref.amplifier_chain(), cfg,
                    NormalStream(ref.seed))
    return grid, out[:, 1]


def test_c11_vbc_sweep_peak_and_shift():
    t0 = time.perf_counter()
    grid, r_def = _vbc_sweep(11.6, 35e-12)
    peak_def = grid[int(np.argmax(r_def))]
    peak_ok = abs(peak_def - 11.6) < 1e-9

    _, r_a = _vbc_sweep(11.6, 0.0)
    _, r_b = _vbc_sweep(10.45, 0.0)
    peak_b = grid[int(np.argmax(r_b))]
    shift_ok = abs(peak_b - 10.45) < 1e-9
    # rigid shift: 10.45 V curve equals the 11.6 V curve displaced by
    # exactly 23 grid steps (1.15 V), amplitudes unchanged
    rigid_ok = np.allclose(r_b[:-23], r_a[23:], rtol=1e-9)

    ok = peak_ok and shift_ok and rigid_ok
    _report(11, ok,
            f"V_BC peak at {peak_def:.2f} V (defaults); reconfigured peak at "
            f"{peak_b:.2f} V; rigid shift {'ok' if rigid_ok else 'FAIL'}; "
            f"{time.perf_counter() - t0:.0f} s")


def test_c12_rms_image_current():
    geom = reference().geometry
    i_verbatim = rms_image_current(100e3, geom, 1e12, 0.1)
    dq, _ = image_charge_waveform(np.array([0.1]), geom, 1e12)
    i_charge = 2.0 * math.pi * 100e3 * dq[0]

    geom_id = replace(geom, c_cell=epsilon_0 * 5.65e-3)
    dq_id, _ = image_charge_waveform(np.array([0.1]), geom_id, 1e12)
    identity_ok = abs(rms_image_current(100e3, geom_id, 1e12, 0.1)
                      - 2.0 * math.pi * 100e3 * dq_id[0]) \
        <= 1e-9 * i_verbatim
    ratio = i_verbatim / 100e-12
    order_ok = 0.1 <= ratio <= 10.0
    ok = identity_ok and order_ok
    _report(12, ok,
            f"verbatim formula {i_verbatim * 1e12:.1f} pA vs paper-style "
            f"100 pA (ratio {ratio:.2f}, within 10x); 2*pi*f*dq = "
            f"{i_charge * 1e12:.1f} pA; C_0 = eps0*S/D identity holds")


def test_c13_sweep_determinism(tmp_path):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--out", str(out1), "sweep", "--axis", "vbc",
                     "--grid", "11.3:11.9:7:lin"]) == 0
    manifest = out1 / "sweep_vbc_manifest.ini"
    assert cli_main(["--config", str(manifest), "--out", str(out2),
                     "sweep"]) == 0
    ok = (out1 / "sweep_vbc.csv").read_bytes() == \
        (out2 / "sweep_vbc.csv").read_bytes()
    _report(13, ok, "sweep rerun from its manifest is bit-identical "
                    f"({time.perf_counter() - t0:.0f} s)")
