import csv
import math

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from cryoreadout import chain as chain_mod, device, ivfit, source
from cryoreadout.cli import main
from cryoreadout.config import _SCHEMA, ConfigError, load_config
from cryoreadout.lockin import SynthesisConfig


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- config ----------------------------------------------------------------

def test_defaults_match_module_defaults():
    cfg = load_config(None)
    net, ref = cfg.network(), device.default_network()
    for f in ("v_supply", "r_upper", "r_lower", "r_collector", "r_emitter",
              "c_in", "c_out", "c_bypass"):
        # scale multiplication may differ from the literal by one ULP
        assert getattr(net, f) == pytest.approx(getattr(ref, f), rel=1e-14)
    params = cfg.transistor()
    assert params.i_sat == pytest.approx(6.352589914763768e-08, rel=1e-12)
    assert params.beta_f == 160.0 and params.v_early == 124.0
    geom = cfg.geometry()
    assert geom.s_over_d == pytest.approx(5.65e-3)
    ens = cfg.ensemble()
    assert ens.n_s == pytest.approx(1e12)     # 1e8 cm^-2
    assert ens.v_resonance == 11.6
    assert cfg.seed == 0


def test_unit_suffix_scaling(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[network]\nr_upper_kohm = 100\n[ensemble]\ntau_relax_us = 2\n")
    cfg = load_config(p)
    assert cfg.network().r_upper == pytest.approx(1e5)
    assert cfg.ensemble().tau_relax == pytest.approx(2e-6)


@pytest.mark.parametrize("text", [
    "[network]\nr_upper_ohm = 100\n",        # wrong unit suffix = unknown key
    "[mystery]\nx = 1\n",
    "[network]\nr_upper_kohm = abc\n",
    "[run]\nseed = 1.5\n",
])
def test_config_rejects_bad_input(tmp_path, text):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("build", [
    lambda: source.EnsembleParams(tau_relax=math.nan),
    lambda: source.EnsembleParams(linewidth_v=math.nan),
    lambda: source.DriveWaveform(f_m=math.nan),
    lambda: source.CellGeometry(c_parasitic=math.nan),
    lambda: chain_mod.StageResponse(gain_factor=1.0, poles=(math.nan,)),
    lambda: SynthesisConfig(time_constant=math.nan),
    lambda: SynthesisConfig(input_noise_density=math.nan),
    lambda: device.TransistorParams(i_sat=1e-12, v_teff=0.025,
                                    v_early=math.nan, beta_f=160.0),
    lambda: device.TransistorParams(i_sat=1e-12, v_teff=0.025,
                                    v_early=124.0, beta_f=math.nan),
    lambda: chain_mod.hbt_stage_response(
        device.SmallSignalParams(g_m=4e-3, r_pi=4e4, r_o=1.24e6),
        device.default_network(), 50.0, source_resistance=math.nan),
])
def test_module_objects_reject_nan(build):
    with pytest.raises(ValueError):
        build()


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_config_roundtrip(tmp_path):
    cfg = load_config(None)
    p = tmp_path / "resolved.ini"
    p.write_text(cfg.as_text())
    cfg2 = load_config(p)
    assert cfg2._values == cfg._values


# keys that CellGeometry checks for > 0; any finite value elsewhere
_POSITIVE_KEYS = {("geometry", "c_cell_pF"), ("geometry", "s_over_d_mm"),
                  ("geometry", "delta_z_nm"), ("chain", "c_parasitic_pF")}


def _numeric_value(section, key):
    kind = _SCHEMA[section][key][0][0]
    if kind == "int":
        return st.integers(-10 ** 6, 10 ** 6).map(str)
    lo = 1e-200 if (section, key) in _POSITIVE_KEYS else -1e200
    return st.floats(lo, 1e200).map(repr)


_NUMERIC_KEYS = [(section, key) for section, keys in _SCHEMA.items()
                 for key, ((kind, _), _) in keys.items() if kind != "str"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.fixed_dictionaries(
    {sk: _numeric_value(*sk) for sk in _NUMERIC_KEYS}))
# 1953125 nF is stored as 2**-9 F, and 2**-9 / 1e-9 * 1e-9 != 2**-9
@example(raw={**{sk: "1" for sk in _NUMERIC_KEYS},
              ("network", "c_bypass_nF"): "1953125"})
def test_config_manifest_roundtrip_property(tmp_path, raw):
    # load -> as_text -> load is exact for every numeric key
    cfg = load_config(None, overrides=raw)
    p = tmp_path / "manifest.ini"
    p.write_text(cfg.as_text())
    cfg2 = load_config(p)
    assert cfg2._values == cfg._values
    assert cfg2.as_text() == cfg.as_text()
    assert cfg2.geometry().c_parasitic == \
        float(raw[("chain", "c_parasitic_pF")]) * 1e-12


def test_explicit_i_sat(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[device]\ni_sat_A = 1e-12\n")
    assert load_config(p).transistor().i_sat == 1e-12


# -- cli -------------------------------------------------------------------

def test_cli_opp(capsys):
    assert main(["opp"]) == 0
    out = capsys.readouterr().out
    assert "I_c" in out and "uW" in out
    assert "mixing_chamber" in out and "[margin < 10x dissipation]" in out


def test_cli_s21_first_stage(tmp_path):
    assert main(["--out", str(tmp_path), "s21", "--stage", "first"]) == 0
    header, rows = _read_csv(tmp_path / "s21_first.csv")
    assert header == ["f_Hz", "s21_dB"]
    assert len(rows) == 200
    db = np.array([float(r[1]) for r in rows])
    assert np.all(np.abs(db) <= 1.0)


def test_cli_s21_single_point(tmp_path):
    assert main(["--out", str(tmp_path), "s21", "--f-min", "1e6",
                 "--f-max", "1e6"]) == 0
    _, rows = _read_csv(tmp_path / "s21_both.csv")
    assert len(rows) == 1


@pytest.mark.parametrize("grid", [
    ["--f-min", "nan", "--f-max", "nan"],
    ["--f-max", "inf"],
    ["--points", "0"],
    ["--f-min", "1e6", "--f-max", "1e5"],
], ids=["nan", "inf", "no-points", "descending"])
def test_cli_s21_bad_grid(tmp_path, grid):
    # the s21 grid goes through the sweep --grid checks: exit 2, no CSV
    assert main(["--out", str(tmp_path), "s21", *grid]) == 2
    assert not (tmp_path / "s21_both.csv").exists()


def test_cli_gen_and_fit_iv(tmp_path):
    out_csv = tmp_path / "family.csv"
    in_csv = tmp_path / "diode.csv"
    assert main(["gen-iv", "--kind", "output", "--path", str(out_csv)]) == 0
    assert main(["gen-iv", "--kind", "input", "--path", str(in_csv)]) == 0
    assert main(["--out", str(tmp_path), "fit-iv", "--output-chars",
                 str(out_csv), "--input", str(in_csv)]) == 0
    _, rows = _read_csv(tmp_path / "fit_iv_report.csv")
    report = dict(rows)
    assert float(report["v_early_V"]) == pytest.approx(124.0, rel=0.005)
    assert float(report["beta_f"]) == pytest.approx(160.0, rel=0.01)
    assert float(report["v_teff_V"]) == pytest.approx(25e-3, rel=0.01)
    assert report["classification"] == "usable"
    assert float(report["intrinsic_gain"]) == pytest.approx(4960.0, rel=0.02)


def test_cli_fit_iv_ndr_exit_code(tmp_path):
    ds = ivfit.synth_output_family()
    sweeps = list(ds.sweeps)
    s = sweeps[5]
    current = s.current.copy()
    current[(s.voltage >= 1.0) & (s.voltage <= 1.3)] *= 0.85
    sweeps[5] = ivfit.IVSweep(label=s.label, voltage=s.voltage, current=current)
    bad = ivfit.IVDataset(kind="output_characteristics", sweeps=tuple(sweeps))
    path = tmp_path / "ndr.csv"
    ivfit.save_iv_dataset(bad, path)
    assert main(["--out", str(tmp_path), "fit-iv",
                 "--output-chars", str(path)]) == 1


def test_cli_fit_iv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert main(["fit-iv", "--input", str(p)]) == 2


def test_cli_fit_iv_numerical_failure(tmp_path):
    # perfectly flat output family: every Early-fit curve is excluded
    v = np.linspace(0.0, 2.0, 30)
    sweeps = tuple(ivfit.IVSweep(label=ib, voltage=v,
                                 current=np.full(30, ib * 160.0))
                   for ib in (300e-9, 400e-9, 500e-9))
    ds = ivfit.IVDataset(kind="output_characteristics", sweeps=sweeps)
    path = tmp_path / "flat.csv"
    ivfit.save_iv_dataset(ds, path)
    assert main(["--out", str(tmp_path), "fit-iv",
                 "--output-chars", str(path)]) == 3


def test_cli_fit_iv_requires_input():
    assert main(["fit-iv"]) == 2


def test_cli_bad_grid_spec(tmp_path):
    assert main(["--out", str(tmp_path), "sweep", "--axis", "vbc",
                 "--grid", "1:2"]) == 2
    assert main(["--out", str(tmp_path), "sweep", "--axis", "vbc",
                 "--grid", "2:1:5"]) == 2
    assert main(["--out", str(tmp_path), "sweep", "--axis", "fm",
                 "--grid", "0:1e6:5:log"]) == 2
    assert main(["--out", str(tmp_path), "sweep", "--axis", "vbc",
                 "--grid", "nan:12:5"]) == 2
    assert main(["--out", str(tmp_path), "sweep", "--axis", "vbc",
                 "--grid", "11:inf:5"]) == 2


def test_cli_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[mystery]\nx = 1\n")
    assert main(["--config", str(p), "opp"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_sweep_non_finite_config(tmp_path, value):
    p = tmp_path / "bad.ini"
    p.write_text(f"[ensemble]\ntau_relax_us = {value}\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "sweep", "--axis",
                 "vbc", "--grid", "11.5:11.7:3:lin"]) == 2
    assert not (out / "sweep_vbc.csv").exists()


@pytest.mark.parametrize("command, setting", [
    ("s21", "r_source_ohm = 0"),
    ("s21", "r_source_ohm = -50"),
    ("sweep", "r_source_ohm = 0"),
    ("sweep", "r_source_ohm = -50"),
    ("sweep", "c_parasitic_pF = 0"),
])
def test_cli_nonpositive_chain_value_exit_code(tmp_path, command, setting):
    p = tmp_path / "bad.ini"
    p.write_text(f"[chain]\n{setting}\n")
    out = tmp_path / "out"
    args = ["--axis", "vbc", "--grid", "11.5:11.7:3:lin"] \
        if command == "sweep" else []
    assert main(["--config", str(p), "--out", str(out), command, *args]) == 2
    assert not out.exists()


def test_cli_sweep_overflow_exit_code(tmp_path):
    # finite inputs whose image charge overflows: exit 3, no CSV
    p = tmp_path / "huge.ini"
    p.write_text("[ensemble]\nn_s_per_cm2 = 1e304\n"
                 "[geometry]\ndelta_z_nm = 1e29\n")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", str(p), "--out", str(out), "sweep",
                     "--axis", "vbc", "--grid", "11.5:11.7:3:lin"]) == 3
    assert not (out / "sweep_vbc.csv").exists()


def test_cli_unity_gain_load_not_converging(tmp_path, monkeypatch):
    # a stage whose |H| goes as (R_c || r_o || R_load)^2 / q0^2 makes the
    # fixed-point update q -> q0^2 / q, which alternates forever
    real = chain_mod.hbt_stage_response
    q0 = []

    def oscillating(ss, net, load_resistance, source_resistance=50.0,
                    noise_temperature=2.0):
        q = 1.0 / (1.0 / net.r_collector + 1.0 / ss.r_o
                   + 1.0 / load_resistance)
        if not q0:
            q0.append(0.5 * q)
        stage = real(ss, net, load_resistance, source_resistance,
                     noise_temperature)
        h = abs(stage.evaluate(chain_mod.DEFAULT_REFERENCE_FREQUENCY))
        return chain_mod.StageResponse(
            gain_factor=stage.gain_factor * (q / q0[0]) ** 2 / h,
            zeros=stage.zeros, poles=stage.poles,
            hp_corners=stage.hp_corners)

    monkeypatch.setattr(chain_mod, "hbt_stage_response", oscillating)
    with pytest.raises(device.ConvergenceError):
        load_config(None).amplifier_chain()
    assert main(["--out", str(tmp_path), "s21"]) == 3


def test_cli_sweep_and_manifest_rerun(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--out", str(out1), "sweep", "--axis", "vbc",
                 "--grid", "11.5:11.7:3:lin"]) == 0
    manifest = out1 / "sweep_vbc_manifest.ini"
    assert manifest.exists()
    assert main(["--config", str(manifest), "--out", str(out2), "sweep"]) == 0
    assert (out1 / "sweep_vbc.csv").read_bytes() == \
        (out2 / "sweep_vbc.csv").read_bytes()
    header, rows = _read_csv(out1 / "sweep_vbc.csv")
    assert header == ["x_value", "R_V", "phase_rad"]
    assert len(rows) == 3


def test_cli_sweep_fm_small_grid(tmp_path):
    assert main(["--out", str(tmp_path), "sweep", "--axis", "fm",
                 "--grid", "2e5:1e6:3:log"]) == 0
    _, rows = _read_csv(tmp_path / "sweep_fm.csv")
    assert len(rows) == 3
    assert float(rows[0][0]) == pytest.approx(2e5)


def test_cli_entry_point_installed():
    """The ``cryoreadout`` console script declared in pyproject.toml works.

    The declared ``module:function`` target is run in a fresh interpreter
    exactly as an installed console-script wrapper runs it; ``--version``
    must exit 0 and print ``[project].version``.  An installed script is
    on ``PATH`` only after a ``pip install``, which the test command does
    not do, so the installed script is run too only where
    ``shutil.which`` finds one.
    """
    tomllib = pytest.importorskip("tomllib")
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import cryoreadout

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    module, func = project["scripts"]["cryoreadout"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cryoreadout.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)

    runs = [([sys.executable, "-c", wrapper, "--version"], env)]
    exe = shutil.which("cryoreadout")
    if exe is not None:
        runs.append(([exe, "--version"], None))
    for cmd, run_env in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=run_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == project["version"]
