import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from cryoreadout import (__version__, chain as chain_mod, device, ivfit,
                         lockin, replace)
from cryoreadout.cli import main
from cryoreadout.config import (_SCHEMA, MAX_GRID_POINTS, ConfigError,
                                load_config)

from conftest import (csv_file, iv_csv_text, noiseless_diode,
                      noiseless_family, reference)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- config ----------------------------------------------------------------

def test_defaults_match_module_defaults():
    # the library has no defaults of its own: the config's reference
    # network is checked against the published values
    cfg = load_config(None)
    net = cfg.network
    published = {"v_supply": 1.0, "r_upper": 574e3, "r_lower": 235e3,
                 "r_collector": 1e3, "r_emitter": 24.0, "c_in": 12e-9,
                 "c_out": 12e-9, "c_bypass": 220e-9}
    for f, value in published.items():
        # scale multiplication may differ from the literal by one ULP
        assert getattr(net, f) == pytest.approx(value, rel=1e-14)
    params = cfg.transistor
    assert params.i_sat == pytest.approx(6.1650833450086793e-08, rel=1e-12)
    assert params.beta_f == 160.0 and params.v_early == 124.0
    geom = cfg.geometry
    assert geom.s_over_d == pytest.approx(5.65e-3)
    ens = cfg.ensemble
    assert ens.n_s == pytest.approx(1e12)     # 1e8 cm^-2
    assert ens.v_resonance == 11.6
    assert cfg.seed == 0


def test_unit_suffix_scaling(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[network]\nr_upper_kohm = 100\n[ensemble]\ntau_relax_us = 2\n")
    cfg = load_config(p)
    assert cfg.network.r_upper == pytest.approx(1e5)
    assert cfg.ensemble.tau_relax == pytest.approx(2e-6)


@pytest.mark.parametrize("text", [
    "[network]\nr_upper_ohm = 100\n",        # wrong unit suffix = unknown key
    "[mystery]\nx = 1\n",
    "[network]\nr_upper_kohm = abc\n",
    "[run]\nseed = 1.5\n",
    "[run]\nseed = -1\n",
    "[synthesis]\nduty = 1.5\n",
    "[sweep]\nbogus = 1\n",
    "[sweep]\naxis = x\n",
    "[sweep]\ngrid = 1:2\n",
    # the [sweep] section of a manifest that kept the version as a key
    "[sweep]\naxis = vbc\ngrid = 10:12.5:51:lin\nversion = 0.1.0\n",
    # a manifest written while the config still had a microwave frequency
    "[ensemble]\nf_mw_GHz = 110\n",
])
def test_config_rejects_bad_input(tmp_path, text):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("section, key", [("network", "bogus"),
                                          ("mystery", "x")])
def test_config_rejects_unknown_override(section, key):
    with pytest.raises(ConfigError, match=r"unknown override"):
        load_config(None, overrides={(section, key): "1"})


@pytest.mark.parametrize("build", [
    lambda: replace(reference().ensemble, tau_relax=math.nan),
    lambda: replace(reference().ensemble, linewidth_v=math.nan),
    lambda: replace(reference().synthesis, f_m=math.nan),
    lambda: replace(reference().synthesis, duty=math.nan),
    lambda: replace(reference().geometry, c_parasitic=math.nan),
    lambda: chain_mod.StageResponse(gain_factor=1.0, poles=(math.nan,)),
    lambda: replace(reference().synthesis, time_constant=math.nan),
    lambda: replace(reference().synthesis, input_noise_density=math.nan),
    lambda: device.TransistorParams(i_sat=1e-12, v_teff=0.025,
                                    v_early=math.nan, beta_f=160.0),
    lambda: device.TransistorParams(i_sat=1e-12, v_teff=0.025,
                                    v_early=124.0, beta_f=math.nan),
    lambda: chain_mod.hbt_stage_response(
        device.SmallSignalParams(g_m=4e-3, r_pi=4e4, r_o=1.24e6),
        reference().network, 50.0, source_resistance=math.nan),
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


def test_config_reads_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark before the first section header is skipped
    text = "[network]\nr_upper_kohm = 100\n[run]\nseed = 7\n"
    plain, bom = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(bom)._values == load_config(plain)._values


# keys that load_config checks for > 0; any finite value elsewhere, but for
# the ranges _numeric_value draws
_POSITIVE_KEYS = {("network", key) for key in _SCHEMA["network"]} | {
    ("device", "i_sat_A"), ("device", "v_teff_mV"),
    ("geometry", "c_cell_pF"), ("geometry", "s_over_d_mm"),
    ("geometry", "delta_z_nm"), ("chain", "c_parasitic_pF"),
    ("chain", "r_source_ohm"),
    ("ensemble", "tau_relax_us"), ("ensemble", "linewidth_V"),
    ("synthesis", "input_noise_density_pV_rtHz"),
    ("synthesis", "time_constant_ms"), ("synthesis", "f_m_kHz")}


def _numeric_value(section, key):
    """A value load_config accepts for the key, as text."""
    if key == "duty":
        return st.floats(0.0, 1.0, exclude_min=True,
                         exclude_max=True).map(repr)
    if key == "filter_order":
        return st.integers(1, lockin.MAX_FILTER_ORDER).map(str)
    if key == "seed":
        return st.integers(0, 10 ** 6).map(str)
    lo, hi = -1e200, 1e200
    if key == "rho22_target":
        return st.floats(0.0, 0.5, exclude_max=True).map(repr)
    if key in ("v_early_V", "beta_f"):
        lo = 1.0
    elif key == "second_stage_gain_dB":
        # 10 ** (dB / 20) overflows above about 6165 dB
        lo, hi = -6000.0, 6000.0
    elif key == "second_stage_f_low_kHz":
        # below second_stage_f_high_GHz
        lo, hi = 1e-200, 1e90
    elif key == "second_stage_f_high_GHz":
        lo = 1e90
    elif key in ("first_stage_noise_K", "second_stage_noise_K",
                 "n_s_per_cm2"):
        lo = 0.0
    elif (section, key) in _POSITIVE_KEYS:
        lo = 1e-200
    return st.floats(lo, hi).map(repr)


@st.composite
def _sweep_keys(draw):
    """[sweep] axis and grid: ``auto`` or START:STOP:POINTS[:log|lin]."""
    grid = "auto"
    if draw(st.booleans()):
        start, stop = draw(_ENDS)
        spacing = draw(st.sampled_from(["", ":lin", ":log"]))
        grid = f"{start!r}:{stop!r}:{draw(st.integers(1, 20))}{spacing}"
    return {("sweep", "axis"): draw(st.sampled_from(["vbc", "fm"])),
            ("sweep", "grid"): grid}


_NUMERIC_KEYS = [(section, key) for section, keys in _SCHEMA.items()
                 for key, ((kind, _), _, _) in keys.items() if kind != "str"]


# some draws set one key to any finite number, which may be a bad value
_ANY_KEY_VALUE = st.none() | st.tuples(st.sampled_from(_NUMERIC_KEYS),
                                       st.floats(-1e200, 1e200).map(repr))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.fixed_dictionaries(
    {sk: _numeric_value(*sk) for sk in _NUMERIC_KEYS}), sweep=_sweep_keys(),
    any_value=_ANY_KEY_VALUE)
# 1953125 nF is 2**-9 F, and 2**-9 / 1e-9 * 1e-9 != 2**-9: a manifest that
# converted the value back to nF would not reload it exactly
@example(raw={**{sk: "1" for sk in _NUMERIC_KEYS},
              ("network", "c_bypass_nF"): "1953125",
              ("ensemble", "rho22_target"): "0.1",
              ("synthesis", "duty"): "0.5"},
         sweep={("sweep", "axis"): "fm", ("sweep", "grid"): "1e5:1e6:3"},
         any_value=None)
def test_config_manifest_roundtrip_property(tmp_path, raw, sweep, any_value):
    # a draw that some section rejects raises ConfigError naming that
    # section; a draw that loads round-trips exactly through its manifest,
    # which keeps each key's text
    if any_value is not None:
        raw = {**raw, any_value[0]: any_value[1]}
    try:
        cfg = load_config(None, overrides={**raw, **sweep})
    except ConfigError as exc:
        assert any_value is not None, exc
        assert re.match(r"\[(\w+)\] ", str(exc)).group(1) in _SCHEMA, exc
        return
    text = cfg.as_text()
    for (section, key), value in {**raw, **sweep}.items():
        assert f"\n{key} = {value}\n" in text
    p = tmp_path / "manifest.ini"
    p.write_text(text)
    cfg2 = load_config(p)
    assert cfg2._values == cfg._values
    assert cfg2.as_text() == text
    for name in ("network", "transistor", "geometry", "ensemble",
                 "second_stage", "synthesis"):
        assert getattr(cfg2, name) == getattr(cfg, name), name
    assert np.array_equal(cfg2.sweep_grid, cfg.sweep_grid)
    assert cfg2.geometry.c_parasitic == \
        float(raw[("chain", "c_parasitic_pF")]) * 1e-12


@pytest.mark.parametrize("non_default", [False, True],
                         ids=["default", "non-default"])
def test_schema_targets_are_object_fields(non_default):
    # a key whose _SCHEMA target is a record field holds that field's
    # value, for the reference setup and for one that moves every such key
    overrides = {}
    if non_default:
        for section, keys in _SCHEMA.items():
            for key, ((kind, _), default, target) in keys.items():
                if target is not None and kind == "num":
                    overrides[section, key] = repr(float(default) * 1.5)
        overrides.update({("device", "i_sat_A"): "1e-13",
                          ("synthesis", "filter_order"): "2"})
    cfg = load_config(None, overrides=overrides)
    checked = 0
    for section, keys in _SCHEMA.items():
        for key, (_spec, default, target) in keys.items():
            if target is None or target[0] not in (
                    "network", "transistor", "geometry", "ensemble",
                    "synthesis") or cfg[section, key] == "auto":
                continue
            obj, field = target
            assert getattr(getattr(cfg, obj), field) == cfg[section, key], \
                (section, key)
            assert (cfg._texts[section, key] != default) == non_default
            checked += 1
    # every transistor, network, geometry, ensemble and synthesis field,
    # less the calibrated i_sat of the reference setup
    assert checked == (26 if non_default else 25)


def test_explicit_i_sat(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[device]\ni_sat_A = 1e-12\n")
    assert load_config(p).transistor.i_sat == 1e-12


@pytest.mark.parametrize("command", ["opp", "s21"])
def test_chain_stage_checked_at_load(tmp_path, command):
    p = tmp_path / "bad.ini"
    p.write_text("[chain]\nstage = bogus\n")
    with pytest.raises(ConfigError, match="stage"):
        load_config(p)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), command]) == 2
    assert not out.exists()


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


def test_cli_s21_stage_from_config(tmp_path):
    # a bare s21 reports the configured chain and names the file after it
    p = tmp_path / "first.ini"
    p.write_text("[chain]\nstage = first\n")
    bare, flag = tmp_path / "bare", tmp_path / "flag"
    assert main(["--config", str(p), "--out", str(bare), "s21"]) == 0
    assert main(["--out", str(flag), "s21", "--stage", "first"]) == 0
    assert not (bare / "s21_both.csv").exists()
    assert (bare / "s21_first.csv").read_bytes() == \
        (flag / "s21_first.csv").read_bytes()


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
    ["--f-min", "0"],
    ["--points", "2000000"],
], ids=["nan", "inf", "no-points", "descending", "zero-start", "too-many"])
def test_cli_s21_bad_grid(tmp_path, capsys, grid):
    # the s21 grid goes through the sweep --grid checks: exit 2 naming the
    # flags, no CSV
    assert main(["--out", str(tmp_path), "s21", *grid]) == 2
    assert capsys.readouterr().err.startswith(
        "error: s21 --f-min/--f-max/--points: ")
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


def test_gen_iv_fit_iv_round_trip(tmp_path):
    # noise-free files drawn from the configured device fit back to it, and
    # the diode fit gives one i_sat whether beta_f comes from the family fit
    # or from [device]
    family, diode = tmp_path / "family.csv", tmp_path / "diode.csv"
    assert main(["gen-iv", "--kind", "output", "--path", str(family)]) == 0
    assert main(["gen-iv", "--kind", "input", "--path", str(diode)]) == 0
    reports = []
    for name, args in (("alone", ["--input", str(diode)]),
                       ("both", ["--output-chars", str(family),
                                 "--input", str(diode)])):
        assert main(["--out", str(tmp_path / name), "fit-iv", *args]) == 0
        _, rows = _read_csv(tmp_path / name / "fit_iv_report.csv")
        reports.append(dict(rows))
    alone, both = reports
    params = reference().transistor
    for key, want in (("i_sat_A", params.i_sat), ("v_teff_V", params.v_teff),
                      ("beta_f", params.beta_f),
                      ("v_early_V", params.v_early)):
        assert float(both[key]) == pytest.approx(want, rel=1e-12), key
    assert float(alone["i_sat_A"]) == pytest.approx(float(both["i_sat_A"]),
                                                    rel=1e-12)


def test_cli_fit_iv_ndr_exit_code(tmp_path, capsys):
    # an NDR dip in one forward sweep exits 1; with a backward branch 10 %
    # above every forward sweep too, the verdict is both defects
    ds = noiseless_family()
    sweeps = list(ds.forward)
    s = sweeps[5]
    current = s.current.copy()
    current[(s.voltage >= 1.0) & (s.voltage <= 1.3)] *= 0.85
    sweeps[5] = ivfit.IVSweep(label=s.label, voltage=s.voltage, current=current)
    backward = tuple(ivfit.IVSweep(label=f.label, voltage=f.voltage,
                                   current=1.1 * f.current)
                     for f in ds.forward)
    path = tmp_path / "ndr.csv"
    for bwd, verdict in (((), "negative_differential_resistance"),
                         (backward, "both_defects")):
        bad = ivfit.IVDataset(forward=tuple(sweeps), backward=bwd)
        ivfit.save_iv_dataset(bad, path)
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "fit-iv",
                     "--output-chars", str(path)]) == 1
        assert f"classification = {verdict}" in \
            capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("noise", ["inf", "nan", "-1"])
def test_cli_gen_iv_rejects_bad_noise(tmp_path, noise):
    path = tmp_path / "family.csv"
    assert main(["gen-iv", "--kind", "output", "--path", str(path),
                 "--noise", noise]) == 2
    assert not path.exists()


def test_cli_fit_iv_reads_byte_order_mark(tmp_path):
    # a BOM-prefixed diode file fits to the same report as the plain one
    plain, bom = tmp_path / "diode.csv", tmp_path / "diode_bom.csv"
    assert main(["gen-iv", "--kind", "input", "--path", str(plain)]) == 0
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for name, path in (("plain", plain), ("bom", bom)):
        assert main(["--out", str(tmp_path / name), "fit-iv",
                     "--input", str(path)]) == 0
        reports.append((tmp_path / name / "fit_iv_report.csv").read_bytes())
    assert reports[1] == reports[0]


def test_cli_fit_iv_non_finite_data(tmp_path):
    # an infinite current is an input error: exit 2, no report
    ds = noiseless_family()
    path = tmp_path / "family.csv"
    ivfit.save_iv_dataset(ds, path)
    text = path.read_text().splitlines()
    label, v_ce, _ = text[5].split(",")
    text[5] = f"{label},{v_ce},inf"
    path.write_text("\n".join(text) + "\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit-iv", "--output-chars",
                 str(path)]) == 2
    assert not out.exists()


def test_cli_fit_iv_non_finite_fit(tmp_path):
    # finite data whose fit overflows: two curves 1 ulp of i_b apart, one
    # at 1e303 A, so beta_f = i_c / i_b, about 2e309, is not finite: exit 3
    v = np.linspace(0.0, 2.0, 21)
    low = 5e-7
    sweeps = tuple(
        ivfit.IVSweep(label=ib, voltage=v, current=i0 * (1.0 + v / 124.0))
        for ib, i0 in ((low, 1e-5), (float(np.nextafter(low, 1.0)), 1e303)))
    path = tmp_path / "overflow.csv"
    ivfit.save_iv_dataset(ivfit.IVDataset(forward=sweeps), path)
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit-iv", "--output-chars",
                 str(path)]) == 3
    assert not out.exists()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=iv_csv_text(),
       option=st.sampled_from(["--output-chars", "--input"]))
def test_cli_fit_iv_exit_contract(tmp_path, text, option):
    # any IV file: exit 0, 1, 2 or 3 and no exception; a report is written
    # only with 0 or 1, and then holds only finite numbers
    path = csv_file(tmp_path, text)
    out = tmp_path / "out"
    report = out / "fit_iv_report.csv"
    report.unlink(missing_ok=True)
    code = main(["--out", str(out), "fit-iv", option, str(path)])
    assert code in (0, 1, 2, 3)
    assert report.exists() == (code in (0, 1))
    if report.exists():
        _, rows = _read_csv(report)
        for _, value in rows:
            assert not re.search(r"nan|inf", value, re.IGNORECASE), value


@pytest.mark.parametrize("option, kind, header", [
    ("--input", "output", "v_be_V,i_b_A"),
    ("--output-chars", "input", "i_b_A,v_ce_V,i_c_A"),
])
def test_cli_fit_iv_wrong_kind(tmp_path, capsys, option, kind, header):
    # an IV file of the wrong kind is an input error: exit 2, a message
    # naming the expected header, no report
    wrong = tmp_path / "wrong.csv"
    assert main(["gen-iv", "--kind", kind, "--path", str(wrong)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--out", str(out), "fit-iv", option, str(wrong)]) == 2
    assert header in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_iv_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert main(["fit-iv", "--input", str(p)]) == 2
    # a family file with its header and no rows
    p.write_text("i_b_A,v_ce_V,i_c_A\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit-iv", "--output-chars", str(p)]) == 2
    assert "line 2: no data rows" in capsys.readouterr().err
    assert not out.exists()
    # a family with no curve labelled inside the Early-fit window cannot
    # serve the fit: an input error, as a file of the wrong kind is
    p.write_text("i_b_A,v_ce_V,i_c_A\n1e-6,0.6,1e-4\n1e-6,0.7,1.1e-4\n")
    assert main(["--out", str(out), "fit-iv", "--output-chars", str(p)]) == 2
    assert "base-current range 2e-07..8e-07 A" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_iv_numerical_failure(tmp_path):
    # perfectly flat output family: every Early-fit curve is excluded
    v = np.linspace(0.0, 2.0, 30)
    sweeps = tuple(ivfit.IVSweep(label=ib, voltage=v,
                                 current=np.full(30, ib * 160.0))
                   for ib in (300e-9, 400e-9, 500e-9))
    path = tmp_path / "flat.csv"
    ivfit.save_iv_dataset(ivfit.IVDataset(forward=sweeps), path)
    assert main(["--out", str(tmp_path), "fit-iv",
                 "--output-chars", str(path)]) == 3


def test_cli_fit_iv_underflowed_saturation_current(tmp_path, capsys):
    # a finite fit whose i_sat underflows to 0, a value the config rejects:
    # exit 3, no report (it used to print i_sat_A = 0 and exit 0)
    path = csv_file(tmp_path, "v_be_V,i_b_A\n0.1,1e-300\n0.2,1e-10\n"
                              "0.3,1e300\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit-iv", "--input", str(path)]) == 3
    assert "saturation current" in capsys.readouterr().err
    assert not out.exists()


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
    # finite bounds whose span overflows: np.linspace would warn and give
    # [nan, inf, 1e308]
    assert main(["--out", str(tmp_path), "sweep", "--axis", "vbc",
                 "--grid=-1e308:1e308:3:lin"]) == 2


@pytest.mark.parametrize("args, setting", [
    (["s21", "--points", "1000000000"], ""),
    (["s21", "--points", str(MAX_GRID_POINTS + 1)], ""),
    (["sweep", "--axis", "vbc", "--grid", "10:12:1000000000:lin"], ""),
    (["sweep", "--axis", "fm"], "[sweep]\ngrid = 1e5:1e7:1000000000:log\n"),
    (["sweep", "--axis", "vbc", "--grid", "11.5:11.7:3:lin"],
     "[synthesis]\nfilter_order = 9\n"),
    (["sweep", "--axis", "fm", "--grid", "1e5:1e6:3:log"],
     "[synthesis]\nfilter_order = 2000\n"),
    (["sweep", "--axis", "vbc", "--grid", "11.5:11.7:3:lin"],
     "[synthesis]\nfilter_order = 100000\n"),
    (["--seed=-1", "sweep", "--axis", "vbc", "--grid", "11.5:11.7:3:lin"],
     ""),
    (["sweep", "--axis", "vbc", "--grid", "11.5:11.7:3:lin"],
     f"[run]\nseed = {2 ** 64}\n"),
    (["sweep", "--axis", "fm", "--grid", "1e5:1e6:3:log"],
     "[synthesis]\nduty = 1.5\n"),
    (["sweep", "--axis", "fm", "--grid", "0:1e6:5:lin"], ""),
], ids=["s21-1e9", "s21-limit", "vbc-1e9", "fm-manifest-1e9", "order-9",
        "order-2000", "order-100000", "seed--1", "seed-2^64", "duty-1.5",
        "fm-zero"])
def test_cli_size_limits(tmp_path, monkeypatch, args, setting):
    # grids above MAX_GRID_POINTS and filter orders above 8 are input
    # errors (exit 2) found before the chain is built; they used to exhaust
    # memory (7.45 GiB for 1e9 points, 74.5 GiB at order 100000) or run on
    # (order 2000: about 10 s, then exit 3).  So are a seed outside
    # [0, 2**64), a duty outside (0, 1) and an f_m grid point <= 0, which
    # used to fail only after the DC solve
    def no_chain(*_, **__):
        raise AssertionError("chain built")

    monkeypatch.setattr(type(load_config()), "amplifier_chain", no_chain)
    p = tmp_path / "run.ini"
    p.write_text(setting)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), *args]) == 2
    assert not out.exists()


@pytest.mark.parametrize("setting, args, key", [
    # configparser joins an indented line onto the value above it; the
    # manifest would write that value over two lines and not replay
    ("[run]\noutput_dir = a\n  b\n", ["--axis", "vbc"], "[run] output_dir"),
    # an empty directory name used to fail at the write, after the work
    ("[run]\noutput_dir =\n", ["--axis", "vbc"], "[run] output_dir"),
    ("[sweep]\ngrid = 11:12:\n  3\n", ["--axis", "vbc"], "[sweep] grid"),
    ("", ["--axis", "vbc", "--grid", "11:12:\n3"], "[sweep] grid"),
    ("", ["--axis", "fm", "--grid", "0:1e6:5:lin"], "[sweep] grid"),
    # grid_points' own checks, shared with s21's flags
    ("", ["--axis", "fm", "--grid", "0:1e6:5:log"], "[sweep] grid"),
    ("", ["--axis", "vbc", "--grid", "2:1:5"], "[sweep] grid"),
    ("", ["--axis", "vbc", "--grid", "11:12:0"], "[sweep] grid"),
    ("[sweep]\ngrid = 1:2:3:cubic\n", ["--axis", "vbc"],
     "[sweep] grid: grid spacing must be log or lin"),
    # configparser rejects a key given twice in one section
    ("[run]\nseed = 1\nseed = 2\n", ["--axis", "vbc"], "malformed config"),
], ids=["multiline-output_dir", "empty-output_dir", "multiline-grid",
        "multiline-grid-flag", "fm-zero", "log-zero-start", "descending",
        "zero-points", "cubic-spacing", "duplicate-key"])
def test_cli_sweep_error_names_key(tmp_path, monkeypatch, capsys, setting,
                                   args, key):
    # exit 2 with the key named, and nothing written
    p = tmp_path / "run.ini"
    p.write_text(setting)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["--config", str(p), "sweep", *args]) == 2
    assert key in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_cli_negative_seed(capsys):
    # a negative seed is an input error for every command, and the message
    # names the key
    assert main(["--seed=-1", "opp"]) == 2
    assert "[run] seed" in capsys.readouterr().err


def test_cli_seed_beyond_64_bits(capsys):
    # the noise stream keys on the seed as a uint64: the largest one runs,
    # and 2**64, which would stop a sweep with an OverflowError (exit 3)
    # after its DC solve, is an input error that names the key
    assert main(["--seed", str(2 ** 64 - 1), "opp"]) == 0
    capsys.readouterr()
    assert main(["--seed", str(2 ** 64), "opp"]) == 2
    assert "[run] seed" in capsys.readouterr().err


# one invalid value in each section, each rejected by the object built
# from it
_BAD_VALUES = [
    ("network", "r_upper_kohm = -1"),
    ("device", "beta_f = 0.5"),
    # the auto i_sat's junction factor has no real root at this target
    ("device", "i_c_target_mA = 120.859375"),
    ("geometry", "c_cell_pF = -3"),
    ("ensemble", "rho22_target = 0.7"),
    ("ensemble", "n_s_per_cm2 = -1e8"),
    ("chain", "second_stage_f_low_kHz = 5e6"),
    ("chain", "second_stage_gain_dB = 1e200"),
    ("chain", "r_source_ohm = 0"),
    ("chain", "first_stage_noise_K = -5"),
    ("chain", "second_stage_noise_K = -5"),
    ("synthesis", "duty = 1.5"),
    ("sweep", "grid = 2:1:5"),
]


@pytest.mark.parametrize("command", [
    ["opp"], ["s21", "--points", "3"], ["gen-iv", "--kind", "input"],
    ["fit-iv"], ["sweep"]], ids=lambda c: c[0])
def test_cli_bad_section_every_command(tmp_path, capsys, command):
    # every value is checked at load: each command exits 2 naming the
    # section, and writes nothing
    diode = tmp_path / "diode.csv"
    ivfit.save_iv_dataset(noiseless_diode(), diode)
    for section, setting in _BAD_VALUES:
        p = tmp_path / "bad.ini"
        p.write_text(f"[{section}]\n{setting}\n")
        out = tmp_path / "out"
        args = {"gen-iv": ["--path", str(out / "iv.csv")],
                "fit-iv": ["--input", str(diode)]}.get(command[0], [])
        capsys.readouterr()
        assert main(["--config", str(p), "--out", str(out), *command,
                     *args]) == 2, setting
        assert f"[{section}]" in capsys.readouterr().err, setting
        assert not out.exists(), setting


@pytest.mark.parametrize("i_sat", ["auto", "1e-12"])
def test_beta_f_below_one_named(i_sat):
    # the transistor's ranges are checked before i_sat is calibrated, so a
    # bad beta_f is named whether or not i_sat is given
    with pytest.raises(ConfigError, match=r"\[device\] beta_f must be >= 1"):
        load_config(None, overrides={("device", "beta_f"): "0.5",
                                     ("device", "i_sat_A"): i_sat})


def test_i_c_target_named():
    # the calibration rejects a non-positive target before it uses it, so
    # the message names the target, not the i_sat it would give
    with pytest.raises(ConfigError, match=r"\[device\] i_c_target must be "
                                          "positive"):
        load_config(None, overrides={("device", "i_c_target_mA"): "-1"})


def test_cli_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[mystery]\nx = 1\n")
    assert main(["--config", str(p), "opp"]) == 2
    # v_be / v_teff near 2e302 is beyond the exponential cap; the message
    # gives it to 4 digits, not in its 300 digits of fixed point
    p.write_text("[device]\nv_teff_mV = 1e-300\n")
    capsys.readouterr()
    assert main(["--config", str(p), "opp"]) == 2
    err = capsys.readouterr().err
    assert "exceeds cap" in err and len(err) < 120


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nbogus = 1\n",
    "[DEFAULT]\nf_m_kHz = 100\n[synthesis]\n",
    "[DEFAULT]\nf_m_kHz = 100\n[synthesis]\n[run]\n",
], ids=["unknown-key", "schema-key", "schema-key-two-sections"])
def test_cli_rejects_default_section_keys(tmp_path, capsys, text):
    # _SCHEMA has no [DEFAULT], whose keys configparser would lend to every
    # section of the file: each is an input error, and nothing is run
    p = tmp_path / "run.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "opp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "[DEFAULT]" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("tau_relax_us", "nan"),
    ("tau_relax_us", "inf"),
    # finite as written, inf in SI units: 1e305 cm^-2 is 1e309 m^-2
    ("n_s_per_cm2", "1e305"),
], ids=["nan", "inf", "n_s-1e305"])
def test_cli_sweep_non_finite_config(tmp_path, capsys, key, value):
    p = tmp_path / "bad.ini"
    p.write_text(f"[ensemble]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "sweep", "--axis",
                 "vbc", "--grid", "11.5:11.7:3:lin"]) == 2
    assert f"[ensemble] {key}" in capsys.readouterr().err
    assert not (out / "sweep_vbc.csv").exists()


def test_cli_sweep_short_relaxation(tmp_path):
    # a relaxation time of 1 ns is far below the MW-on time of every point
    # of the default fm grid: the off-segment decay must not overflow on the
    # on-samples, and R stays finite
    p = tmp_path / "fast.ini"
    p.write_text("[ensemble]\ntau_relax_us = 0.001\n")
    assert main(["--config", str(p), "--out", str(tmp_path), "sweep",
                 "--axis", "fm"]) == 0
    _, rows = _read_csv(tmp_path / "sweep_fm.csv")
    assert len(rows) == 25
    assert all(math.isfinite(float(row[1])) for row in rows)


@pytest.mark.parametrize("axis, grid", [("vbc", "11.5:11.7:3:lin"),
                                        ("fm", "2e5:1e6:3:log")])
def test_cli_sweep_long_relaxation(tmp_path, axis, grid):
    # a relaxation time of 1e12 s is far beyond the period: the sweep still
    # runs and writes finite rows
    p = tmp_path / "slow.ini"
    p.write_text("[ensemble]\ntau_relax_us = 1e18\n")
    assert main(["--config", str(p), "--out", str(tmp_path), "sweep",
                 "--axis", axis, "--grid", grid]) == 0
    _, rows = _read_csv(tmp_path / f"sweep_{axis}.csv")
    assert len(rows) == 3
    assert all(math.isfinite(float(x)) for row in rows for x in row)


def test_cli_sweep_time_constant_beyond_sample_rate(tmp_path, capsys):
    # at tau = 1e12 s the one-sample decay exp(-1/(16 f_m tau)) rounds to 1,
    # and the steady state still reads the fundamental: the sweep finds the
    # resonance.  At 1e302 s, 16 f_m tau overflows to inf at 250 kHz: exit
    # 2, the key named, no CSV.
    p = tmp_path / "slow.ini"
    p.write_text("[synthesis]\ntime_constant_ms = 1e15\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "sweep",
                 "--axis", "vbc"]) == 0
    _, rows = _read_csv(out / "sweep_vbc.csv")
    peak = max(rows, key=lambda row: float(row[1]))
    assert float(peak[0]) == pytest.approx(11.6)
    p.write_text("[synthesis]\ntime_constant_ms = 1e305\n")
    out = tmp_path / "out_inf"
    assert main(["--config", str(p), "--out", str(out), "sweep",
                 "--axis", "vbc"]) == 2
    assert "time_constant" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, grid, tau_ms, code", [
    ("vbc", "11.5:11.7:3:lin", "0.0019", 2),  # 7.6 samples at 250 kHz
    ("vbc", "11.5:11.7:3:lin", "0.002", 0),   # 8 samples
    ("fm", "2.5e5:1e6:3:log", "0.002", 0),    # 8 samples at the lowest f_m
    ("fm", "1e5:1e6:3:log", "0.002", 2),      # 3.2 samples at 100 kHz
    ("fm", "1e307:1e308:2", "0.002", 2),      # sample rate 16 f_m is inf
])
def test_cli_sweep_time_constant_floor(tmp_path, capsys, axis, grid, tau_ms,
                                       code):
    # a time constant below 8 samples (tau * f_m < 0.5) is an input error:
    # exit 2, the key named, no CSV.  The fm grid that crosses the floor
    # fails on its lowest point.  So does an f_m whose sample rate
    # overflows, without an overflow warning first.
    p = tmp_path / "fast.ini"
    p.write_text(f"[synthesis]\ntime_constant_ms = {tau_ms}\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "sweep",
                 "--axis", axis, "--grid", grid]) == code
    if code:
        assert "time_constant" in capsys.readouterr().err
        assert not out.exists()
    else:
        _, rows = _read_csv(out / f"sweep_{axis}.csv")
        assert len(rows) == 3


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
    assert main(["--config", str(p), "--out", str(out), "sweep",
                 "--axis", "vbc", "--grid", "11.5:11.7:3:lin"]) == 3
    assert not (out / "sweep_vbc.csv").exists()


def test_cli_sweep_zero_electrons_is_noise_baseline(tmp_path):
    # n_s = 0 is valid: no signal, so R is the input noise alone
    p = tmp_path / "empty.ini"
    p.write_text("[ensemble]\nn_s_per_cm2 = 0\n")
    assert main(["--config", str(p), "--out", str(tmp_path), "sweep",
                 "--grid", "11:12:3"]) == 0
    _, rows = _read_csv(tmp_path / "sweep_vbc.csv")
    r = [float(row[1]) for row in rows]
    assert all(0.0 < x < 1e-7 for x in r)


@pytest.mark.parametrize("args, setting", [
    # a -1e200 dB second stage: zero gain, -inf dB
    (["s21"], "[chain]\nsecond_stage_gain_dB = -1e200\n"),
    # v_teff = 1 uV: exp(v_be / v_teff) overflows
    (["gen-iv", "--kind", "input"],
     "[device]\ni_sat_A = 1e-12\nv_teff_mV = 1e-3\n"),
], ids=["s21", "gen-iv"])
def test_cli_overflow_writes_nothing(tmp_path, args, setting):
    # finite settings whose results are not finite: exit 3, no file (both
    # used to exit 0 with -inf or inf in their CSV)
    p = tmp_path / "huge.ini"
    p.write_text(setting)
    out, path = tmp_path / "out", tmp_path / "iv.csv"
    assert main(["--config", str(p), "--out", str(out), *args,
                 *(["--path", str(path)] if "gen-iv" in args else [])
                 ]) == 3
    assert not out.exists() and not path.exists()


def test_cli_unity_gain_unreachable(tmp_path, capsys):
    # I_c = 20 uA gives g_m = 0.8 mS, below 1/R_c = 1 mS: no load gives the
    # first stage unity gain, so the chain commands fail up front; opp needs
    # no chain
    p = tmp_path / "weak.ini"
    p.write_text("[device]\ni_c_target_mA = 0.02\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "opp"]) == 0
    for args in (["s21"], ["sweep", "--axis", "vbc", "--grid", "11:12:3"]):
        capsys.readouterr()
        assert main(["--config", str(p), "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert "unity gain unreachable" in err
        assert "g_m = 0.0008 S" in err and "1/R_c + 1/r_o = 0.001" in err
    assert not out.exists()


def test_cli_sweep_vbc_far_off_resonance(tmp_path):
    # the resonance factor overflows to 0 without a warning: R is the noise
    p = tmp_path / "out"
    assert main(["--out", str(p), "sweep", "--axis", "vbc",
                 "--grid", "1e200:1e201:3:lin"]) == 0
    _, rows = _read_csv(p / "sweep_vbc.csv")
    assert len(rows) == 3
    assert all(0 < float(r) < 1e-7 for _, r, _ in rows)


@pytest.mark.parametrize("axis, grid", [("vbc", "11.5:11.7:3:lin"),
                                        ("fm", "2e5:1e6:3:log")],
                         ids=["vbc", "fm"])
def test_cli_sweep_and_manifest_rerun(tmp_path, axis, grid):
    # a sweep replays byte for byte from its manifest, which keeps each
    # key's text: 0.1 stays 0.1
    config = tmp_path / "run.ini"
    config.write_text("[ensemble]\nrho22_target = 0.1\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--config", str(config), "--out", str(out1), "sweep",
                 "--axis", axis, "--grid", grid]) == 0
    manifest = out1 / f"sweep_{axis}_manifest.ini"
    assert "\nrho22_target = 0.1\n" in manifest.read_text()
    assert main(["--config", str(manifest), "--out", str(out2), "sweep"]) == 0
    for name in (f"sweep_{axis}.csv", f"sweep_{axis}_manifest.ini"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, rows = _read_csv(out1 / f"sweep_{axis}.csv")
    assert header == ["x_value", "R_V", "phase_rad"]
    assert len(rows) == 3


def test_cli_manifest_config_for_every_command(tmp_path):
    # a manifest is a whole config: every command runs from it
    sweep = tmp_path / "sweep"
    assert main(["--out", str(sweep), "sweep", "--grid", "11.5:11.7:3"]) == 0
    manifest = sweep / "sweep_vbc_manifest.ini"
    assert manifest.read_text().splitlines()[0] == \
        f"# cryoreadout {__version__}, numpy {np.__version__}"
    diode = tmp_path / "diode.csv"
    for args in (["opp"], ["s21", "--points", "3"],
                 ["gen-iv", "--kind", "input", "--path", str(diode)],
                 ["fit-iv", "--input", str(diode)]):
        assert main(["--config", str(manifest), "--out", str(tmp_path),
                     *args]) == 0, args


def _save_with_backward(path, backward):
    # the synthetic family plus ``backward`` sweeps in its direction column
    ivfit.save_iv_dataset(ivfit.IVDataset(
        forward=noiseless_family().forward, backward=tuple(backward)), path)


def test_cli_fit_iv_backward_flag_removed(tmp_path, capsys):
    # backward branches come from the direction column alone: this family
    # is hysteretic, and --backward, which would add a second source, is
    # an unknown flag (exit 2, nothing written); so is --beta-at, as beta_f
    # comes from the Early-fit lines
    path, copy = tmp_path / "family.csv", tmp_path / "copy.csv"
    ds = noiseless_family()
    _save_with_backward(path, [
        ivfit.IVSweep(label=s.label, voltage=s.voltage, current=1.1 * s.current)
        for s in ds.forward])
    ivfit.save_iv_dataset(ds, copy)
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit-iv", "--output-chars",
                 str(path)]) == 1
    _, rows = _read_csv(out / "fit_iv_report.csv")
    assert dict(rows)["classification"] == "hysteretic"
    for flag, value in (("--backward", str(copy)), ("--beta-at", "1e-4,0.9")):
        out = tmp_path / "out2"
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["--out", str(out), "fit-iv", "--output-chars", str(path),
                  flag, value])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_cli_fit_iv_backward_without_overlap(tmp_path, capsys):
    # a backward sweep that meets its 0..2 V forward sweep only at 2 V is
    # an input error naming its label: exit 2, no report
    path = tmp_path / "family.csv"
    _save_with_backward(path, [ivfit.IVSweep(
        label=200e-9, voltage=np.array([2.0, 2.5, 3.0]),
        current=np.full(3, 3.3e-5))])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--out", str(out), "fit-iv", "--output-chars",
                 str(path)]) == 2
    assert "label 2e-07 overlaps" in capsys.readouterr().err
    assert not out.exists()


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
    # the script enters where ``python -m cryoreadout.cli`` does
    assert project["scripts"]["cryoreadout"] == "cryoreadout.cli:run"
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


@pytest.fixture
def freeze_calls(monkeypatch):
    """Record ``gc.freeze`` calls in place of making them, so the test
    process's heap is never frozen."""
    import gc

    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    return calls


@pytest.mark.parametrize("argv, code", [
    (["opp"], 0), (["--config", "missing.ini", "opp"], 2)])
def test_run_freezes_heap_before_main(tmp_path, monkeypatch, freeze_calls,
                                      argv, code):
    import sys

    from cryoreadout import cli

    def recorded_main(argv=None):
        freeze_calls.append("main")
        return main(argv)

    monkeypatch.setattr(cli, "main", recorded_main)
    # a relative --config path names a file in the empty tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv",
                        ["cryoreadout", "--out", str(tmp_path), *argv])
    assert cli.run() == code
    assert freeze_calls == ["freeze", "main"]


def test_module_main_enters_through_run(monkeypatch, capsys, freeze_calls):
    import runpy
    import sys

    # run the module body afresh, as ``python -m`` does; a copy left in
    # sys.modules would make runpy warn
    monkeypatch.delitem(sys.modules, "cryoreadout.cli")
    monkeypatch.setattr(sys, "argv", ["cryoreadout", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("cryoreadout.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    assert freeze_calls == ["freeze"]


def test_main_leaves_gc_state(tmp_path):
    import gc

    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["--out", str(tmp_path), "sweep"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def _run_fresh(code, cwd=None):
    """Run ``code`` in a fresh interpreter on the source tree; assert it
    exits 0."""
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_module_import_loads_only_that_module():
    # importing the package runs no submodule, and no module loads scipy at
    # import: lockin imports lfilter, the oracle's filter, on first use
    _run_fresh("import sys\n"
               "import cryoreadout.device, cryoreadout.chain, "
               "cryoreadout.source, cryoreadout.ivfit, cryoreadout.lockin, "
               "cryoreadout.config, cryoreadout.cli\n"
               "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")


def test_commands_do_not_load_scipy(tmp_path):
    # every command runs in one interpreter that never loads scipy
    commands = [["opp"], ["s21", "--points", "20"],
                ["sweep", "--axis", "fm"], ["sweep", "--axis", "vbc"],
                ["gen-iv", "--kind", "output", "--path", "family.csv"],
                ["gen-iv", "--kind", "input", "--path", "diode.csv"],
                ["fit-iv", "--output-chars", "family.csv",
                 "--input", "diode.csv"]]
    _run_fresh("import sys\n"
               "from cryoreadout.cli import main\n"
               f"for argv in {commands!r}:\n"
               "    assert main(['--out', 'out', *argv]) == 0, argv\n"
               "assert 'scipy' not in sys.modules, sorted(sys.modules)\n",
               cwd=tmp_path)


# modules a command loads only where it needs them: scipy (the lock-in
# oracle's filter) and numpy.random (numpy's generators; every draw is from
# cli.NormalStream) by none, dataclasses by none (records are
# cryoreadout.Record), configparser only to read --config, and csv and array
# only in fit-iv's reader
_WATCHED_MODULES = ("scipy", "numpy.random", "dataclasses", "configparser",
                    "csv", "array")


def _loads(argv, *modules):
    return pytest.param(argv, set(modules), id=" ".join(argv))


@pytest.mark.parametrize("argv, loaded", [
    _loads(["opp"]), _loads(["s21", "--points", "20"]),
    _loads(["gen-iv", "--kind", "output", "--path", "family.csv"]),
    _loads(["gen-iv", "--kind", "input", "--path", "diode.csv"]),
    _loads(["fit-iv", "--output-chars", "family.csv", "--input", "diode.csv"],
           "csv", "array"),
    _loads(["sweep", "--axis", "fm"]), _loads(["sweep", "--axis", "vbc"]),
    _loads(["gen-iv", "--kind", "output", "--path", "noisy.csv",
            "--noise", "0.01"]),
    _loads(["gen-iv", "--kind", "input", "--path", "noisy.csv",
            "--noise", "0.01"]),
    _loads(["--config", "run.ini", "opp"], "configparser"),
])
def test_commands_do_not_load_numpy_random(tmp_path, argv, loaded):
    # each command, in a fresh interpreter, loads exactly the watched
    # modules its row names
    ivfit.save_iv_dataset(noiseless_family(), tmp_path / "family.csv")
    ivfit.save_iv_dataset(noiseless_diode(), tmp_path / "diode.csv")
    (tmp_path / "run.ini").write_text("[run]\nseed = 1\n")
    _run_fresh("import sys\n"
               "from cryoreadout.cli import main\n"
               f"assert main(['--out', 'out', *{argv!r}]) == 0\n"
               f"loaded = set({_WATCHED_MODULES!r}).intersection(sys.modules)\n"
               f"assert loaded == {loaded!r}, loaded\n",
               cwd=tmp_path)


# -- exit-code contract on random argv and configs --------------------------

# junk, non-finite, negative, zero and huge values for any option
_BAD = st.sampled_from(["", "x", "nan", "inf", "-inf", "-1", "0", "1e400",
                        "0x10", "1,2"]) \
    | st.floats().map(repr) | st.integers(-10 ** 15, 10 ** 15).map(str)
# accepted grids stay small; the rest are too large for memory (7.45 GiB
# at 1e9 points) or not counts
_POINTS = st.integers(1, 20).map(str)
_BAD_POINTS = st.integers(10 ** 9, 10 ** 15).map(str) \
    | st.sampled_from(["1000000000", "-1", "0"]) | _BAD.filter(bool)
_ENDS = st.lists(st.floats(1e-3, 1e8), min_size=2, max_size=2).map(sorted)
_SCHEMA_KEYS = [(section, key) for section, keys in _SCHEMA.items()
                for key in keys if (section, key) != ("run", "output_dir")]


@st.composite
def _cli_run(draw):
    """(argv after --config and --out, INI text).  Half the runs draw only
    valid values; in the other half each value is bad one time in two."""
    dirty = draw(st.booleans())

    def value(valid, bad=_BAD):
        return draw(valid | bad if dirty else valid)

    def grid():
        ends = draw(_ENDS)
        spacing = value(st.sampled_from(["", ":lin", ":log"]),
                        st.just(":cubic"))
        return (f"{value(st.just(repr(ends[0])))}:"
                f"{value(st.just(repr(ends[1])))}:"
                f"{value(_POINTS, _BAD_POINTS)}{spacing}")

    settings_ = {}
    keys = _SCHEMA_KEYS + ([("network", "bogus"), ("mystery", "x")]
                           if dirty else [])
    for section, key in draw(st.lists(st.sampled_from(keys), max_size=4,
                                      unique=True)):
        (kind, allowed), default, _ = _SCHEMA.get(section, {}).get(
            key, (("num", None), "1", None))
        if kind == "str":
            valid = st.sampled_from(allowed or [default])
        elif key == "filter_order":
            valid = st.integers(1, lockin.MAX_FILTER_ORDER).map(str)
        elif kind == "int":
            valid = st.integers(0, 2 ** 32).map(str)
        else:
            # the reference value, or that value halved to doubled
            ref = 1e-7 if default == "auto" else float(default)
            valid = st.just(default) | st.floats(0.5, 2.0).map(
                lambda f, ref=ref: repr(ref * f))
        # filter orders over the limit used to exhaust memory
        bad = st.sampled_from(["9", "100000", "1000000000"]) | _BAD \
            if key == "filter_order" else _BAD
        settings_[(section, key)] = value(valid, bad)

    argv = []

    def maybe(flag, valid, bad=_BAD):
        # FLAG=VALUE, so that argparse takes "-1" as a value, not a flag
        if draw(st.booleans()):
            argv.append(f"{flag}={value(valid, bad)}")

    maybe("--seed", st.integers(0, 2 ** 32).map(str))
    command = draw(st.sampled_from(["opp", "s21", "sweep", "gen-iv",
                                    "fit-iv"]))
    argv.append(command)
    if command == "s21":
        argv.append(f"--points={value(_POINTS, _BAD_POINTS)}")
        maybe("--f-min", st.floats(1e3, 1e6).map(repr))
        maybe("--f-max", st.floats(1e6, 1e9).map(repr))
        maybe("--stage", st.sampled_from(["first", "both"]), st.just("x"))
    elif command == "sweep":
        axis = value(st.sampled_from(["vbc", "fm"]), st.just("x"))
        # the grid comes from the flag or, as in a manifest, from [sweep]
        if draw(st.booleans()):
            argv += [f"--axis={axis}", f"--grid={grid()}"]
        else:
            settings_[("sweep", "axis")] = axis
            settings_[("sweep", "grid")] = grid()
    elif command == "gen-iv":
        argv.append(f"--kind={value(st.sampled_from(['input', 'output']))}")
        maybe("--noise", st.floats(0.0, 0.1).map(repr))
    else:
        files = st.sampled_from(["IVDIR/family.csv", "IVDIR/diode.csv"])
        bad_files = files | st.just("IVDIR/missing.csv")
        maybe("--input", files, bad_files)
        maybe("--output-chars", files, bad_files)
    sections = {}
    for (section, key), text in settings_.items():
        sections.setdefault(section, []).append(f"{key} = {text}")
    ini = "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                  for section, lines in sections.items())
    return argv, ini


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_cli_run())
# exited 0 with -inf in its CSV
@example(run=(["s21", "--points=3"],
              "[chain]\nsecond_stage_gain_dB = -1e200\n"))
# asked for 7.45 GiB
@example(run=(["s21", "--points=1000000000"], ""))
def test_cli_exit_contract(tmp_path, capsys, run):
    # any argv and config: main returns 0-3 or argparse exits 2, with no
    # other exception; exit 0 writes only finite numbers
    argv, ini = run
    family, diode = tmp_path / "family.csv", tmp_path / "diode.csv"
    if not family.exists():
        ivfit.save_iv_dataset(noiseless_family(), family)
        ivfit.save_iv_dataset(noiseless_diode(), diode)
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        config = work / "run.ini"
        config.write_text(ini)
        out = work / "out"
        argv = [a.replace("IVDIR", str(tmp_path)) for a in argv]
        if "gen-iv" in argv:
            argv += ["--path", str(out / "iv.csv")]
            out.mkdir()
        capsys.readouterr()
        try:
            code = main(["--config", str(config), "--out", str(out),
                         *argv])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
        assert code in (0, 1, 2, 3)
        if code == 0:
            texts = [f.read_text() for f in out.rglob("*") if f.is_file()]
            if "opp" in argv:
                texts.append(capsys.readouterr().out)
            for token in re.split(r"[\s,=]+", "\n".join(texts)):
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert math.isfinite(value), token
