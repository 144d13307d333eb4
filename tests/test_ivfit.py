import io
import math

import numpy as np
import pytest
from hypothesis import given, settings

from cryoreadout import ivfit
from cryoreadout.ivfit import (FitError, IVDataset, IVParseError, IVSweep,
                               classify_transistor, fit_beta, fit_diode_params,
                               fit_early_voltage, intrinsic_gain,
                               load_iv_dataset, save_iv_dataset,
                               synth_input_curve, synth_output_family)

from conftest import iv_csv_text


def test_input_csv_parse():
    ds = load_iv_dataset(io.StringIO(
        "v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-8\n0.3,1e-7\n"))
    assert ds.kind == "input_characteristics"
    assert ds.sweeps[0].voltage.tolist() == [0.1, 0.2, 0.3]


def test_output_family_parse_and_roundtrip(tmp_path):
    ds = synth_output_family(160.0, 124.0)
    assert len(ds.sweeps) == 17      # 200..1000 nA step 50 nA
    assert ds.sweeps[0].label == pytest.approx(200e-9)
    assert ds.sweeps[-1].label == pytest.approx(1000e-9)

    path = tmp_path / "family.csv"
    save_iv_dataset(ds, path)
    ds2 = load_iv_dataset(path)
    for a, b in zip(ds.sweeps, ds2.sweeps):
        assert a.label == b.label
        np.testing.assert_array_equal(a.voltage, b.voltage)
        np.testing.assert_array_equal(a.current, b.current)
    # serialize -> load -> serialize is bit-identical
    path2 = tmp_path / "family2.csv"
    save_iv_dataset(ds2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bidirectional_parse():
    text = ("i_b_A,v_ce_V,i_c_A,direction\n"
            "1e-7,0.0,1e-5,fwd\n1e-7,1.0,1.1e-5,fwd\n"
            "1e-7,1.0,1.1e-5,bwd\n1e-7,0.0,1.0e-5,bwd\n")
    ds = load_iv_dataset(io.StringIO(text))
    assert ds.direction == "both"
    assert len(ds.forward_sweeps()) == 1
    assert len(ds.backward_sweeps()) == 1


def test_str_is_always_a_path(tmp_path):
    # a file name may contain a newline, and CSV text is not a file name
    path = tmp_path / "a\nb.csv"
    path.write_text("v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-8\n", encoding="utf-8")
    ds = load_iv_dataset(str(path))
    assert ds.sweeps[0].voltage.tolist() == [0.1, 0.2]
    with pytest.raises(FileNotFoundError):
        load_iv_dataset(str(tmp_path / "v_be_V,i_b_A"))


def test_empty_stream_is_parse_error():
    with pytest.raises(IVParseError, match="empty"):
        load_iv_dataset(io.StringIO(""))


@pytest.mark.parametrize("text,fragment", [
    ("bogus,header\n1,2\n", "header"),
    ("v_be_V,i_b_A\n0.1,abc\n", "not a number"),
    ("v_be_V,i_b_A\n0.1\n", "columns"),
    ("v_be_V,i_b_A\n0.1,1e-9\n0.1,2e-9\n", "duplicate"),
    ("i_b_A,v_ce_V,i_c_A\n1e-7,0.0,1e-5\n1e-7,1.0,2e-5\n1e-7,0.5,3e-5\n",
     "non-monotone"),
    ("i_b_A,v_ce_V,i_c_A,direction\n1e-7,0.0,1e-5,sideways\n", "direction"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(IVParseError, match=fragment):
        load_iv_dataset(io.StringIO(text))


@pytest.mark.parametrize("text,fragment,line", [
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2,nan\n", "finite", 3),
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2,inf\n", "finite", 3),
    ("i_b_A,v_ce_V,i_c_A\n1e-7,0.0,1e-5\n1e-7,-inf,2e-5\n", "finite", 3),
    ("i_b_A,v_ce_V,i_c_A\n1e-7,0.0,1e-5\n1e-7,1.0,2e-5\n2e-7,0.0,3e-5\n",
     "2 points", 4),
    # a bare carriage return inside an unquoted field
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2,1\re-8\n", "malformed", 3),
], ids=["nan", "inf", "output-inf", "one-point-sweep", "bare-cr"])
def test_parse_error_line(text, fragment, line):
    with pytest.raises(IVParseError, match=fragment) as info:
        load_iv_dataset(io.StringIO(text))
    assert info.value.line == line


@settings(max_examples=300, deadline=None)
@given(text=iv_csv_text())
def test_loader_returns_dataset_or_parse_error(text):
    try:
        ds = load_iv_dataset(io.StringIO(text))
    except IVParseError:
        return
    assert ds.sweeps
    for s in ds.sweeps:
        assert s.voltage.size >= 2
        assert all(map(math.isfinite, [*s.voltage, *s.current]))


def test_parse_error_carries_line_number():
    with pytest.raises(IVParseError) as info:
        load_iv_dataset(io.StringIO("v_be_V,i_b_A\n0.1,1e-9\n0.2,oops\n"))
    assert info.value.line == 3


def test_early_fit_noise_free():
    ds = synth_output_family(160.0, 124.0)
    fit = fit_early_voltage(ds)
    assert fit.v_early == pytest.approx(124.0, rel=1e-6)
    assert fit.fit_window == (0.5, 2.0)
    assert 0.0 <= fit.r_squared <= 1.0
    assert fit.excluded_labels == ()


def test_early_fit_label_range_filter():
    ds = synth_output_family(160.0, 124.0)
    fit = fit_early_voltage(ds)
    # only 200..800 nA curves enter: 13 of the 17
    assert len(fit.per_curve_intercepts) == 13


def test_early_fit_flat_curves_error():
    v = np.linspace(0.0, 2.0, 50)
    sweeps = tuple(IVSweep(label=ib, voltage=v, current=np.full(50, ib * 160.0))
                   for ib in (200e-9, 400e-9))
    ds = IVDataset(kind="output_characteristics", sweeps=sweeps)
    with pytest.raises(FitError):
        fit_early_voltage(ds)


def test_early_fit_label_shift_invariance():
    ds = synth_output_family(160.0, 124.0)
    shifted = IVDataset(
        kind="output_characteristics",
        sweeps=tuple(IVSweep(label=s.label + 1e-6, voltage=s.voltage,
                             current=s.current) for s in ds.sweeps))
    a = fit_early_voltage(ds, i_b_range=None)
    b = fit_early_voltage(shifted, i_b_range=None)
    assert b.v_early == pytest.approx(a.v_early, rel=1e-12)


def test_early_fit_wrong_kind():
    with pytest.raises(FitError):
        fit_early_voltage(synth_input_curve(1e-12, 25e-3, 160.0))


def test_fit_beta_round_trip():
    ds = synth_output_family(160.0, 124.0)
    assert fit_beta(ds, 1e-4, 0.9) == pytest.approx(160.0, rel=0.01)


def test_fit_beta_two_curve_arithmetic():
    v = np.linspace(0.0, 2.0, 21)
    sweeps = (IVSweep(label=600e-9, voltage=v, current=np.full(21, 96e-6)),
              IVSweep(label=650e-9, voltage=v, current=np.full(21, 104e-6)))
    ds = IVDataset(kind="output_characteristics", sweeps=sweeps)
    assert fit_beta(ds, 1e-4, 0.9) == pytest.approx(160.0, rel=1e-12)


def test_fit_beta_outside_hull():
    ds = synth_output_family(160.0, 124.0)
    with pytest.raises(FitError):
        fit_beta(ds, 1e-2, 0.9)
    with pytest.raises(FitError):
        fit_beta(ds, 1e-4, 5.0)


def test_intrinsic_gain():
    assert intrinsic_gain(124.0, 25e-3) == pytest.approx(4960.0, rel=1e-12)
    assert intrinsic_gain(1.0, 1.0) == 1.0
    # the physical 600 mK thermal voltage would imply an absurd gain,
    # which is why v_teff is an effective fitted value
    assert intrinsic_gain(124.0, 52e-6) == pytest.approx(2.385e6, rel=1e-3)
    with pytest.raises(ValueError):
        intrinsic_gain(-1.0, 25e-3)


def test_diode_fit_round_trip():
    ds = synth_input_curve(i_sat=6.35e-8, v_teff=25e-3, beta_f=160.0)
    fit = fit_diode_params(ds, beta_f=160.0)
    assert fit.v_teff == pytest.approx(25e-3, rel=0.01)
    assert fit.i_sat == pytest.approx(6.35e-8, rel=0.01)
    assert fit.residual < 1e-9


def test_diode_fit_two_points_exact():
    ds = load_iv_dataset(io.StringIO("v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-8\n"))
    fit = fit_diode_params(ds, beta_f=1.0)
    v_teff = 0.1 / np.log(10.0)
    assert fit.v_teff == pytest.approx(v_teff, rel=1e-9)
    assert fit.i_sat == pytest.approx(1e-9 * np.exp(-0.1 / v_teff), rel=1e-9)


def test_diode_fit_constant_current_error():
    ds = load_iv_dataset(io.StringIO(
        "v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-9\n0.3,1e-9\n"))
    with pytest.raises(FitError, match="slope"):
        fit_diode_params(ds, beta_f=160.0)


def test_diode_fit_filters_nonpositive():
    ds = load_iv_dataset(io.StringIO(
        "v_be_V,i_b_A\n0.05,-1e-12\n0.1,1e-9\n0.2,1e-8\n0.3,1e-7\n"))
    fit = fit_diode_params(ds, beta_f=160.0)
    assert fit.v_teff == pytest.approx(0.1 / np.log(10.0), rel=1e-9)
    ds2 = load_iv_dataset(io.StringIO(
        "v_be_V,i_b_A\n0.05,-1e-12\n0.1,1e-9\n0.2,1e-8\n"))
    with pytest.raises(FitError):
        fit_diode_params(ds2, beta_f=160.0)


def test_classify_clean_family():
    cls = classify_transistor(synth_output_family(160.0, 124.0))
    assert cls.verdict == "usable"
    assert cls.evidence == ()


def test_classify_ndr_dip():
    ds = synth_output_family(160.0, 124.0)
    s = ds.sweeps[8]
    current = s.current.copy()
    dip = (s.voltage >= 1.0) & (s.voltage <= 1.2)
    current[dip] *= 0.9
    sweeps = list(ds.sweeps)
    sweeps[8] = IVSweep(label=s.label, voltage=s.voltage, current=current)
    cls = classify_transistor(
        IVDataset(kind="output_characteristics", sweeps=tuple(sweeps)))
    assert cls.verdict == "negative_differential_resistance"
    kind, label, (v_lo, v_hi), metric = cls.evidence[0]
    assert kind == "ndr" and label == s.label
    assert 0.9 <= v_lo <= 1.05 and 1.0 <= v_hi <= 1.35
    assert metric < 0


def test_classify_identical_backward_no_hysteresis():
    ds = synth_output_family(160.0, 124.0)
    bwd = IVDataset(kind="output_characteristics", sweeps=ds.sweeps)
    assert classify_transistor(ds, bwd).verdict == "usable"


def test_classify_hysteresis():
    ds = synth_output_family(160.0, 124.0)
    bwd_sweeps = tuple(IVSweep(label=s.label, voltage=s.voltage,
                               current=1.1 * s.current) for s in ds.sweeps)
    bwd = IVDataset(kind="output_characteristics", sweeps=bwd_sweeps)
    cls = classify_transistor(ds, bwd)
    assert cls.verdict == "hysteretic"
    assert all(e[0] == "hysteresis" for e in cls.evidence)


def test_classify_mismatched_labels():
    ds = synth_output_family(160.0, 124.0)
    bwd = IVDataset(kind="output_characteristics",
                    sweeps=(IVSweep(label=123e-9, voltage=ds.sweeps[0].voltage,
                                    current=ds.sweeps[0].current),))
    with pytest.raises(ValueError, match="label"):
        classify_transistor(ds, bwd)


def test_classify_threshold_monotone():
    ds = synth_output_family(160.0, 124.0, noise=0.01,
                             rng=np.random.default_rng(3))
    n_strict = len(classify_transistor(ds, ndr_threshold=1e-8).evidence)
    n_loose = len(classify_transistor(ds, ndr_threshold=1e-3).evidence)
    assert n_loose <= n_strict


def test_fit_idempotence():
    ds = synth_output_family(beta_f=160.0, v_early=124.0)
    v_a = fit_early_voltage(ds).v_early
    beta = fit_beta(ds, 1e-4, 0.9)
    # fit_beta measures the local dI_c/dI_b, which carries the Early tilt
    # (1 + v_ce/V_A); invert that to recover the generator's beta_f
    beta_intrinsic = beta / (1.0 + 0.9 / v_a)
    ds2 = synth_output_family(beta_f=beta_intrinsic, v_early=v_a)
    assert fit_early_voltage(ds2).v_early == pytest.approx(v_a, rel=1e-6)
    assert fit_beta(ds2, 1e-4, 0.9) == pytest.approx(beta, rel=1e-6)


def test_sweep_validation():
    with pytest.raises(ValueError):
        IVSweep(label=None, voltage=np.array([0.1]), current=np.array([1.0]))
    with pytest.raises(ValueError):
        IVSweep(label=None, voltage=np.array([0.1, 0.3, 0.2]),
                current=np.zeros(3))
    with pytest.raises(ValueError):
        IVDataset(kind="mystery", sweeps=())
