import csv
import io
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cryoreadout import ivfit
from cryoreadout.cli import NormalStream
from cryoreadout.ivfit import (FitError, IVDataset, IVParseError, IVSweep,
                               classify_transistor, fit_diode_params,
                               fit_early_voltage, intrinsic_gain,
                               load_iv_dataset, save_iv_dataset, write_csv)

from conftest import (csv_file, iv_csv_text, noiseless_diode, noiseless_family,
                      reference)


def test_input_csv_parse(tmp_path):
    sweep = load_iv_dataset(csv_file(
        tmp_path, "v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-8\n0.3,1e-7\n"))
    assert isinstance(sweep, IVSweep)
    assert sweep.label is None
    assert sweep.voltage.tolist() == [0.1, 0.2, 0.3]


def test_output_family_parse_and_roundtrip(tmp_path):
    ds = noiseless_family()
    assert len(ds.forward) == 17      # 200..1000 nA step 50 nA
    assert ds.backward == ()
    assert ds.forward[0].label == pytest.approx(200e-9)
    assert ds.forward[-1].label == pytest.approx(1000e-9)

    path = tmp_path / "family.csv"
    save_iv_dataset(ds, path)
    ds2 = load_iv_dataset(path)
    assert len(ds2.forward) == 17 and ds2.backward == ()
    for a, b in zip(ds.forward, ds2.forward):
        assert a.label == b.label
        np.testing.assert_array_equal(a.voltage, b.voltage)
        np.testing.assert_array_equal(a.current, b.current)
    # serialize -> load -> serialize is bit-identical
    path2 = tmp_path / "family2.csv"
    save_iv_dataset(ds2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bidirectional_parse(tmp_path):
    # the backward branch, run downward in the file, is stored ascending
    text = ("i_b_A,v_ce_V,i_c_A,direction\n"
            "1e-7,0.0,1e-5,fwd\n1e-7,1.0,1.1e-5,fwd\n"
            "1e-7,1.0,1.2e-5,bwd\n1e-7,0.0,1.0e-5,bwd\n")
    ds = load_iv_dataset(csv_file(tmp_path, text))
    (fwd,), (bwd,) = ds.forward, ds.backward
    assert fwd.voltage.tolist() == bwd.voltage.tolist() == [0.0, 1.0]
    assert bwd.current.tolist() == [1.0e-5, 1.2e-5]


# signed zero, the smallest subnormal, the largest finite of each sign and
# a negative number far below 1
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, -1e-300]


@pytest.mark.parametrize("n", [1, ivfit.CSV_BLOCK, ivfit.CSV_BLOCK + 1,
                               2 * ivfit.CSV_BLOCK + 1])
def test_write_csv_block_edges(n):
    # the edge values sit in the first and last rows and on both sides of
    # the first block boundary
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-300, 300,
                                                                 (n, 5))
    for k in (0, ivfit.CSV_BLOCK - 1, ivfit.CSV_BLOCK, n - 1):
        if k < n:
            values[k] = np.roll(EDGE_FLOATS, k)
    labels = [("fwd", "bwd", "usable")[k % 3] for k in range(n)]
    header = ["a", "b", "label", "c", "d", "e"]
    out = io.StringIO(newline="")
    write_csv(out, header, [values[:, 0], values[:, 1], labels,
                            *values[:, 2:].T])

    # the reference: csv.writer with one f"{x:.17g}" per number
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    for row, label in zip(values.tolist(), labels):
        cells = [f"{x:.17g}" for x in row]
        w.writerow([*cells[:2], label, *cells[2:]])
    # the first line that differs, not a diff of the whole text
    lines = zip_longest(out.getvalue().splitlines(keepends=True),
                        ref.getvalue().splitlines(keepends=True))
    assert next(((k, got, want) for k, (got, want) in enumerate(lines)
                 if got != want), None) is None

    rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
    assert rows[0] == header and [r[2] for r in rows[1:]] == labels
    back = np.array([[float(x) for i, x in enumerate(r) if i != 2]
                     for r in rows[1:]])
    # bit for bit, so -0.0 keeps its sign
    np.testing.assert_array_equal(back.view(np.int64), values.view(np.int64))


def test_str_is_always_a_path(tmp_path):
    # a file name may contain a newline, and CSV text is not a file name
    path = tmp_path / "a\nb.csv"
    path.write_text("v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-8\n", encoding="utf-8")
    assert load_iv_dataset(str(path)).voltage.tolist() == [0.1, 0.2]
    with pytest.raises(FileNotFoundError):
        load_iv_dataset(str(tmp_path / "v_be_V,i_b_A"))


def test_empty_stream_is_parse_error(tmp_path):
    with pytest.raises(IVParseError, match="empty"):
        load_iv_dataset(csv_file(tmp_path, ""))


@pytest.mark.parametrize("text,fragment", [
    ("bogus,header\n1,2\n", "header"),
    ("v_be_V,i_b_A\n0.1,abc\n", "not a number"),
    ("v_be_V,i_b_A\n0.1\n", "columns"),
    ("v_be_V,i_b_A\n0.1,1e-9\n0.1,2e-9\n", "duplicate"),
    ("v_be_V,i_b_A\n0.1,1e-9\n", "at least 2 data rows"),
    ("i_b_A,v_ce_V,i_c_A\n1e-7,0.0,1e-5\n1e-7,1.0,2e-5\n1e-7,0.5,3e-5\n",
     "non-monotone"),
    ("i_b_A,v_ce_V,i_c_A,direction\n1e-7,0.0,1e-5,sideways\n", "direction"),
])
def test_parse_errors(tmp_path, text, fragment):
    with pytest.raises(IVParseError, match=fragment):
        load_iv_dataset(csv_file(tmp_path, text))


@pytest.mark.parametrize("text,fragment,line", [
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2,nan\n", "finite", 3),
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2,inf\n", "finite", 3),
    ("i_b_A,v_ce_V,i_c_A\n1e-7,0.0,1e-5\n1e-7,-inf,2e-5\n", "finite", 3),
    ("i_b_A,v_ce_V,i_c_A\n1e-7,0.0,1e-5\n1e-7,1.0,2e-5\n2e-7,0.0,3e-5\n",
     "2 points", 4),
    # a bare carriage return ends a line, so it cuts the row short
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2,1\re-8\n", "expected 2 columns", 4),
    # a field over the csv module's size limit is malformed CSV
    ("v_be_V,i_b_A\n0.1,1e-9\n0.2," + "1" * 131073 + "\n", "malformed", 3),
    # the 1e-7 curve's rows interleaved with another curve's: the line is
    # the first of the repeated pair, or the curve's first row
    ("i_b_A,v_ce_V,i_c_A\n2e-7,0.0,3e-5\n1e-7,0.0,1e-5\n2e-7,1.0,3.1e-5\n"
     "1e-7,0.5,1.1e-5\n1e-7,0.5,1.2e-5\n", "duplicate v_ce", 5),
    ("i_b_A,v_ce_V,i_c_A\n2e-7,0.0,3e-5\n1e-7,0.0,1e-5\n2e-7,1.0,3.1e-5\n"
     "1e-7,1.0,1.1e-5\n1e-7,0.5,1.2e-5\n", "non-monotone v_ce", 3),
    # a quoted field that spans lines: the line is the physical one
    ('v_be_V,i_b_A\n"0.1\n",1e-9\n0.2,oops\n', "not a number: 'oops'", 4),
    # blank rows are skipped, and their lines still counted
    ("v_be_V,i_b_A\n\n0.1,1e-9\n\n0.2,nan\n", "finite", 5),
], ids=["nan", "inf", "output-inf", "one-point-sweep", "bare-cr",
        "field-limit", "interleaved-duplicate", "interleaved-non-monotone",
        "quoted-newline", "blank-rows"])
def test_parse_error_line(tmp_path, text, fragment, line):
    with pytest.raises(IVParseError, match=fragment) as info:
        load_iv_dataset(csv_file(tmp_path, text))
    assert info.value.line == line


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=iv_csv_text())
def test_loader_returns_dataset_or_parse_error(tmp_path, text):
    # an input curve loads as one sweep, a family as its branches; every
    # sweep is finite and ascending
    try:
        ds = load_iv_dataset(csv_file(tmp_path, text))
    except IVParseError:
        return
    sweeps = [ds] if isinstance(ds, IVSweep) else [*ds.forward, *ds.backward]
    assert sweeps
    for s in sweeps:
        assert s.voltage.size >= 2
        assert np.all(np.diff(s.voltage) > 0)
        assert all(map(math.isfinite, [*s.voltage, *s.current]))


@st.composite
def _family_curves(draw):
    """{(label, direction): [(v_ce, i_c), ...]}: a forward curve for each
    label, some with a backward one, each with v_ce ascending or
    descending."""
    labels = draw(st.lists(st.sampled_from([1e-7, 2e-7, 3e-7, 4e-7]),
                           min_size=1, max_size=4, unique=True))
    curves = {}
    for label in labels:
        for d in draw(st.sampled_from([("fwd",), ("fwd", "bwd")])):
            v = draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6,
                              unique=True))
            i = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=len(v),
                              max_size=len(v)))
            v = sorted(v, reverse=draw(st.booleans()))
            curves[(label, d)] = list(zip(v, i))
    return curves


def _family_text(curves, keys):
    # one row per key, each curve's rows taken in order
    rows = {k: iter(pts) for k, pts in curves.items()}
    lines = ["i_b_A,v_ce_V,i_c_A,direction"]
    for label, d in keys:
        v, i = next(rows[label, d])
        lines.append(f"{label!r},{v!r},{i!r},{d}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(curves=_family_curves(), data=st.data())
def test_interleaved_family_loads_as_sorted(tmp_path, curves, data):
    # rows of different labels interleaved, and every backward row before
    # every forward one, load to the same sweeps as the file written curve
    # by curve: each branch in label order, each sweep its rows in
    # ascending voltage
    keys = [k for k, pts in curves.items() for _ in pts]
    mixed = sorted(data.draw(st.permutations(keys)),
                   key=lambda k: k[1] == "fwd")
    by_curve = sorted(keys, key=lambda k: (k[0], k[1] == "bwd"))
    for keys_in_file in (mixed, by_curve):
        ds = load_iv_dataset(csv_file(
            tmp_path, _family_text(curves, keys_in_file)))
        for d, sweeps in (("fwd", ds.forward), ("bwd", ds.backward)):
            want = sorted((label, sorted(pts)) for (label, dd), pts
                          in curves.items() if dd == d)
            assert len(sweeps) == len(want)
            for s, (label, pts) in zip(sweeps, want):
                assert s.label == label
                assert s.voltage.tolist() == [v for v, _ in pts]
                assert s.current.tolist() == [i for _, i in pts]


def test_load_family_memory(tmp_path):
    # the loader keeps packed columns, not a Python object per row: the
    # synthetic family, 17 curves of 401 points, loads within 0.75 MB
    path = tmp_path / "family.csv"
    save_iv_dataset(noiseless_family(), path)
    tracemalloc.start()
    try:
        ds = load_iv_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.voltage.size for s in ds.forward) == 6817
    assert peak < 0.75e6, peak


def test_parse_error_carries_line_number(tmp_path):
    with pytest.raises(IVParseError) as info:
        load_iv_dataset(csv_file(tmp_path,
                                 "v_be_V,i_b_A\n0.1,1e-9\n0.2,oops\n"))
    assert info.value.line == 3


@st.composite
def _line_data(draw):
    """A noisy line over at least 2 distinct abscissae spread over >= 1."""
    x = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=40,
                      unique=True).filter(lambda x: np.ptp(x) >= 1.0))
    slope = draw(st.floats(-10.0, 10.0))
    intercept = draw(st.floats(-10.0, 10.0))
    noise = draw(st.lists(st.floats(-0.01, 0.01), min_size=len(x),
                          max_size=len(x)))
    x = np.array(x)
    return x, slope * x + intercept + np.array(noise)


@settings(max_examples=200, deadline=None)
@given(xy=_line_data())
def test_line_fit_matches_polyfit(xy):
    # the closed form agrees with numpy's least-squares fit on
    # well-conditioned data; the absolute floor is rounding on values of
    # order 10
    x, y = xy
    slope, intercept = ivfit._line_fit(x, y)
    ref_slope, ref_intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(ref_slope, rel=1e-9, abs=1e-12)
    assert intercept == pytest.approx(ref_intercept, rel=1e-9, abs=1e-12)


def test_early_fit_noise_free():
    ds = noiseless_family()
    fit = fit_early_voltage(ds)
    assert fit.v_early == pytest.approx(124.0, rel=1e-6)
    assert 0.0 <= fit.r_squared <= 1.0


def test_early_fit_label_range_filter():
    # only the 200..800 nA curves enter (13 of the 17): tilting the other
    # four, and a 100 nA curve added below the range, to V_A = 30 V leaves
    # the fitted 124 V
    v = ivfit.SYNTH_V_CE
    sweeps = [IVSweep(label=100e-9, voltage=v,
                      current=160.0 * 100e-9 * (1.0 + v / 30.0))]
    for s in noiseless_family().forward:
        if s.label > 800e-9 + 1e-12:
            s = IVSweep(label=s.label, voltage=v,
                        current=160.0 * s.label * (1.0 + v / 30.0))
        sweeps.append(s)
    ds = IVDataset(forward=tuple(sweeps))
    assert sum(200e-9 <= s.label <= 800e-9 for s in ds.forward) == 13
    assert fit_early_voltage(ds).v_early == pytest.approx(124.0, rel=1e-6)


def test_early_fit_skips_flat_curve():
    # a flat curve in the range has no Early intercept: it is left out, and
    # the fit of the rest is unchanged
    ds = noiseless_family()
    flat = IVSweep(label=210e-9, voltage=ivfit.SYNTH_V_CE,
                   current=np.full(ivfit.SYNTH_V_CE.size, 160.0 * 210e-9))
    sweeps = sorted((*ds.forward, flat), key=lambda s: s.label)
    with_flat = IVDataset(forward=tuple(sweeps))
    assert fit_early_voltage(with_flat).v_early == \
        fit_early_voltage(ds).v_early


def test_early_fit_flat_curves_error():
    v = np.linspace(0.0, 2.0, 50)
    sweeps = tuple(IVSweep(label=ib, voltage=v, current=np.full(50, ib * 160.0))
                   for ib in (200e-9, 400e-9))
    with pytest.raises(FitError):
        fit_early_voltage(IVDataset(forward=sweeps))


def test_early_fit_non_positive_beta_error():
    # rising lines through i_c = 0 at v_ce = 1 V have a negative i_c-axis
    # intercept, so beta_f < 0 and the diode fit's i_sat would be too
    v = np.linspace(0.0, 2.0, 50)
    sweeps = tuple(IVSweep(label=ib, voltage=v, current=ib * 160.0 * (v - 1.0))
                   for ib in (200e-9, 400e-9))
    with pytest.raises(FitError, match="non-positive beta"):
        fit_early_voltage(IVDataset(forward=sweeps))


def test_early_fit_label_shift_invariance():
    # the 300-700 nA curves, shifted by 1 nA, stay inside EARLY_FIT_IB_RANGE
    middle = tuple(s for s in noiseless_family().forward
                   if 300e-9 - 1e-12 <= s.label <= 700e-9 + 1e-12)
    assert len(middle) == 9
    ds = IVDataset(forward=middle)
    shifted = IVDataset(forward=tuple(
        IVSweep(label=s.label + 1e-9, voltage=s.voltage, current=s.current)
        for s in middle))
    a = fit_early_voltage(ds)
    b = fit_early_voltage(shifted)
    assert b.v_early == pytest.approx(a.v_early, rel=1e-12)


def test_early_fit_current_scale_invariance():
    # currents scaled by 2^1000, finite but with squares far past the float
    # range: the same V_A and r^2, beta_f times 2^1000, and no warning
    ds = noiseless_family()
    scale = 2.0 ** 1000
    scaled = IVDataset(forward=tuple(
        IVSweep(label=s.label, voltage=s.voltage, current=s.current * scale)
        for s in ds.forward))
    a = fit_early_voltage(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = fit_early_voltage(scaled)
    assert b.v_early == pytest.approx(a.v_early, rel=1e-12)
    assert b.r_squared == pytest.approx(a.r_squared, rel=1e-12)
    assert b.beta_f == pytest.approx(a.beta_f * scale, rel=1e-12)


def test_early_fit_wrong_kind():
    # a file of the wrong kind is an input error naming the expected header
    with pytest.raises(IVParseError, match="i_b_A,v_ce_V,i_c_A"):
        fit_early_voltage(noiseless_diode(1e-12))


@pytest.mark.parametrize("fit, ds, header", [
    (classify_transistor, noiseless_diode(),
     "output characteristics (header i_b_A,v_ce_V,i_c_A)"),
    (lambda ds: fit_diode_params(ds, 160.0), noiseless_family(),
     "input characteristics (header v_be_V,i_b_A)"),
], ids=["classify", "diode"])
def test_fit_wrong_kind(fit, ds, header):
    # input characteristics load as an IVSweep, a family as an IVDataset;
    # each fit takes only its own kind
    with pytest.raises(IVParseError, match=re.escape(header)):
        fit(ds)


@pytest.mark.parametrize("synth", [ivfit.synth_input_curve,
                                   ivfit.synth_output_family])
@pytest.mark.parametrize("noise", [math.nan, math.inf, -0.5])
def test_synth_rejects_bad_noise(synth, noise):
    # a noise sigma the draw cannot use is an error, not a noise-free dataset
    with pytest.raises(ValueError, match="noise"):
        synth(reference().transistor, noise, NormalStream(0))


@pytest.mark.parametrize("synth", [ivfit.synth_input_curve,
                                   ivfit.synth_output_family])
def test_synth_needs_a_generator_only_to_draw(synth):
    # noise 0 draws nothing: any seed gives the same currents, and the
    # stream's next draw is still a fresh stream's first
    params = reference().transistor

    def currents(ds):
        return np.concatenate([s.current for s in getattr(ds, "forward",
                                                          (ds,))])

    stream = NormalStream(1)
    np.testing.assert_array_equal(currents(synth(params, 0.0, stream)),
                                  currents(synth(params, 0.0,
                                                 NormalStream(0))))
    np.testing.assert_array_equal(stream.standard_normal(2),
                                  NormalStream(1).standard_normal(2))


@pytest.mark.parametrize("synth, changes, noise", [
    (ivfit.synth_output_family, {"beta_f": 1e306}, 1e10),
    (ivfit.synth_input_curve, {"v_teff": 1e-6}, 0.0),
], ids=["output", "input"])
def test_synth_overflow_raises(synth, changes, noise):
    # numpy warns first, and the suite makes that warning an error, so the
    # check after the draw is reached with the warning silenced
    params = replace(reference().transistor, **changes)
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="overflows"):
        synth(params, noise, NormalStream(0))


def test_beta_f_under_noise():
    # the line intercepts average the noise over each curve's window: at 1%
    # multiplicative noise beta_f stays within 1% of the device's on every
    # one of 100 seeds
    params = reference().transistor
    worst = max(
        abs(fit_early_voltage(ivfit.synth_output_family(
            params, 0.01, NormalStream(seed))).beta_f - 160.0)
        / 160.0 for seed in range(100))
    assert worst <= 0.01


def test_intrinsic_gain():
    assert intrinsic_gain(124.0, 25e-3) == pytest.approx(4960.0, rel=1e-12)
    assert intrinsic_gain(1.0, 1.0) == 1.0
    # the physical 600 mK thermal voltage would imply an absurd gain,
    # which is why v_teff is an effective fitted value
    assert intrinsic_gain(124.0, 52e-6) == pytest.approx(2.385e6, rel=1e-3)
    with pytest.raises(ValueError):
        intrinsic_gain(-1.0, 25e-3)


def test_diode_fit_round_trip():
    ds = noiseless_diode()
    fit = fit_diode_params(ds, beta_f=160.0)
    assert fit.v_teff == pytest.approx(25e-3, rel=0.01)
    assert fit.i_sat == pytest.approx(6.35e-8, rel=0.01)
    assert fit.residual < 1e-9


def test_diode_fit_two_points_exact(tmp_path):
    ds = load_iv_dataset(csv_file(tmp_path,
                                  "v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-8\n"))
    fit = fit_diode_params(ds, beta_f=1.0)
    v_teff = 0.1 / np.log(10.0)
    assert fit.v_teff == pytest.approx(v_teff, rel=1e-9)
    assert fit.i_sat == pytest.approx(1e-9 * np.exp(-0.1 / v_teff), rel=1e-9)


def test_diode_fit_constant_current_error(tmp_path):
    ds = load_iv_dataset(csv_file(
        tmp_path, "v_be_V,i_b_A\n0.1,1e-9\n0.2,1e-9\n0.3,1e-9\n"))
    with pytest.raises(FitError, match="slope"):
        fit_diode_params(ds, beta_f=160.0)


def test_diode_fit_filters_nonpositive(tmp_path):
    ds = load_iv_dataset(csv_file(
        tmp_path,
        "v_be_V,i_b_A\n0.05,-1e-12\n0.1,1e-9\n0.2,1e-8\n0.3,1e-7\n"))
    fit = fit_diode_params(ds, beta_f=160.0)
    assert fit.v_teff == pytest.approx(0.1 / np.log(10.0), rel=1e-9)
    ds2 = load_iv_dataset(csv_file(
        tmp_path, "v_be_V,i_b_A\n0.05,-1e-12\n0.1,1e-9\n0.2,1e-8\n"))
    with pytest.raises(FitError):
        fit_diode_params(ds2, beta_f=160.0)
    ds1 = load_iv_dataset(csv_file(
        tmp_path, "v_be_V,i_b_A\n0.1,-1e-12\n0.2,1e-9\n"))
    with pytest.raises(FitError, match="fewer than 2"):
        fit_diode_params(ds1, beta_f=160.0)


def test_classify_clean_family():
    # the noise-free family never falls below its running maximum; a
    # family whose every current is 0, backward branches too, has no
    # scale to compare against and gives no evidence (and no warning)
    fwd = [IVSweep(label=s.label, voltage=s.voltage,
                   current=np.zeros_like(s.current))
           for s in noiseless_family().forward]
    zero = _with_backward(fwd, [(s.label, s.voltage, s.current) for s in fwd])
    for ds in (noiseless_family(), zero):
        cls = classify_transistor(ds)
        assert cls.verdict == "usable"
        assert cls.evidence == ()


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "with-backward"])
def test_classify_noisy_family_usable(backward):
    # multiplicative noise of 0.1 % is no defect: its largest fall below
    # the running maximum is about 0.74 % of a curve's largest current,
    # and an independently drawn backward branch stays as close
    params = reference().transistor
    flagged = []
    for seed in range(100):
        rng = NormalStream(seed)
        ds = ivfit.synth_output_family(params, 1e-3, rng)
        if backward:
            bwd = ivfit.synth_output_family(params, 1e-3, rng)
            ds = IVDataset(forward=ds.forward, backward=bwd.forward)
        if classify_transistor(ds).verdict != "usable":
            flagged.append(seed)
    assert flagged == []


def test_classify_ndr_dip():
    ds = noiseless_family()
    s = ds.forward[8]
    current = s.current.copy()
    dip = (s.voltage >= 1.0) & (s.voltage <= 1.2)
    current[dip] *= 0.9
    sweeps = list(ds.forward)
    sweeps[8] = IVSweep(label=s.label, voltage=s.voltage, current=current)
    cls = classify_transistor(IVDataset(forward=tuple(sweeps)))
    assert cls.verdict == "negative_differential_resistance"
    kind, label, (v_lo, v_hi), metric = cls.evidence[0]
    assert kind == "ndr" and label == s.label
    assert 0.9 <= v_lo <= 1.05 and 1.0 <= v_hi <= 1.35
    # the largest fall is at the dip's first point, below the point before
    # it, as a fraction of the curve's largest current
    k = np.argmax(dip)
    fall = (s.current[k - 1] - 0.9 * s.current[k]) / s.current.max()
    assert metric == pytest.approx(fall, rel=1e-12)
    assert metric == pytest.approx(0.0992, abs=1e-4)


def _with_backward(fwd, bwd):
    # one dataset holding the forward sweeps and the backward ones, each
    # backward sweep given as (label, voltage, current)
    return IVDataset(forward=tuple(fwd), backward=tuple(
        IVSweep(label=ib, voltage=v, current=i) for ib, v, i in bwd))


def test_classify_identical_backward_no_hysteresis():
    ds = noiseless_family()
    both = _with_backward(ds.forward, [(s.label, s.voltage, s.current)
                                       for s in ds.forward])
    assert classify_transistor(both).verdict == "usable"


def test_classify_hysteresis():
    ds = noiseless_family()
    both = _with_backward(ds.forward, [(s.label, s.voltage, 1.1 * s.current)
                                       for s in ds.forward])
    cls = classify_transistor(both)
    assert cls.verdict == "hysteretic"
    assert len(cls.evidence) == len(ds.forward)
    assert all(e[0] == "hysteresis" for e in cls.evidence)


def test_classify_mismatched_labels():
    ds = noiseless_family()
    s = ds.forward[0]
    both = _with_backward(ds.forward, [(123e-9, s.voltage, s.current)])
    with pytest.raises(ValueError, match="label 1.23e-07"):
        classify_transistor(both)


def _knee(ib, v):
    return 160.0 * ib * (1.0 + v / 124.0) * (1.0 - np.exp(-v / 0.05))


def _knee_family(bwd):
    # forward sweeps over 0..2 V with a knee; each backward sweep is the
    # same curve at the voltages ``bwd``
    v, labels = ivfit.SYNTH_V_CE, (200e-9, 400e-9, 600e-9)
    return _with_backward(
        [IVSweep(label=ib, voltage=v, current=_knee(ib, v)) for ib in labels],
        [(ib, bwd, _knee(ib, bwd)) for ib in labels])


def test_classify_compares_only_the_overlap():
    # a backward sweep that stops short of the knee is the forward curve
    # where it has data; below 0.5 V there is nothing to compare
    v = ivfit.SYNTH_V_CE
    cls = classify_transistor(_knee_family(v[v >= 0.5]))
    assert cls.verdict == "usable"
    assert cls.evidence == ()


def test_classify_needs_two_overlap_points():
    # a backward sweep that meets its 0..2 V forward sweep only at 2 V
    # cannot be compared with it
    with pytest.raises(ValueError, match="label 2e-07 overlaps"):
        classify_transistor(_knee_family(np.array([2.0, 2.5, 3.0])))


def test_fit_idempotence():
    # the noise-free family fits back to its generator, and a family drawn
    # from the fit fits back to the fit
    fit = fit_early_voltage(noiseless_family())
    assert fit.v_early == pytest.approx(124.0, rel=1e-12)
    assert fit.beta_f == pytest.approx(160.0, rel=1e-12)
    refit = fit_early_voltage(noiseless_family(fit.beta_f, fit.v_early))
    assert refit.v_early == pytest.approx(fit.v_early, rel=1e-12)
    assert refit.beta_f == pytest.approx(fit.beta_f, rel=1e-12)


def test_sweep_validation():
    with pytest.raises(ValueError):
        IVSweep(label=None, voltage=np.array([0.1]), current=np.array([1.0]))
    with pytest.raises(ValueError):
        IVSweep(label=None, voltage=np.array([0.1, 0.3, 0.2]),
                current=np.zeros(3))
    # a stored sweep runs upward: the loader reverses a descending one
    with pytest.raises(ValueError, match="ascending"):
        IVSweep(label=None, voltage=np.array([0.3, 0.2, 0.1]),
                current=np.zeros(3))
    v = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="labels"):
        IVDataset(forward=(IVSweep(label=None, voltage=v, current=v),))
    with pytest.raises(ValueError, match="increasing"):
        IVDataset(forward=(IVSweep(label=2e-7, voltage=v, current=v),
                           IVSweep(label=1e-7, voltage=v, current=v)))


def _rows(label, v, i, d):
    return [f"{label!r},{float(a)!r},{float(b)!r},{d}" for a, b in zip(v, i)]


def test_descending_family_loads_ascending(tmp_path):
    # the synthetic family with a hysteretic backward branch, written once
    # with every sweep ascending and once with every sweep descending, loads
    # to the same ascending sweeps and gives the same fits
    fwd = noiseless_family().forward
    bwd = [(s.label, s.voltage, 1.05 * s.current) for s in fwd[::4]]
    fits = []
    for step in (1, -1):
        rows = ["i_b_A,v_ce_V,i_c_A,direction"]
        for s in fwd:
            rows += _rows(s.label, s.voltage[::step], s.current[::step], "fwd")
        for label, v, i in bwd:
            rows += _rows(label, v[::step], i[::step], "bwd")
        ds = load_iv_dataset(csv_file(tmp_path, "\n".join(rows) + "\n"))
        for got, want in zip((*ds.forward, *ds.backward),
                             (*fwd, *(IVSweep(*b) for b in bwd))):
            assert got.label == want.label
            np.testing.assert_array_equal(got.voltage, want.voltage)
            np.testing.assert_array_equal(got.current, want.current)
        fits.append((fit_early_voltage(ds), classify_transistor(ds)))
    (early, cls), (early_d, cls_d) = fits
    assert early_d.v_early == pytest.approx(early.v_early, rel=1e-12)
    assert early_d.beta_f == pytest.approx(early.beta_f, rel=1e-12)
    assert early_d.r_squared == pytest.approx(early.r_squared, rel=1e-12)
    assert cls.verdict == cls_d.verdict == "hysteretic"
    assert len(cls.evidence) == len(bwd)
    for e, e_d in zip(cls.evidence, cls_d.evidence):
        assert e[:3] == e_d[:3]
        assert e_d[3] == pytest.approx(e[3], rel=1e-12)


def test_noisy_family_matches_per_label_draws():
    # one (labels x v_ce) draw is the stream of one 401-point draw per
    # label, in label order
    ds = ivfit.synth_output_family(reference().transistor, 0.01,
                                   NormalStream(0))
    rng = NormalStream(0)
    for ib, s in zip(ivfit.SYNTH_I_B_LABELS, ds.forward):
        ic = 160.0 * ib * (1.0 + ivfit.SYNTH_V_CE / 124.0)
        ic = ic * (1.0 + 0.01 * rng.standard_normal(ic.size))
        assert s.label == float(ib)
        np.testing.assert_array_equal(s.current, ic)
