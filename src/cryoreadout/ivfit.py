"""IV-sweep ingestion, device parameter extraction, and usability checks.

Input characteristics are (v_be, i_b) pairs at fixed v_ce and load as one
`IVSweep`; output characteristics are families of (v_ce, i_c) sweeps
labeled by base current and load as an `IVDataset`.  Every stored sweep
runs in ascending voltage.  CSV formats are documented in
`load_iv_dataset`.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .device import TransistorParams, forward_currents

__all__ = [
    "IVSweep",
    "IVDataset",
    "EarlyFit",
    "DiodeFit",
    "DeviceClassification",
    "IVParseError",
    "FitError",
    "load_iv_dataset",
    "save_iv_dataset",
    "write_csv",
    "fit_early_voltage",
    "intrinsic_gain",
    "fit_diode_params",
    "classify_transistor",
    "synth_output_family",
    "synth_input_curve",
]

# every CSV the package writes: numbers in 17 significant digits, which
# read back to the same double; a bounded block of rows per write
NUMBER_FORMAT = "%.17g"
CSV_BLOCK = 4096

INPUT_HEADER = ["v_be_V", "i_b_A"]
OUTPUT_HEADER = ["i_b_A", "v_ce_V", "i_c_A"]

# base-current label range over which flat-region curves enter the Early fit
EARLY_FIT_IB_RANGE = (200e-9, 800e-9)
# lower edge of the Early fit's v_ce window, V; the upper edge is the data max
EARLY_FIT_V_CE_MIN = 0.5
# a curve whose fitted rise across that window is at most this fraction of
# its largest current is flat (V_A above about 1e9 V): a least-squares line
# through constant data has a slope of rounding size, either sign
EARLY_FIT_MIN_RISE = 1e-9
# a diode fit whose v_teff would exceed this (V) has no usable slope
V_TEFF_MAX = 10.0
# classification: a defect is a current off its reference (NDR: the forward
# sweep's running maximum; hysteresis: the backward branch) by more than
# this fraction of the larger |current| of the two
DEFECT_THRESHOLD = 0.02
# synthetic datasets: output-family base-current labels (A) and v_ce grid (V),
# input-curve v_be grid (V)
SYNTH_I_B_LABELS = np.arange(200e-9, 1000e-9 + 1e-12, 50e-9)
SYNTH_V_CE = np.arange(0.0, 2.0 + 1e-9, 5e-3)
SYNTH_V_BE = np.linspace(0.05, 0.35, 61)
for _grid in (SYNTH_I_B_LABELS, SYNTH_V_CE, SYNTH_V_BE):
    _grid.flags.writeable = False


class IVParseError(ValueError):
    """An IV file that is not valid input: malformed, or of the wrong kind
    for the fit asked of it."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(ArithmeticError):
    pass


@dataclass(frozen=True)
class IVSweep:
    """One sweep in ascending voltage: the input characteristics, or one
    branch of an output family."""

    label: float | None          # base-current label (output families), A
    voltage: np.ndarray
    current: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.voltage, dtype=float)
        i = np.asarray(self.current, dtype=float)
        if v.size != i.size or v.size < 2:
            raise ValueError("sweep needs >= 2 (voltage, current) points")
        if not np.all(np.diff(v) > 0):
            raise ValueError("sweep voltages must be strictly ascending")
        object.__setattr__(self, "voltage", v)
        object.__setattr__(self, "current", i)


@dataclass(frozen=True)
class IVDataset:
    """An output family: one forward sweep per base-current label, in
    increasing label order, and the backward branches measured."""

    forward: tuple[IVSweep, ...]
    backward: tuple[IVSweep, ...] = ()

    def __post_init__(self):
        if any(s.label is None for s in (*self.forward, *self.backward)):
            raise ValueError("output family sweeps must carry i_b labels")
        labels = [s.label for s in self.forward]
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValueError("output family labels must be strictly increasing")


@dataclass(frozen=True)
class EarlyFit:
    """Early voltage and beta_F fitted to the output curves' lines."""

    v_early: float
    beta_f: float
    r_squared: float


@dataclass(frozen=True)
class DiodeFit:
    """Saturation current and thermal voltage from the input curve."""

    i_sat: float
    v_teff: float
    residual: float   # RMS residual of ln(i_b) about the fitted line


@dataclass(frozen=True)
class DeviceClassification:
    """The IV classifier's verdict and the evidence for it."""

    verdict: str     # usable | hysteretic | negative_differential_resistance | both_defects
    # (kind, sweep label, (v_lo, v_hi), metric): the metric is the largest
    # |I - I_ref| / max|I, I_ref| found, a fraction for both kinds
    evidence: tuple[tuple, ...]


def _parse_float(text, line):
    try:
        value = float(text)
    except ValueError:
        raise IVParseError(f"not a number: {text!r}", line=line) from None
    if not math.isfinite(value):
        raise IVParseError(f"not a finite number: {text!r}", line=line)
    return value


def _require_kind(ds, kind, what):
    # a file of the wrong kind is an input error, not a failed fit
    if not isinstance(ds, kind):
        name, header = (("input", INPUT_HEADER) if kind is IVSweep
                        else ("output", OUTPUT_HEADER))
        raise IVParseError(f"{what} needs {name} characteristics (header "
                           f"{','.join(header)})")


def _finite(what, value):
    # a fit of finite data can still overflow
    if not math.isfinite(value):
        raise FitError(f"non-finite {what}: {value!r}")
    return value


def load_iv_dataset(path) -> IVSweep | IVDataset:
    """Load an IV file from a path (any ``str`` or path-like).

    Two CSV layouts (UTF-8, with or without a byte-order mark; header row
    required):

    * input characteristics: ``v_be_V,i_b_A``, loaded as one `IVSweep`
      with its rows sorted by v_be
    * output characteristics: ``i_b_A,v_ce_V,i_c_A`` with an optional
      ``direction`` column in {fwd, bwd}, loaded as an `IVDataset`

    Family rows are grouped by sweep label and direction (``fwd`` when the
    column is absent), wherever they stand in the file, each group keeping
    its rows' file order; the ``direction`` column is the only way to mark
    a backward branch.  Each group's voltages must be strictly monotone, so
    a voltage reversal within one label and direction is a parse error, not
    a branch split; a descending group is stored reversed, in ascending
    voltage.
    """
    with open(path, newline="", encoding="utf-8-sig") as stream:
        reader = csv.reader(stream)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise IVParseError("empty file", line=1) from None
            header = [h.strip() for h in header]
            if header == INPUT_HEADER:
                return _load_input(reader)
            if header[:3] == OUTPUT_HEADER and header[3:] in ([], ["direction"]):
                return _load_output(reader, has_direction=len(header) == 4)
            raise IVParseError(f"unrecognized header {header!r}", line=1)
        except csv.Error as exc:
            raise IVParseError(f"malformed CSV: {exc}",
                               line=reader.line_num) from None


def _read_columns(reader, n_values, has_direction=False):
    """The data rows as packed columns: ``n_values`` float columns, each
    row's line number, and whether the row runs forward (``fwd`` when the
    file has no ``direction`` column)."""
    want = n_values + has_direction
    values = [array("d") for _ in range(n_values)]
    lines, forward = array("q"), array("B")
    for row in reader:
        if not row:
            continue
        ln = reader.line_num   # the row's last physical line
        if len(row) != want:
            raise IVParseError(f"expected {want} columns, got {len(row)}", line=ln)
        d = row[n_values].strip() if has_direction else "fwd"
        if d not in ("fwd", "bwd"):
            raise IVParseError(f"direction must be fwd or bwd, got {d!r}", line=ln)
        for column, text in zip(values, row):
            column.append(_parse_float(text, ln))
        lines.append(ln)
        forward.append(d == "fwd")
    return ([np.frombuffer(c) for c in values], np.frombuffer(lines, np.int64),
            np.frombuffer(forward, bool))


def _load_input(reader):
    (v, i), _, _ = _read_columns(reader, 2)
    if v.size < 2:
        raise IVParseError("need at least 2 data rows", line=2)
    order = np.argsort(v, kind="stable")
    v = v[order]
    if np.any(np.diff(v) <= 0):
        raise IVParseError("duplicate v_be values in input characteristics")
    return IVSweep(label=None, voltage=v, current=i[order])


def _load_output(reader, has_direction):
    (ib, vce, ic), lines, forward = _read_columns(reader, 3, has_direction)
    if not ib.size:
        raise IVParseError("no data rows", line=2)
    # one stable sort groups the rows by label, bwd before fwd, each group
    # in file order
    order = np.lexsort((forward, ib))
    ib_s, fwd_s = ib[order], forward[order]
    split = (ib_s[1:] != ib_s[:-1]) | (fwd_s[1:] != fwd_s[:-1])
    bounds = [0, *(np.flatnonzero(split) + 1).tolist(), order.size]
    fwd, bwd = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = order[lo:hi]
        label = float(ib[rows[0]])
        first = int(lines[rows[0]])
        if rows.size < 2:
            raise IVParseError(f"sweep i_b={label:g} needs >= 2 points",
                               line=first)
        v = vce[rows]
        dv = np.diff(v)
        if np.any(dv == 0):
            ln = int(lines[rows[int(np.argmin(dv != 0))]])
            raise IVParseError(f"duplicate v_ce in sweep i_b={label:g}", line=ln)
        if not (np.all(dv > 0) or np.all(dv < 0)):
            raise IVParseError(f"non-monotone v_ce in sweep i_b={label:g}",
                               line=first)
        if dv[0] < 0:
            rows, v = rows[::-1], v[::-1]
        (fwd if fwd_s[lo] else bwd).append(
            IVSweep(label=label, voltage=v, current=ic[rows]))
    return IVDataset(forward=tuple(fwd), backward=tuple(bwd))


def write_csv(fh, header, columns) -> None:
    """Write ``header`` and the table ``columns`` (one float array or
    sequence of ``str`` per field, all of one length) to ``fh``, opened
    with ``newline=""``: fields joined by commas and never quoted, so no
    text may hold a comma, quote or line break; numbers in
    ``NUMBER_FORMAT``; lines ended by ``\\r\\n``; ``CSV_BLOCK`` rows
    formatted per ``write``."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind == "U" else NUMBER_FORMAT
                   for c in columns) + "\r\n"
    fh.write(",".join(header) + "\r\n")
    for lo in range(0, len(columns[0]), CSV_BLOCK):
        block = np.stack([c[lo:lo + CSV_BLOCK].astype(object)
                          for c in columns], axis=-1)
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def save_iv_dataset(ds: IVSweep | IVDataset, path) -> None:
    """Write input characteristics or an output family in its canonical CSV
    layout; a family writes its forward rows, then its backward rows."""
    if isinstance(ds, IVSweep):
        header, columns = INPUT_HEADER, [ds.voltage, ds.current]
    else:
        sweeps = (*ds.forward, *ds.backward)
        sizes = [s.voltage.size for s in sweeps]
        header = OUTPUT_HEADER
        columns = [np.repeat([s.label for s in sweeps], sizes),
                   np.concatenate([np.empty(0), *(s.voltage for s in sweeps)]),
                   np.concatenate([np.empty(0), *(s.current for s in sweeps)])]
        if ds.backward:
            header = OUTPUT_HEADER + ["direction"]
            columns.append(np.repeat(["fwd"] * len(ds.forward)
                                     + ["bwd"] * len(ds.backward), sizes))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_csv(fh, header, columns)


def _line_fit(x, y):
    """Least-squares line y = slope*x + intercept, in closed form on the
    centred data."""
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = np.sum(dx * (y - y_mean)) / np.sum(dx * dx)
    return slope, y_mean - slope * x_mean


def fit_early_voltage(ds: IVDataset) -> EarlyFit:
    """Extract the Early voltage by backward extrapolation, and beta_f from
    the same lines.

    The forward curves labelled inside ``EARLY_FIT_IB_RANGE`` are each
    fitted with a least-squares line i_c = m*v_ce + b over the window
    [``EARLY_FIT_V_CE_MIN``, data max].  Under the device law
    i_c = beta_f*i_b*(1 + v_ce/V_A) a line's v_ce-axis intercept -b/m is
    -V_A and its i_c-axis intercept b is beta_f*i_b.  The reported Early
    voltage is the slope-weighted mean of the |b/m|, and beta_f that of
    the b/i_b.  A family with no curve in the label range is an
    ``IVParseError``.  Curves with fewer than 2 points in the window or a
    rise across it of at most ``EARLY_FIT_MIN_RISE`` are left out; a family
    with none left, or a beta_f that is not positive, is a fit error.  The
    lines are fitted to the currents in units of the family's largest
    |i_c|, so no square or sum overflows and the fit is scale-invariant:
    currents scaled by c give the same V_A and r^2, and beta_f times c.
    """
    _require_kind(ds, IVDataset, "Early fit")
    ib_lo, ib_hi = EARLY_FIT_IB_RANGE
    sweeps = [s for s in ds.forward if ib_lo <= s.label <= ib_hi]
    if not sweeps:
        # the file cannot serve the fit, as a file of the wrong kind cannot
        raise IVParseError(f"Early fit needs a curve labelled inside the "
                           f"base-current range {ib_lo:g}..{ib_hi:g} A")

    # a family with no current at all is fitted unscaled, and left out as flat
    unit = float(max(np.abs(s.current).max() for s in sweeps)) or 1.0
    intercepts, gains, slopes, r2s = [], [], [], []
    for s in sweeps:
        m_sel = s.voltage >= EARLY_FIT_V_CE_MIN
        if m_sel.sum() < 2:
            continue
        x, y = s.voltage[m_sel], s.current[m_sel] / unit
        m, b = _line_fit(x, y)
        if m * np.ptp(x) <= EARLY_FIT_MIN_RISE * np.abs(y).max():
            continue
        resid = y - (m * x + b)
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 0.0
        intercepts.append(-b / m)
        gains.append(b / s.label)
        slopes.append(m)
        r2s.append(r2)
    if not intercepts:
        raise FitError("all curves excluded (flat or negative slope)")
    w = np.asarray(slopes)
    v_early = _finite("Early voltage",
                      float(np.sum(w * np.abs(intercepts)) / np.sum(w)))
    # a Python float product overflows to inf without a warning
    beta_f = _finite("beta", unit * float(np.sum(w * np.asarray(gains))
                                          / np.sum(w)))
    if beta_f <= 0:
        raise FitError(f"non-positive beta: {beta_f!r}")
    r_squared = _finite("Early fit r^2", float(
        np.clip(np.sum(w * np.asarray(r2s)) / np.sum(w), 0.0, 1.0)))
    return EarlyFit(v_early=v_early, beta_f=beta_f, r_squared=r_squared)


def intrinsic_gain(v_early: float, v_teff: float) -> float:
    """Maximum single-stage voltage gain g_m*r_o = v_early/v_teff."""
    if v_early <= 0 or v_teff <= 0:
        raise ValueError("v_early and v_teff must be positive")
    return _finite("intrinsic gain", v_early / v_teff)


def fit_diode_params(sweep: IVSweep, beta_f: float) -> DiodeFit:
    """Log-linear fit of the input characteristics.

    Fits ln(i_b) = ln(i_sat/beta_f) + v_be/v_teff; non-positive currents are
    filtered out, and a near-zero slope (v_teff diverging past
    ``V_TEFF_MAX``) is rejected.
    """
    _require_kind(sweep, IVSweep, "diode fit")
    keep = sweep.current > 0
    v, i = sweep.voltage[keep], sweep.current[keep]
    if v.size < 2:
        raise FitError("fewer than 2 positive-current points")
    if v.size < 3 and sweep.voltage.size >= 3:
        raise FitError("fewer than 3 positive-current points")
    slope, icpt = _line_fit(v, np.log(i))
    if slope <= 1.0 / V_TEFF_MAX:
        raise FitError("slope too small: v_teff diverges (constant-current data?)")
    v_teff = 1.0 / slope
    i_sat = _finite("saturation current", beta_f * math.exp(icpt))
    # the config takes i_sat > 0 only: an underflowed fit is no result
    if not i_sat > 0:
        raise FitError(f"saturation current not positive: {i_sat!r}")
    resid = np.log(i) - (slope * v + icpt)
    return DiodeFit(i_sat=i_sat, v_teff=v_teff,
                    residual=float(np.sqrt(np.mean(resid ** 2))))


def classify_transistor(ds: IVDataset) -> DeviceClassification:
    """Flag negative differential resistance and forward/backward hysteresis.

    Both are one test: a current against a reference curve, flagged where
    |I - I_ref| / max|I, I_ref| exceeds DEFECT_THRESHOLD.  NDR: each forward
    sweep against its own running maximum, so the metric is the largest
    fall below an earlier current.  Hysteresis: each backward sweep,
    interpolated onto the forward points of the same label inside its
    voltage range; fewer than 2 such points is a ValueError.  A curve with
    no current gives no evidence.  The verdict is "usable" iff no evidence
    is found.
    """
    _require_kind(ds, IVDataset, "classification")
    checks = [("ndr", s.label, s.voltage, s.current,
               np.maximum.accumulate(s.current)) for s in ds.forward]

    fwd_by_label = {s.label: s for s in ds.forward}
    for sb in ds.backward:
        if sb.label not in fwd_by_label:
            raise ValueError(f"backward sweep label {sb.label:g} has no "
                             "forward counterpart")
        sf = fwd_by_label[sb.label]
        vb, ib = sb.voltage, sb.current
        # np.interp would hold the backward sweep's end values beyond its
        # range, so compare only where both branches have data
        on = (sf.voltage >= vb[0]) & (sf.voltage <= vb[-1])
        if on.sum() < 2:
            raise ValueError(f"backward sweep label {sb.label:g} overlaps its "
                             "forward sweep at fewer than 2 points")
        v_f = sf.voltage[on]
        checks.append(("hysteresis", sb.label, v_f, sf.current[on],
                       np.interp(v_f, vb, ib)))

    evidence = []
    for kind, label, v, i, ref in checks:
        scale = max(np.abs(i).max(), np.abs(ref).max())
        if scale == 0:
            continue
        # scaled before the difference, which then cannot overflow
        rel = np.abs(i / scale - ref / scale)
        bad = rel > DEFECT_THRESHOLD
        if np.any(bad):
            v_bad = v[bad]
            evidence.append((kind, label, (float(v_bad.min()), float(v_bad.max())),
                             float(rel[bad].max())))

    kinds = {e[0] for e in evidence}
    if not kinds:
        verdict = "usable"
    elif kinds == {"ndr"}:
        verdict = "negative_differential_resistance"
    elif kinds == {"hysteresis"}:
        verdict = "hysteretic"
    else:
        verdict = "both_defects"
    return DeviceClassification(verdict=verdict, evidence=tuple(evidence))


def _check_noise(noise):
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be a finite fraction >= 0, got {noise!r}")


def synth_output_family(params: TransistorParams, noise: float,
                        rng) -> IVDataset:
    """Synthesize a measured-style output family from the device law over
    ``SYNTH_V_CE``, one forward curve per base-current label of
    ``SYNTH_I_B_LABELS`` (junction factor beta_f * i_b).

    ``noise`` is a multiplicative Gaussian sigma, drawn in one (labels x
    v_ce) draw, row by row, from ``rng``, a normal stream: any object with
    ``standard_normal(shape)``; ``noise == 0`` draws nothing.  A non-finite
    or negative ``noise`` is a ``ValueError``.
    """
    _check_noise(noise)
    _, ic = forward_currents(params, params.beta_f * SYNTH_I_B_LABELS[:, None],
                             SYNTH_V_CE)
    if noise > 0:
        ic = ic * (1.0 + noise * rng.standard_normal(ic.shape))
    bad = ~np.all(np.isfinite(ic), axis=1)
    if np.any(bad):
        raise FloatingPointError("synthetic i_c overflows at "
                                 f"i_b={SYNTH_I_B_LABELS[np.argmax(bad)]:g}")
    return IVDataset(forward=tuple(
        IVSweep(label=float(ib), voltage=SYNTH_V_CE, current=row)
        for ib, row in zip(SYNTH_I_B_LABELS, ic)))


def synth_input_curve(params: TransistorParams, noise: float,
                      rng) -> IVSweep:
    """Synthesize input characteristics i_b(v_be) from the device law over
    ``SYNTH_V_BE``, with multiplicative Gaussian noise of sigma ``noise``
    drawn from ``rng``, a normal stream as for ``synth_output_family``; a
    non-finite or negative ``noise`` is a ``ValueError``."""
    _check_noise(noise)
    ib, _ = forward_currents(
        params, params.i_sat * np.exp(SYNTH_V_BE / params.v_teff), 0.0)
    if noise > 0:
        ib = ib * (1.0 + noise * rng.standard_normal(ib.size))
    if not np.all(np.isfinite(ib)):
        raise FloatingPointError("synthetic i_b overflows")
    return IVSweep(label=None, voltage=SYNTH_V_BE, current=ib)
