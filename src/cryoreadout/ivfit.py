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
    "fit_early_voltage",
    "intrinsic_gain",
    "fit_diode_params",
    "classify_transistor",
    "synth_output_family",
    "synth_input_curve",
]

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
# classification: NDR below this smoothed slope (-S), the current first
# smoothed by a moving average of this many points; hysteresis above this
# |I_fwd - I_bwd| / max|I|
NDR_THRESHOLD = 1e-6
NDR_SMOOTH_WIDTH = 5
HYSTERESIS_THRESHOLD = 0.02
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


class FitError(RuntimeError):
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
    v_early: float
    beta_f: float
    r_squared: float


@dataclass(frozen=True)
class DiodeFit:
    i_sat: float
    v_teff: float
    residual: float   # RMS residual of ln(i_b) about the fitted line


@dataclass(frozen=True)
class DeviceClassification:
    verdict: str     # usable | hysteretic | negative_differential_resistance | both_defects
    evidence: tuple[tuple, ...]   # (kind, sweep label, (v_lo, v_hi), metric value)


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

    Two CSV layouts (UTF-8, header row required):

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
    with open(path, newline="", encoding="utf-8") as stream:
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


def save_iv_dataset(ds: IVSweep | IVDataset, path) -> None:
    """Write input characteristics or an output family in its canonical CSV
    layout; a family writes its forward rows, then its backward rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if isinstance(ds, IVSweep):
            w.writerow(INPUT_HEADER)
            for v, i in zip(ds.voltage, ds.current):
                w.writerow([f"{v:.17g}", f"{i:.17g}"])
            return
        has_dir = bool(ds.backward)
        w.writerow(OUTPUT_HEADER + (["direction"] if has_dir else []))
        for direction, sweeps in (("fwd", ds.forward), ("bwd", ds.backward)):
            for s in sweeps:
                for v, i in zip(s.voltage, s.current):
                    row = [f"{s.label:.17g}", f"{v:.17g}", f"{i:.17g}"]
                    if has_dir:
                        row.append(direction)
                    w.writerow(row)


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
    the b/i_b.  Curves with fewer than 2 points in the window or a rise
    across it of at most ``EARLY_FIT_MIN_RISE`` are left out; a family with
    none left, or a beta_f that is not positive, is a fit error.
    """
    _require_kind(ds, IVDataset, "Early fit")
    ib_lo, ib_hi = EARLY_FIT_IB_RANGE
    sweeps = [s for s in ds.forward if ib_lo <= s.label <= ib_hi]
    if not sweeps:
        raise FitError("no curves inside the base-current range")

    intercepts, gains, slopes, r2s = [], [], [], []
    for s in sweeps:
        m_sel = s.voltage >= EARLY_FIT_V_CE_MIN
        if m_sel.sum() < 2:
            continue
        x, y = s.voltage[m_sel], s.current[m_sel]
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
    beta_f = _finite("beta", float(np.sum(w * np.asarray(gains)) / np.sum(w)))
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
    resid = np.log(i) - (slope * v + icpt)
    return DiodeFit(i_sat=i_sat, v_teff=v_teff,
                    residual=float(np.sqrt(np.mean(resid ** 2))))


def _smoothed_slope(v, i):
    """Local dI/dV after a moving-average smooth of the current."""
    kernel = np.ones(NDR_SMOOTH_WIDTH) / NDR_SMOOTH_WIDTH
    pad = NDR_SMOOTH_WIDTH // 2
    ipad = np.concatenate([np.full(pad, i[0]), i, np.full(pad, i[-1])])
    ism = np.convolve(ipad, kernel, mode="valid")
    return np.gradient(ism, v)


def classify_transistor(ds: IVDataset) -> DeviceClassification:
    """Flag negative differential resistance and forward/backward hysteresis.

    NDR: smoothed local slope of a forward sweep below -NDR_THRESHOLD (S).
    Hysteresis: each backward sweep against the forward sweep of the same
    label, |I_fwd - I_bwd| / max|I| above HYSTERESIS_THRESHOLD, over the
    forward points inside the backward sweep's voltage range; fewer than 2
    such points is a ValueError.  The verdict is "usable" iff no evidence
    is found.
    """
    _require_kind(ds, IVDataset, "classification")
    evidence = []

    for s in ds.forward:
        slope = _smoothed_slope(s.voltage, s.current)
        bad = slope < -NDR_THRESHOLD
        if np.any(bad):
            v_bad = s.voltage[bad]
            evidence.append(("ndr", s.label, (float(v_bad.min()), float(v_bad.max())),
                             _finite("NDR slope", float(slope[bad].min()))))

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
        v_f, i_f = sf.voltage[on], sf.current[on]
        i_b_on_f = np.interp(v_f, vb, ib)
        scale = max(np.abs(i_f).max(), np.abs(i_b_on_f).max())
        rel = np.abs(i_f - i_b_on_f) / scale if scale > 0 else \
            np.zeros_like(i_f)
        bad = rel > HYSTERESIS_THRESHOLD
        if np.any(bad):
            v_bad = v_f[bad]
            evidence.append(("hysteresis", sb.label,
                             (float(v_bad.min()), float(v_bad.max())),
                             _finite("hysteresis", float(rel[bad].max()))))

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


def synth_output_family(params: TransistorParams, noise: float,
                        rng: np.random.Generator) -> IVDataset:
    """Synthesize a measured-style output family from the device law over
    ``SYNTH_V_CE``, one forward curve per base-current label of
    ``SYNTH_I_B_LABELS`` (junction factor beta_f * i_b).

    ``noise`` is a multiplicative Gaussian sigma, drawn from ``rng`` in one
    (labels x v_ce) draw, row by row.
    """
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
                      rng: np.random.Generator) -> IVSweep:
    """Synthesize input characteristics i_b(v_be) from the device law over
    ``SYNTH_V_BE``, with multiplicative Gaussian noise of sigma ``noise``
    drawn from ``rng``."""
    ib, _ = forward_currents(
        params, params.i_sat * np.exp(SYNTH_V_BE / params.v_teff), 0.0)
    if noise > 0:
        ib = ib * (1.0 + noise * rng.standard_normal(ib.size))
    if not np.all(np.isfinite(ib)):
        raise FloatingPointError("synthetic i_b overflows")
    return IVSweep(label=None, voltage=SYNTH_V_BE, current=ib)
