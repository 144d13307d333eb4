"""IV-sweep ingestion, device parameter extraction, and usability checks.

Input characteristics are (v_be, i_b) pairs at fixed v_ce; output
characteristics are families of (v_ce, i_c) sweeps labeled by base current.
CSV formats are documented in `load_iv_dataset`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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
    "fit_beta",
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


class IVParseError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class IVSweep:
    label: float | None          # base-current label (output families), A
    voltage: np.ndarray
    current: np.ndarray
    direction: str = "fwd"       # "fwd" or "bwd"

    def __post_init__(self):
        v = np.asarray(self.voltage, dtype=float)
        i = np.asarray(self.current, dtype=float)
        if v.size != i.size or v.size < 2:
            raise ValueError("sweep needs >= 2 (voltage, current) points")
        dv = np.diff(v)
        if not (np.all(dv > 0) or np.all(dv < 0)):
            raise ValueError("sweep voltages must be strictly monotone")
        object.__setattr__(self, "voltage", v)
        object.__setattr__(self, "current", i)


@dataclass(frozen=True)
class IVDataset:
    kind: str                    # "input_characteristics" | "output_characteristics"
    sweeps: tuple[IVSweep, ...]
    direction: str = "forward"   # "forward" | "backward" | "both"

    def __post_init__(self):
        if self.kind not in ("input_characteristics", "output_characteristics"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "output_characteristics":
            labels = [s.label for s in self.sweeps if s.direction == "fwd"]
            if any(l is None for l in labels):
                raise ValueError("output family sweeps must carry i_b labels")
            if any(b <= a for a, b in zip(labels, labels[1:])):
                raise ValueError("output family labels must be strictly increasing")

    def forward_sweeps(self):
        return [s for s in self.sweeps if s.direction == "fwd"]

    def backward_sweeps(self):
        return [s for s in self.sweeps if s.direction == "bwd"]


@dataclass(frozen=True)
class EarlyFit:
    v_early: float
    per_curve_intercepts: tuple[float, ...]
    fit_window: tuple[float, float]
    r_squared: float
    excluded_labels: tuple[float, ...] = field(default=())


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


def _finite(what, value):
    # a fit of finite data can still overflow
    if not math.isfinite(value):
        raise FitError(f"non-finite {what}: {value!r}")
    return value


def load_iv_dataset(source) -> IVDataset:
    """Load an IV dataset from a path (any ``str`` or path-like) or a stream.

    Two CSV layouts (UTF-8, header row required):

    * input characteristics: ``v_be_V,i_b_A``
    * output characteristics: ``i_b_A,v_ce_V,i_c_A`` with an optional
      ``direction`` column in {fwd, bwd}

    Rows are sorted by sweep label then voltage; a voltage reversal within
    one label splits forward and backward branches.
    """
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        stream = open(source, newline="", encoding="utf-8")
    else:
        stream = source
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
    finally:
        if stream is not source:
            stream.close()


def _load_input(reader):
    v, i = [], []
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise IVParseError(f"expected 2 columns, got {len(row)}", line=ln)
        v.append(_parse_float(row[0], ln))
        i.append(_parse_float(row[1], ln))
    if len(v) < 2:
        raise IVParseError("need at least 2 data rows", line=2)
    order = np.argsort(v, kind="stable")
    v = np.asarray(v)[order]
    if np.any(np.diff(v) <= 0):
        raise IVParseError("duplicate v_be values in input characteristics")
    sweep = IVSweep(label=None, voltage=v, current=np.asarray(i)[order])
    return IVDataset(kind="input_characteristics", sweeps=(sweep,))


def _load_output(reader, has_direction):
    rows = []
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        want = 4 if has_direction else 3
        if len(row) != want:
            raise IVParseError(f"expected {want} columns, got {len(row)}", line=ln)
        d = row[3].strip() if has_direction else "fwd"
        if d not in ("fwd", "bwd"):
            raise IVParseError(f"direction must be fwd or bwd, got {d!r}", line=ln)
        rows.append((_parse_float(row[0], ln), _parse_float(row[1], ln),
                     _parse_float(row[2], ln), d, ln))
    if not rows:
        raise IVParseError("no data rows", line=2)

    groups: dict[tuple[float, str], list] = {}
    for ib, vce, ic, d, ln in rows:
        groups.setdefault((ib, d), []).append((vce, ic, ln))
    sweeps = []
    has_bwd = False
    for (ib, d) in sorted(groups, key=lambda k: (k[0], k[1])):
        pts = groups[(ib, d)]
        if len(pts) < 2:
            raise IVParseError(f"sweep i_b={ib:g} needs >= 2 points",
                               line=pts[0][2])
        v = np.array([p[0] for p in pts])
        i = np.array([p[1] for p in pts])
        dv = np.diff(v)
        if np.any(dv == 0):
            ln = pts[int(np.argmin(dv != 0))][2]
            raise IVParseError(f"duplicate v_ce in sweep i_b={ib:g}", line=ln)
        if not (np.all(dv > 0) or np.all(dv < 0)):
            raise IVParseError(f"non-monotone v_ce in sweep i_b={ib:g}",
                               line=pts[0][2])
        if d == "bwd":
            has_bwd = True
        sweeps.append(IVSweep(label=ib, voltage=v, current=i, direction=d))
    direction = "both" if has_bwd else "forward"
    return IVDataset(kind="output_characteristics", sweeps=tuple(sweeps),
                     direction=direction)


def save_iv_dataset(ds: IVDataset, path) -> None:
    """Write a dataset back out in its canonical CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if ds.kind == "input_characteristics":
            w.writerow(INPUT_HEADER)
            s = ds.sweeps[0]
            for v, i in zip(s.voltage, s.current):
                w.writerow([f"{v:.17g}", f"{i:.17g}"])
        else:
            has_dir = ds.direction == "both"
            w.writerow(OUTPUT_HEADER + (["direction"] if has_dir else []))
            for s in ds.sweeps:
                for v, i in zip(s.voltage, s.current):
                    row = [f"{s.label:.17g}", f"{v:.17g}", f"{i:.17g}"]
                    if has_dir:
                        row.append(s.direction)
                    w.writerow(row)


def fit_early_voltage(ds: IVDataset, window: tuple[float, float] | None = None,
                      i_b_range: tuple[float, float] | None = EARLY_FIT_IB_RANGE
                      ) -> EarlyFit:
    """Extract the Early voltage by backward extrapolation.

    Each flat-region i_c(v_ce) curve is fitted with a least-squares line over
    ``window`` (default [0.5 V, data max]); its v_ce-axis intercept is
    -b/m.  The reported Early voltage is the slope-weighted mean of the
    intercept magnitudes.  Curves with non-positive slope are excluded with
    a warning entry; an all-excluded family is a fit error.
    """
    if ds.kind != "output_characteristics":
        raise FitError("Early fit needs output characteristics")
    sweeps = ds.forward_sweeps()
    if i_b_range is not None:
        sweeps = [s for s in sweeps if i_b_range[0] <= s.label <= i_b_range[1]]
        if not sweeps:
            raise FitError("no curves inside the base-current range")
    vmax = max(s.voltage.max() for s in sweeps)
    if window is None:
        window = (0.5, vmax)
    lo, hi = window

    intercepts, slopes, r2s, excluded = [], [], [], []
    for s in sweeps:
        m_sel = (s.voltage >= lo) & (s.voltage <= hi)
        if m_sel.sum() < 2:
            excluded.append(s.label)
            continue
        x, y = s.voltage[m_sel], s.current[m_sel]
        m, b = np.polyfit(x, y, 1)
        if m <= 0:
            excluded.append(s.label)
            continue
        resid = y - (m * x + b)
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 0.0
        intercepts.append(-b / m)
        slopes.append(m)
        r2s.append(r2)
    if not intercepts:
        raise FitError("all curves excluded (flat or negative slope)")
    w = np.asarray(slopes)
    v_early = _finite("Early voltage",
                      float(np.sum(w * np.abs(intercepts)) / np.sum(w)))
    r_squared = _finite("Early fit r^2", float(
        np.clip(np.sum(w * np.asarray(r2s)) / np.sum(w), 0.0, 1.0)))
    return EarlyFit(v_early=v_early, per_curve_intercepts=tuple(intercepts),
                    fit_window=(lo, hi), r_squared=r_squared,
                    excluded_labels=tuple(excluded))


def _interp_ic(sweep: IVSweep, v_ce: float) -> float:
    v, i = sweep.voltage, sweep.current
    if v[0] > v[-1]:
        v, i = v[::-1], i[::-1]
    if not (v[0] <= v_ce <= v[-1]):
        raise FitError(f"v_ce={v_ce:g} outside sweep range [{v[0]:g}, {v[-1]:g}]")
    return float(np.interp(v_ce, v, i))


def fit_beta(ds: IVDataset, i_c: float, v_ce: float) -> float:
    """Differential current gain dI_c/dI_b near a target point.

    Uses the two family curves whose interpolated collector currents at
    ``v_ce`` bracket the target ``i_c``.
    """
    if ds.kind != "output_characteristics":
        raise FitError("beta fit needs output characteristics")
    sweeps = ds.forward_sweeps()
    if len(sweeps) < 2:
        raise FitError("need at least two curves to bracket the target")
    ics = [_interp_ic(s, v_ce) for s in sweeps]
    for k in range(len(sweeps) - 1):
        if ics[k] <= i_c <= ics[k + 1]:
            d_ib = sweeps[k + 1].label - sweeps[k].label
            return _finite("beta", (ics[k + 1] - ics[k]) / d_ib)
    raise FitError(f"target i_c={i_c:g} A at v_ce={v_ce:g} V outside the data hull")


def intrinsic_gain(v_early: float, v_teff: float) -> float:
    """Maximum single-stage voltage gain g_m*r_o = v_early/v_teff."""
    if v_early <= 0 or v_teff <= 0:
        raise ValueError("v_early and v_teff must be positive")
    return _finite("intrinsic gain", v_early / v_teff)


def fit_diode_params(ds: IVDataset, beta_f: float,
                     v_teff_max: float = 10.0) -> DiodeFit:
    """Log-linear fit of the input characteristics.

    Fits ln(i_b) = ln(i_sat/beta_f) + v_be/v_teff; non-positive currents are
    filtered out, and a near-zero slope (v_teff diverging past
    ``v_teff_max``) is rejected.
    """
    if ds.kind != "input_characteristics":
        raise FitError("diode fit needs input characteristics")
    s = ds.sweeps[0]
    keep = s.current > 0
    v, i = s.voltage[keep], s.current[keep]
    if v.size < 2:
        raise FitError("fewer than 2 positive-current points")
    if v.size < 3 and s.voltage.size >= 3:
        raise FitError("fewer than 3 positive-current points")
    slope, icpt = np.polyfit(v, np.log(i), 1)
    if slope <= 1.0 / v_teff_max:
        raise FitError("slope too small: v_teff diverges (constant-current data?)")
    v_teff = 1.0 / slope
    i_sat = _finite("saturation current", beta_f * math.exp(icpt))
    resid = np.log(i) - (slope * v + icpt)
    return DiodeFit(i_sat=i_sat, v_teff=v_teff,
                    residual=float(np.sqrt(np.mean(resid ** 2))))


def _smoothed_slope(v, i, width=5):
    """Local dI/dV after a moving-average smooth of the current."""
    kernel = np.ones(width) / width
    pad = width // 2
    ipad = np.concatenate([np.full(pad, i[0]), i, np.full(pad, i[-1])])
    ism = np.convolve(ipad, kernel, mode="valid")
    return np.gradient(ism, v)


def classify_transistor(ds_forward: IVDataset,
                        ds_backward: IVDataset | None = None,
                        ndr_threshold: float = 1e-6,
                        hysteresis_threshold: float = 0.02
                        ) -> DeviceClassification:
    """Flag negative differential resistance and forward/backward hysteresis.

    NDR: smoothed local slope below -ndr_threshold (S).  Hysteresis:
    |I_fwd - I_bwd| / max|I| above hysteresis_threshold over a contiguous
    span.  The verdict is "usable" iff no evidence is found.
    """
    evidence = []

    for s in ds_forward.forward_sweeps():
        slope = _smoothed_slope(s.voltage, s.current)
        bad = slope < -ndr_threshold
        if np.any(bad):
            v_bad = s.voltage[bad]
            evidence.append(("ndr", s.label, (float(v_bad.min()), float(v_bad.max())),
                             _finite("NDR slope", float(slope[bad].min()))))

    bwd_sweeps = []
    if ds_backward is not None:
        bwd_sweeps = ds_backward.forward_sweeps() + ds_backward.backward_sweeps()
    elif ds_forward.direction == "both":
        bwd_sweeps = ds_forward.backward_sweeps()
    if bwd_sweeps:
        fwd_by_label = {s.label: s for s in ds_forward.forward_sweeps()}
        for sb in bwd_sweeps:
            if sb.label not in fwd_by_label:
                raise ValueError(f"backward sweep label {sb.label:g} has no "
                                 "forward counterpart")
            sf = fwd_by_label[sb.label]
            vb, ib = sb.voltage, sb.current
            if vb[0] > vb[-1]:
                vb, ib = vb[::-1], ib[::-1]
            i_b_on_f = np.interp(sf.voltage, vb, ib)
            scale = max(np.abs(sf.current).max(), np.abs(ib).max())
            rel = np.abs(sf.current - i_b_on_f) / scale if scale > 0 else \
                np.zeros_like(sf.current)
            bad = rel > hysteresis_threshold
            if np.any(bad):
                v_bad = sf.voltage[bad]
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


def synth_output_family(beta_f: float, v_early: float, i_b_labels=None,
                        v_ce=None, noise: float = 0.0,
                        rng=None) -> IVDataset:
    """Synthesize a measured-style output family i_c = beta*i_b*(1 + v_ce/V_A).

    A fixed-base-current sweep tracks the junction's own i_b(v_be) law,
    which carries no Early factor, so the measured family shows the linear
    Early tilt even though the bias-point model keeps i_c/i_b constant.
    ``noise`` is a multiplicative Gaussian sigma.
    """
    if i_b_labels is None:
        i_b_labels = np.arange(200e-9, 1000e-9 + 1e-12, 50e-9)
    if v_ce is None:
        v_ce = np.arange(0.0, 2.0 + 1e-9, 5e-3)
    if noise > 0 and rng is None:
        rng = np.random.default_rng(0)
    sweeps = []
    for ib in i_b_labels:
        ic = beta_f * ib * (1.0 + v_ce / v_early)
        if noise > 0:
            ic = ic * (1.0 + noise * rng.standard_normal(ic.size))
        sweeps.append(IVSweep(label=float(ib), voltage=v_ce.copy(), current=ic))
    return IVDataset(kind="output_characteristics", sweeps=tuple(sweeps))


def synth_input_curve(i_sat: float, v_teff: float, beta_f: float,
                      v_be=None, noise: float = 0.0, rng=None) -> IVDataset:
    """Synthesize input characteristics i_b = (i_sat/beta_f)*exp(v_be/v_teff)."""
    if v_be is None:
        v_be = np.linspace(0.05, 0.35, 61)
    v_be = np.asarray(v_be, dtype=float)
    ib = (i_sat / beta_f) * np.exp(v_be / v_teff)
    if noise > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        ib = ib * (1.0 + noise * rng.standard_normal(ib.size))
    sweep = IVSweep(label=None, voltage=v_be, current=ib)
    return IVDataset(kind="input_characteristics", sweeps=(sweep,))
