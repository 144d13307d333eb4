"""The CLI commands of one workload pass and the checks on their outputs.

A check returns a list of problems; an empty list means the output is
correct.  Checks read only the files and text the command produced.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle_fm_noisefree.json")

# defaults of `cryoreadout sweep` and of the reference config
FM_GRID = (100e3, 10e6, 25, "log")
VBC_GRID = (10.0, 12.5, 51, "lin")
V_RESONANCE = 11.6
S21_POINTS = 200
F_M_VBC = 250e3           # [synthesis] f_m_kHz
TIME_CONSTANT = 1e-3      # [synthesis] time_constant_ms

# tiny grids for the self-test
QUICK_FM_GRID = (100e3, 200e3, 3, "log")
QUICK_VBC_GRID = (11.5, 11.7, 5, "lin")
QUICK_S21_POINTS = 20

GRID_RTOL = 1e-12


@dataclass
class Command:
    args: list                       # CLI arguments after the global options
    check: Callable[[str], list]     # stdout text -> problems


def grid_values(start, stop, points, spacing):
    if points == 1:
        return [start]
    if spacing == "log":
        ratio = stop / start
        return [start * ratio ** (k / (points - 1)) for k in range(points)]
    step = (stop - start) / (points - 1)
    return [start + k * step for k in range(points)]


def grid_spec(grid):
    start, stop, points, spacing = grid
    return f"{start:g}:{stop:g}:{points}:{spacing}"


def _read_rows(path, width):
    """Data rows of a CSV as floats, or a problem string."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
    except OSError as exc:
        return f"cannot read {os.path.basename(path)}: {exc}"
    try:
        values = [[float(c) for c in row] for row in rows]
    except ValueError as exc:
        return f"{os.path.basename(path)}: {exc}"
    if any(len(row) != width for row in values):
        return f"{os.path.basename(path)}: rows are not {width} columns wide"
    if not all(math.isfinite(c) for row in values for c in row):
        return f"{os.path.basename(path)}: non-finite values"
    return values


def _check_sweep(path, grid, peak_at=None):
    rows = _read_rows(path, 3)
    if isinstance(rows, str):
        return [rows]
    xs = grid_values(*grid)
    if len(rows) != len(xs):
        return [f"{os.path.basename(path)}: {len(rows)} rows, "
                f"expected {len(xs)}"]
    if any(abs(r[0] - x) > GRID_RTOL * abs(x) for r, x in zip(rows, xs)):
        return [f"{os.path.basename(path)}: x column differs from the grid"]
    if peak_at is not None:
        want = min(range(len(xs)), key=lambda k: abs(xs[k] - peak_at))
        got = max(range(len(rows)), key=lambda k: rows[k][1])
        if got != want:
            return [f"R peak at {xs[got]:g} V, expected {xs[want]:g} V"]
    return []


def _sweep_command(axis, grid, out, default_grid):
    args = ["sweep", "--axis", axis]
    if grid != default_grid:
        args += ["--grid", grid_spec(grid)]
    peak = V_RESONANCE if axis == "vbc" else None
    path = os.path.join(out, f"sweep_{axis}.csv")
    return Command(args, lambda _stdout: _check_sweep(path, grid, peak))


def _check_opp(stdout):
    if re.search(r"^\s*I_c\s*=\s*0\.100000 mA$", stdout, re.M) is None:
        return ["opp does not report I_c = 0.100000 mA"]
    return []


def _check_s21(path, points):
    rows = _read_rows(path, 2)
    if isinstance(rows, str):
        return [rows]
    if len(rows) != points:
        return [f"s21 wrote {len(rows)} rows, expected {points}"]
    return []


def _check_exists(path):
    if not os.path.isfile(path) or os.path.getsize(path) == 0:
        return [f"{os.path.basename(path)} missing or empty"]
    return []


def _check_fit_iv(stdout):
    report = dict(line.split(" = ", 1) for line in stdout.splitlines()
                  if " = " in line)
    problems = []
    if report.get("classification") != "usable":
        problems.append(f"classification {report.get('classification')!r}, "
                        "expected 'usable'")
    for key, want in (("v_early_V", 124.0), ("beta_f", 161.0)):
        try:
            got = float(report[key])
        except (KeyError, ValueError):
            problems.append(f"fit-iv reports no {key}")
            continue
        if abs(got - want) > 0.01 * want:
            problems.append(f"{key} = {got:g}, expected about {want:g}")
    return problems


def build_pass(workload, out, quick=False):
    """Commands of one pass of ``workload``, writing under ``out``."""
    if workload == "sweep_fm":
        return [_sweep_command("fm", QUICK_FM_GRID if quick else FM_GRID,
                               out, FM_GRID)]
    if workload == "sweep_vbc":
        return [_sweep_command("vbc", QUICK_VBC_GRID if quick else VBC_GRID,
                               out, VBC_GRID)]
    if workload == "short_cmds":
        points = QUICK_S21_POINTS if quick else S21_POINTS
        s21 = ["s21"] + ([] if points == S21_POINTS else
                         ["--points", str(points)])
        s21_csv = os.path.join(out, "s21_both.csv")
        family = os.path.join(out, "family.csv")
        diode = os.path.join(out, "diode.csv")
        return [
            Command(["opp"], _check_opp),
            Command(s21, lambda _s: _check_s21(s21_csv, points)),
            Command(["gen-iv", "--kind", "output", "--path", family],
                    lambda _s: _check_exists(family)),
            Command(["gen-iv", "--kind", "input", "--path", diode],
                    lambda _s: _check_exists(diode)),
            Command(["fit-iv", "--output-chars", family, "--input", diode],
                    _check_fit_iv),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _check_same_bytes(path, reference):
    try:
        with open(path, "rb") as a, open(reference, "rb") as b:
            same = a.read() == b.read()
    except OSError as exc:
        return [f"replay: {exc}"]
    return [] if same else ["replayed CSV differs from the original"]


def load_oracle():
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_config(path, sections):
    with open(path, "w", encoding="utf-8") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")


def _check_oracle(path, oracle):
    rows = _read_rows(path, 3)
    if isinstance(rows, str):
        return [rows]
    ref = oracle["R_V"]
    if len(rows) != len(ref):
        return [f"oracle: {len(rows)} rows, expected {len(ref)}"]
    worst = max(abs(r[1] - want) / abs(want) for r, want in zip(rows, ref))
    if worst > oracle["rtol"]:
        return [f"noise-free R differs from the oracle by {worst:.3g} "
                f"relative (tolerance {oracle['rtol']:g})"]
    return []


def untimed_checks(workload, pass_out, work):
    """Once-per-run checks outside the timed passes.

    Returns (global option list, Command) pairs; the global options replace
    the pass's own ``--config``/``--out``.
    """
    if workload == "sweep_vbc":
        # replaying a sweep from its manifest must give the same bytes
        out = os.path.join(work, "replay")
        csv_path = os.path.join(out, "sweep_vbc.csv")
        original = os.path.join(pass_out, "sweep_vbc.csv")
        manifest = os.path.join(pass_out, "sweep_vbc_manifest.ini")
        return [(["--config", manifest, "--out", out],
                 Command(["sweep"],
                         lambda _s: _check_same_bytes(csv_path, original)))]
    if workload == "sweep_fm":
        # the noise-free time-domain path against recorded reference values
        oracle = load_oracle()
        out = os.path.join(work, "oracle")
        os.makedirs(out, exist_ok=True)
        config = os.path.join(out, "noise_free.ini")
        write_config(config, oracle["config"])
        csv_path = os.path.join(out, "sweep_fm.csv")
        return [(["--config", config, "--out", out],
                 Command(["sweep", "--axis", "fm", "--grid", oracle["grid"]],
                         lambda _s: _check_oracle(csv_path, oracle)))]
    return []


def largest_prime(n):
    """Largest prime factor of ``n`` (1 for n = 1); FFT cost grows with it."""
    m, p, best = n, 2, 1
    while p * p <= m:
        while m % p == 0:
            m //= p
            best = p
        p += 1
    return max(best, m) if m > 1 else best


def record_lengths(workload, quick=False):
    """Record length of every sweep point under the default sampling rule:
    16 samples per modulation period over max(20 time constants, 200
    periods).  The lock-in FFTs each point's whole record."""
    if workload == "sweep_fm":
        f_ms = grid_values(*(QUICK_FM_GRID if quick else FM_GRID))
    elif workload == "sweep_vbc":
        f_ms = [F_M_VBC] * (QUICK_VBC_GRID if quick else VBC_GRID)[2]
    else:
        return []
    return [16 * max(math.ceil(20.0 * TIME_CONSTANT * f), 200) for f in f_ms]
