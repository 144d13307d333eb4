"""Command-line harness.

Subcommands:

* ``fit-iv``  -- fit device parameters from measured/synthetic IV CSVs
* ``opp``     -- DC operating point, dissipation, thermal margins
* ``s21``     -- chain gain versus frequency, CSV output
* ``sweep``   -- lock-in sweeps versus V_BC or f_m, CSV + run manifest
* ``gen-iv``  -- generate synthetic IV datasets from the configured model

Exit codes: 0 success, 1 device classified unusable (fit-iv), 2
input/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import __version__, chain as chain_mod, device, ivfit
from .config import ConfigError, load_config
from .lockin import sweep_fm, sweep_vbc
from .source import DriveWaveform

EXIT_OK = 0
EXIT_UNUSABLE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def _parse_grid(spec, default_start, default_stop, default_points,
                default_spacing):
    """Grid spec START:STOP:POINTS[:log|lin]."""
    if spec is None:
        start, stop, points, spacing = (default_start, default_stop,
                                        default_points, default_spacing)
    else:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad grid spec {spec!r} (START:STOP:POINTS[:log|lin])")
        try:
            start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad grid spec {spec!r}") from None
        spacing = parts[3] if len(parts) == 4 else default_spacing
        if spacing not in ("log", "lin"):
            raise ConfigError(f"grid spacing must be log or lin, got {spacing!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid bounds must be finite, got {start:g}:{stop:g}")
    if points < 1 or stop < start:
        raise ConfigError("grid needs stop >= start and points >= 1")
    if points == 1:
        return np.array([start]), (start, stop, points, spacing)
    if spacing == "log":
        if start <= 0:
            raise ConfigError("log grid needs positive start")
        grid = np.geomspace(start, stop, points)
    else:
        grid = np.linspace(start, stop, points)
    return grid, (start, stop, points, spacing)


def cmd_opp(args):
    cfg = load_config(args.config, overrides=_overrides(args))
    net = cfg.network()
    params = cfg.transistor()
    op = device.solve_operating_point(net, params)
    p = device.power_dissipation(op)
    print("operating point")
    print(f"  V_be = {op.v_be * 1e3:.3f} mV")
    print(f"  V_ce = {op.v_ce * 1e3:.3f} mV")
    print(f"  I_b  = {op.i_b * 1e9:.3f} nA")
    print(f"  I_c  = {op.i_c * 1e3:.6f} mA")
    print(f"  P    = {p * 1e6:.3f} uW")
    for name, cooling in (("still", device.STILL_COOLING_POWER),
                          ("mixing_chamber", device.MIXING_CHAMBER_COOLING_POWER)):
        ok, margin, margin_ok = device.thermal_budget_check(p, cooling)
        status = "ok" if ok else "OVER BUDGET"
        flag = "" if margin_ok else "  [margin < 10x dissipation]"
        print(f"  {name}: cooling {cooling * 1e6:.0f} uW, margin "
              f"{margin * 1e6:.1f} uW, {status}{flag}")
    return EXIT_OK


def cmd_s21(args):
    cfg = load_config(args.config, overrides=_overrides(args))
    # f_min == f_max asks for that one frequency, whatever --points says
    points = min(args.points, 1) if args.f_min == args.f_max else args.points
    freqs, _ = _parse_grid(None, args.f_min, args.f_max, points, "log")
    stage = args.stage or cfg[("chain", "stage")]
    resp = cfg.amplifier_chain(stage=stage)
    rows = chain_mod.s21_db(resp, freqs)
    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"s21_{stage}.csv")
    _write_csv(path, ["f_Hz", "s21_dB"], rows)
    print(path)
    return EXIT_OK


def cmd_sweep(args):
    cfg, extras = load_config(args.config, overrides=_overrides(args),
                              extra_ok=("sweep",))
    manifest_sweep = extras.get("sweep", {})
    axis = args.axis or manifest_sweep.get("axis")
    if axis not in ("vbc", "fm"):
        raise ConfigError("sweep needs --axis vbc|fm (or a manifest config)")
    grid_spec = args.grid or manifest_sweep.get("grid")

    ens = cfg.ensemble()
    geom = cfg.geometry()
    resp = cfg.amplifier_chain()
    syn = cfg.synthesis()
    f_m = cfg[("synthesis", "f_m_kHz")]
    duty = cfg[("synthesis", "duty")]

    if axis == "vbc":
        grid, grid_parts = _parse_grid(grid_spec, 10.0, 12.5, 51, "lin")
        drive = DriveWaveform(f_m=f_m, duty=duty)
        results = sweep_vbc(grid, drive, ens, geom, resp, syn)
    else:
        grid, grid_parts = _parse_grid(grid_spec, 100e3, 10e6, 25, "log")
        results = sweep_fm(grid, ens, geom, resp, syn, duty=duty)

    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"sweep_{axis}.csv")
    _write_csv(csv_path, ["x_value", "R_V", "phase_rad"],
               [(x, r.amplitude_r, r.phase) for x, r in results])

    start, stop, points, spacing = grid_parts
    manifest_path = os.path.join(out_dir, f"sweep_{axis}_manifest.ini")
    manifest = cfg.as_text(extra_sections={"sweep": {
        "axis": axis,
        "grid": f"{start:.17g}:{stop:.17g}:{points}:{spacing}",
        "version": __version__,
    }})
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(manifest)
    print(csv_path)
    print(manifest_path)
    return EXIT_OK


def cmd_fit_iv(args):
    if args.input is None and args.output_chars is None:
        raise ConfigError("fit-iv needs --input and/or --output-chars")
    cfg = load_config(args.config, overrides=_overrides(args))
    beta_cfg = cfg[("device", "beta_f")]
    report = []

    beta_fit = early = verdict = None
    if args.output_chars is not None:
        ds = ivfit.load_iv_dataset(args.output_chars)
        ds_b = ivfit.load_iv_dataset(args.backward) if args.backward else None
        early = ivfit.fit_early_voltage(ds)
        report.append(("v_early_V", early.v_early))
        report.append(("early_fit_r_squared", early.r_squared))
        ic_t, vce_t = args.beta_at
        beta_fit = ivfit.fit_beta(ds, ic_t, vce_t)
        report.append(("beta_f", beta_fit))
        cls = ivfit.classify_transistor(ds, ds_b)
        verdict = cls.verdict
        report.append(("classification", cls.verdict))
        for kind, label, (vlo, vhi), metric in cls.evidence:
            report.append((f"evidence_{kind}_ib_{label:g}",
                           f"{vlo:g}..{vhi:g}V metric {metric:g}"))

    if args.input is not None:
        ds_in = ivfit.load_iv_dataset(args.input)
        dio = ivfit.fit_diode_params(
            ds_in, beta_f=beta_fit if beta_fit is not None else beta_cfg)
        report.append(("i_sat_A", dio.i_sat))
        report.append(("v_teff_V", dio.v_teff))
        report.append(("diode_fit_residual", dio.residual))
        if early is not None:
            report.append(("intrinsic_gain",
                           ivfit.intrinsic_gain(early.v_early, dio.v_teff)))

    for key, val in report:
        print(f"{key} = {val if isinstance(val, str) else _fmt(val)}")
    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "fit_iv_report.csv"),
               ["quantity", "value"], report)
    if verdict is not None and verdict != "usable":
        return EXIT_UNUSABLE
    return EXIT_OK


def cmd_gen_iv(args):
    cfg = load_config(args.config, overrides=_overrides(args))
    params = cfg.transistor()
    rng = np.random.default_rng(cfg.seed)
    if args.kind == "input":
        ds = ivfit.synth_input_curve(params.i_sat, params.v_teff, params.beta_f,
                                     noise=args.noise, rng=rng)
    else:
        ds = ivfit.synth_output_family(beta_f=params.beta_f,
                                       v_early=params.v_early,
                                       noise=args.noise, rng=rng)
    ivfit.save_iv_dataset(ds, args.path)
    print(args.path)
    return EXIT_OK


def _overrides(args):
    ov = {}
    if args.seed is not None:
        ov[("run", "seed")] = str(args.seed)
    return ov


def _beta_at(text):
    try:
        ic, vce = (float(p) for p in text.split(","))
        if math.isfinite(ic) and math.isfinite(vce):
            return ic, vce
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected finite 'i_c_A,v_ce_V', got {text!r}")


def _noise(text):
    try:
        sigma = float(text)
        if math.isfinite(sigma) and sigma >= 0:
            return sigma
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite fraction >= 0, got {text!r}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="cryoreadout",
        description="Cryogenic image-charge readout chain simulator")
    p.add_argument("--config", metavar="PATH",
                   help="INI config file (defaults reproduce the reference setup)")
    p.add_argument("--seed", type=int, metavar="N", help="RNG seed override")
    p.add_argument("--out", metavar="DIR", help="output directory override")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit-iv", help="fit device parameters from IV CSVs")
    sp.add_argument("--input", metavar="CSV",
                    help="input characteristics (v_be_V,i_b_A)")
    sp.add_argument("--output-chars", metavar="CSV",
                    help="output characteristics (i_b_A,v_ce_V,i_c_A[,direction])")
    sp.add_argument("--backward", metavar="CSV",
                    help="backward-direction output characteristics")
    sp.add_argument("--beta-at", type=_beta_at, default=(1e-4, 0.9),
                    metavar="IC_A,VCE_V",
                    help="target point for the beta fit (default 1e-4,0.9)")
    sp.set_defaults(func=cmd_fit_iv)

    sp = sub.add_parser("opp", help="DC operating point and thermal budget")
    sp.set_defaults(func=cmd_opp)

    sp = sub.add_parser("s21", help="chain gain versus frequency (CSV)")
    sp.add_argument("--f-min", type=float, default=1e5, metavar="HZ")
    sp.add_argument("--f-max", type=float, default=1e8, metavar="HZ")
    sp.add_argument("--points", type=int, default=200, metavar="N")
    sp.add_argument("--stage", choices=("first", "both"),
                    help="chain to report (default: [chain] stage)")
    sp.set_defaults(func=cmd_s21)

    sp = sub.add_parser("sweep", help="lock-in sweep (CSV + manifest)")
    sp.add_argument("--axis", choices=("vbc", "fm"),
                    help="sweep axis: V_BC (V) or modulation frequency (Hz)")
    sp.add_argument("--grid", metavar="START:STOP:POINTS[:log|lin]",
                    help="grid spec; defaults: vbc 10:12.5:51:lin, "
                         "fm 1e5:1e7:25:log")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gen-iv", help="generate a synthetic IV dataset")
    sp.add_argument("--kind", choices=("input", "output"), required=True)
    sp.add_argument("--path", required=True, metavar="CSV")
    sp.add_argument("--noise", type=_noise, default=0.0,
                    help="multiplicative noise sigma (fraction)")
    sp.set_defaults(func=cmd_gen_iv)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ivfit.IVParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (device.ConvergenceError, ivfit.FitError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
