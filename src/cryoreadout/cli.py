"""Command-line harness.

Subcommands:

* ``fit-iv``  -- fit device parameters from measured/synthetic IV CSVs
* ``opp``     -- DC operating point, dissipation, thermal margins
* ``s21``     -- chain gain versus frequency, CSV output
* ``sweep``   -- lock-in sweeps versus V_BC or f_m, CSV + run manifest
* ``gen-iv``  -- generate synthetic IV datasets from the configured model

Exit codes: 0 success, 1 device classified unusable (fit-iv), 2
input/config error, 3 numerical failure.  A grid of more than
``config.MAX_GRID_POINTS`` points is an input error.  A flag that sets a
config value (``--seed``, ``--stage``, ``--axis``, ``--grid``) overrides
that key, so a sweep's manifest records the whole setup.

``run`` is the process entry and ``main(argv)`` the in-process one.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from . import __version__, chain as chain_mod, device, ivfit
from .config import ConfigError, grid_points, load_config
from .lockin import sweep_fm, sweep_vbc

EXIT_OK = 0
EXIT_UNUSABLE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the counter increment, the
# golden ratio in 64 bits, and the finalizer's two multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(z):
    """SplitMix64's finalizer on a uint64 array.  Array products wrap mod
    2**64 silently, where a numpy scalar's would warn, so ``z`` is never
    0-d."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class NormalStream:
    """The seeded standard normals every command draws its noise from.

    Draw k is a pure function of (seed, k), so draws split across calls
    equal one call.  Counter j gives the 64 bits mix(mix(seed) + (j + 1)
    gamma), mix SplitMix64's finalizer: SplitMix64's output j from the
    state mix(seed).  Mixing the seed spreads nearby seeds apart (unmixed,
    seed s + gamma would give seed s's stream shifted by one).  Draws 2i
    and 2i + 1 are the Box-Muller pair r cos(2 pi u2), r sin(2 pi u2) of
    counters 2i and 2i + 1, whose top 53 bits give u1 in (0, 1],
    r = sqrt(-2 ln u1), and u2 in [0, 1); so |draw| <= sqrt(106 ln 2),
    about 8.57.
    """

    def __init__(self, seed):
        self._key = _splitmix(np.array([seed], dtype=np.uint64))
        self._count = 0

    def standard_normal(self, shape):
        """The stream's next draws, as an array of ``shape``."""
        shape = tuple(shape) if np.iterable(shape) else (shape,)
        k, n = self._count, math.prod(shape)
        self._count += n
        # whole Box-Muller pairs around draws k .. k + n - 1
        lo, hi = k - k % 2, k + n + (k + n) % 2
        bits = _splitmix(self._key
                         + np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GAMMA)
        top = (bits >> np.uint64(11)).astype(float) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(top[0::2] + 2.0 ** -53))
        t = 2.0 * math.pi * top[1::2]
        pairs = np.empty(hi - lo)
        pairs[0::2], pairs[1::2] = r * np.cos(t), r * np.sin(t)
        return pairs[k - lo:k - lo + n].reshape(shape)


def _write_csv(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        ivfit.write_csv(fh, header, columns)


def cmd_opp(args, cfg):
    op = device.solve_operating_point(cfg.network, cfg.transistor)
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
        flag = "" if margin_ok else \
            f"  [margin < {device.THERMAL_MARGIN_RATIO:g}x dissipation]"
        print(f"  {name}: cooling {cooling * 1e6:.0f} uW, margin "
              f"{margin * 1e6:.1f} uW, {status}{flag}")
    return EXIT_OK


def cmd_s21(args, cfg):
    # f_min == f_max asks for that one frequency, whatever --points says
    points = min(args.points, 1) if args.f_min == args.f_max else args.points
    try:
        freqs = grid_points(args.f_min, args.f_max, points, "log")
    except ConfigError as exc:
        raise ConfigError(f"s21 --f-min/--f-max/--points: {exc}") from None
    rows = chain_mod.s21_db(cfg.amplifier_chain(), freqs)
    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"s21_{cfg[('chain', 'stage')]}.csv")
    _write_csv(path, ["f_Hz", "s21_dB"], rows.T)
    print(path)
    return EXIT_OK


def cmd_sweep(args, cfg):
    axis = cfg[("sweep", "axis")]
    sweep = sweep_vbc if axis == "vbc" else sweep_fm
    rows = sweep(cfg.sweep_grid, cfg.ensemble, cfg.geometry,
                 cfg.amplifier_chain(), cfg.synthesis, NormalStream(cfg.seed))

    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"sweep_{axis}.csv")
    _write_csv(csv_path, ["x_value", "R_V", "phase_rad"], rows.T)

    manifest_path = os.path.join(out_dir, f"sweep_{axis}_manifest.ini")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        # configparser skips the comment: the versions are not config keys
        fh.write(f"# cryoreadout {__version__}, numpy {np.__version__}\n"
                 f"{cfg.as_text()}")
    print(csv_path)
    print(manifest_path)
    return EXIT_OK


def cmd_fit_iv(args, cfg):
    if args.input is None and args.output_chars is None:
        raise ConfigError("fit-iv needs --input and/or --output-chars")
    report = []

    early = verdict = None
    if args.output_chars is not None:
        ds = ivfit.load_iv_dataset(args.output_chars)
        early = ivfit.fit_early_voltage(ds)
        report.append(("v_early_V", early.v_early))
        report.append(("early_fit_r_squared", early.r_squared))
        report.append(("beta_f", early.beta_f))
        cls = ivfit.classify_transistor(ds)
        verdict = cls.verdict
        report.append(("classification", cls.verdict))
        for kind, label, (vlo, vhi), metric in cls.evidence:
            report.append((f"evidence_{kind}_ib_{label:g}",
                           f"{vlo:g}..{vhi:g}V metric {metric:g}"))

    if args.input is not None:
        ds_in = ivfit.load_iv_dataset(args.input)
        beta_f = cfg.transistor.beta_f if early is None else early.beta_f
        dio = ivfit.fit_diode_params(ds_in, beta_f=beta_f)
        report.append(("i_sat_A", dio.i_sat))
        report.append(("v_teff_V", dio.v_teff))
        report.append(("diode_fit_residual", dio.residual))
        if early is not None:
            report.append(("intrinsic_gain",
                           ivfit.intrinsic_gain(early.v_early, dio.v_teff)))

    report = [(k, v if isinstance(v, str) else ivfit.NUMBER_FORMAT % v)
              for k, v in report]
    for key, text in report:
        print(f"{key} = {text}")
    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "fit_iv_report.csv"),
               ["quantity", "value"], zip(*report))
    if verdict is not None and verdict != "usable":
        return EXIT_UNUSABLE
    return EXIT_OK


def cmd_gen_iv(args, cfg):
    synth = ivfit.synth_input_curve if args.kind == "input" \
        else ivfit.synth_output_family
    # the stream is built only to draw: synth_* take None at zero noise
    rng = NormalStream(cfg.seed) if args.noise > 0 else None
    ds = synth(cfg.transistor, args.noise, rng)
    ivfit.save_iv_dataset(ds, args.path)
    print(args.path)
    return EXIT_OK


# flag (argparse dest) -> the config key it overrides
_OVERRIDES = {"seed": ("run", "seed"), "stage": ("chain", "stage"),
              "axis": ("sweep", "axis"), "grid": ("sweep", "grid")}


def _overrides(args):
    return {key: str(getattr(args, dest))
            for dest, key in _OVERRIDES.items()
            if getattr(args, dest, None) is not None}


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
                    help="sweep axis: V_BC (V) or modulation frequency (Hz) "
                         "(default: [sweep] axis)")
    sp.add_argument("--grid", metavar="START:STOP:POINTS[:log|lin]",
                    help="grid spec (default: [sweep] grid)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gen-iv", help="generate a synthetic IV dataset")
    sp.add_argument("--kind", choices=("input", "output"), required=True)
    sp.add_argument("--path", required=True, metavar="CSV")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="multiplicative noise sigma (fraction)")
    sp.set_defaults(func=cmd_gen_iv)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a float error raises (FloatingPointError, exit 3), never warns
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args, load_config(args.config,
                                               overrides=_overrides(args)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run():
    """Process entry: ``python -m cryoreadout.cli`` and the ``cryoreadout``
    script.  Moves every object the imports built into the permanent
    generation, so the collector stops re-walking numpy's and the package's
    objects, then runs ``main`` on ``sys.argv``.  ``main`` leaves the
    collector alone, so an in-process caller keeps its own state."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
