"""Sectioned INI run configuration with unit-suffixed keys.

``_SCHEMA`` is the one home of the reference values (the published device
values, in file units): library classes and functions take them with no
defaults of their own, so library callers get reference objects from
``load_config()``, which resolves an empty config to the reference setup.
Unknown sections or keys are rejected.  A resolved config can be written
back out as a manifest; re-running from the manifest reproduces the run
bit-for-bit.  A command-line flag that sets a value overrides its key.
"""

from __future__ import annotations

import configparser
import math

import numpy as np

from . import device, chain as chain_mod, source
from .lockin import SynthesisConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "grid_points",
           "MAX_GRID_POINTS"]


class ConfigError(ValueError):
    pass


def _num(scale):
    return ("num", scale)


# section -> key -> ((kind, SI scale | allowed strings | least integer |
# None), default in file units)
_SCHEMA = {
    "device": {
        "i_sat_A": (("auto_num", 1.0), "auto"),
        "v_teff_mV": (_num(1e-3), "25"),
        "v_early_V": (_num(1.0), "124"),
        "beta_f": (_num(1.0), "160"),
        "i_c_target_mA": (_num(1e-3), "0.1"),
    },
    "network": {
        "v_supply_V": (_num(1.0), "1"),
        "r_upper_kohm": (_num(1e3), "574"),
        "r_lower_kohm": (_num(1e3), "235"),
        "r_collector_kohm": (_num(1e3), "1"),
        "r_emitter_ohm": (_num(1.0), "24"),
        "c_in_nF": (_num(1e-9), "12"),
        "c_out_nF": (_num(1e-9), "12"),
        "c_bypass_nF": (_num(1e-9), "220"),
    },
    "geometry": {
        "c_cell_pF": (_num(1e-12), "1"),
        "s_over_d_mm": (_num(1e-3), "5.65"),
        "delta_z_nm": (_num(1e-9), "35"),
    },
    "ensemble": {
        "n_s_per_cm2": (_num(1e4), "1e8"),     # cm^-2 -> m^-2
        "rho22_target": (_num(1.0), "0.1"),
        "tau_relax_us": (_num(1e-6), "1"),
        "v_resonance_V": (_num(1.0), "11.6"),
        "linewidth_V": (_num(1.0), "0.1"),
    },
    "chain": {
        "c_parasitic_pF": (_num(1e-12), "10"),
        "r_source_ohm": (_num(1.0), "50"),
        "second_stage_gain_dB": (_num(1.0), "40"),
        # 40 kHz keeps the cascade within 1 dB of flat at 100 kHz
        "second_stage_f_low_kHz": (_num(1e3), "40"),
        "second_stage_f_high_GHz": (_num(1e9), "1.5"),
        "first_stage_noise_K": (_num(1.0), "2"),
        "second_stage_noise_K": (_num(1.0), "6"),
        "stage": (("str", ("first", "both")), "both"),
    },
    "synthesis": {
        "input_noise_density_pV_rtHz": (_num(1e-12), "35"),
        "time_constant_ms": (_num(1e-3), "1"),
        "filter_order": (("int", None), "4"),
        "duty": (_num(1.0), "0.5"),
        "f_m_kHz": (_num(1e3), "250"),
    },
    "run": {
        # numpy seeds its generators from non-negative integers only
        "seed": (("int", 0), "0"),
        "output_dir": (("str", None), "."),
    },
    "sweep": {
        "axis": (("str", ("vbc", "fm")), "vbc"),
        "grid": (("str", None), "auto"),
    },
}

# [sweep] grid = auto: the axis's reference grid, START:STOP:POINTS:SPACING
# (V_BC in V, f_m in Hz); a grid given without a spacing takes the axis's
_REFERENCE_GRIDS = {"vbc": "10:12.5:51:lin", "fm": "1e5:1e7:25:log"}

# points of an s21 or sweep grid: far more than a readout needs, and far
# below the 1e9 that would take 7.45 GiB per array
MAX_GRID_POINTS = 10 ** 6


def grid_points(start, stop, points, spacing):
    """``points`` values from ``start`` to ``stop``, evenly spaced on a
    ``lin`` or ``log`` scale; out-of-range specs raise ConfigError."""
    if spacing not in ("log", "lin"):
        raise ConfigError(f"grid spacing must be log or lin, got {spacing!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid bounds must be finite, got {start:g}:{stop:g}")
    if points < 1 or stop < start:
        raise ConfigError("grid needs stop >= start and points >= 1")
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"grid needs at most {MAX_GRID_POINTS} points, "
                          f"got {points}")
    if points == 1:
        return np.array([start])
    if spacing == "log":
        if start <= 0:
            raise ConfigError("log grid needs positive start")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


class RunConfig:
    """Fully resolved run parameters, queryable as module objects."""

    def __init__(self, values):
        self._values = values   # {(section, key): parsed value}

    def __getitem__(self, section_key):
        return self._values[section_key]

    # -- module object builders -------------------------------------------

    def network(self) -> device.BiasNetwork:
        g = self._values
        return device.BiasNetwork(
            v_supply=g[("network", "v_supply_V")],
            r_upper=g[("network", "r_upper_kohm")],
            r_lower=g[("network", "r_lower_kohm")],
            r_collector=g[("network", "r_collector_kohm")],
            r_emitter=g[("network", "r_emitter_ohm")],
            c_in=g[("network", "c_in_nF")],
            c_out=g[("network", "c_out_nF")],
            c_bypass=g[("network", "c_bypass_nF")],
        )

    def transistor(self) -> device.TransistorParams:
        g = self._values
        i_sat = g[("device", "i_sat_A")]
        v_teff = g[("device", "v_teff_mV")]
        v_early = g[("device", "v_early_V")]
        beta_f = g[("device", "beta_f")]
        if i_sat == "auto":
            i_sat = device.calibrated_i_sat(
                self.network(), v_teff, v_early, beta_f,
                g[("device", "i_c_target_mA")])
        return device.TransistorParams(i_sat=i_sat, v_teff=v_teff,
                                       v_early=v_early, beta_f=beta_f)

    def geometry(self) -> source.CellGeometry:
        g = self._values
        return source.CellGeometry(
            c_cell=g[("geometry", "c_cell_pF")],
            s_over_d=g[("geometry", "s_over_d_mm")],
            delta_z=g[("geometry", "delta_z_nm")],
            c_parasitic=g[("chain", "c_parasitic_pF")],
        )

    def ensemble(self) -> source.EnsembleParams:
        g = self._values
        return source.EnsembleParams(
            n_s=g[("ensemble", "n_s_per_cm2")],
            rho22_target=g[("ensemble", "rho22_target")],
            tau_relax=g[("ensemble", "tau_relax_us")],
            v_resonance=g[("ensemble", "v_resonance_V")],
            linewidth_v=g[("ensemble", "linewidth_V")],
        )

    def amplifier_chain(self) -> chain_mod.ChainResponse:
        g = self._values
        net = self.network()
        params = self.transistor()
        op = device.solve_operating_point(net, params)
        ss = device.small_signal(op, params)
        r_src = g[("chain", "r_source_ohm")]
        r_load = chain_mod.unity_gain_load(ss, net, r_src)
        first = chain_mod.hbt_stage_response(
            ss, net, r_load, r_src,
            noise_temperature=g[("chain", "first_stage_noise_K")])
        if g[("chain", "stage")] == "first":
            return chain_mod.cascade([first])
        second = chain_mod.fixed_gain_stage(
            g[("chain", "second_stage_gain_dB")],
            g[("chain", "second_stage_f_low_kHz")],
            g[("chain", "second_stage_f_high_GHz")],
            noise_temperature=g[("chain", "second_stage_noise_K")])
        return chain_mod.cascade([first, second])

    def synthesis(self) -> SynthesisConfig:
        g = self._values
        return SynthesisConfig(
            noise_seed=g[("run", "seed")],
            input_noise_density=g[("synthesis", "input_noise_density_pV_rtHz")],
            time_constant=g[("synthesis", "time_constant_ms")],
            filter_order=g[("synthesis", "filter_order")],
            f_m=g[("synthesis", "f_m_kHz")],
            duty=g[("synthesis", "duty")],
        )

    def sweep_grid(self):
        """Points of the ``[sweep] grid`` spec START:STOP:POINTS[:log|lin]
        on the ``[sweep] axis``; ``auto`` is the axis's reference grid."""
        spec = self._values[("sweep", "grid")]
        axis = self._values[("sweep", "axis")]
        reference = _REFERENCE_GRIDS[axis]
        parts = (reference if spec == "auto" else spec).split(":")
        if len(parts) == 3:
            parts.append(reference.rsplit(":", 1)[1])
        if len(parts) != 4:
            raise ConfigError(f"[sweep] grid: bad spec {spec!r} "
                              "(START:STOP:POINTS[:log|lin])")
        try:
            start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"[sweep] grid: bad spec {spec!r}") from None
        try:
            grid = grid_points(start, stop, points, parts[3])
        except ConfigError as exc:
            raise ConfigError(f"[sweep] grid: {exc}") from None
        if axis == "fm" and grid[0] <= 0:
            raise ConfigError(f"[sweep] grid: modulation frequencies must be "
                              f"positive, got {spec!r}")
        return grid

    @property
    def seed(self) -> int:
        return self._values[("run", "seed")]

    @property
    def output_dir(self) -> str:
        return self._values[("run", "output_dir")]

    # -- serialization ------------------------------------------------------

    def as_text(self) -> str:
        """Render the resolved config (file units) as INI text."""
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, ((kind, scale), _default) in keys.items():
                val = self._values[(section, key)]
                if kind in ("str",) or val == "auto":
                    lines.append(f"{key} = {val}")
                elif kind == "int":
                    lines.append(f"{key} = {val:d}")
                else:
                    lines.append(f"{key} = {_file_units(val, scale):.17g}")
            lines.append("")
        return "\n".join(lines)


def _file_units(value, scale):
    """File-unit x with x * scale == value exactly, so manifests reload
    exactly; value / scale can miss by an ulp (2**-9 / 1e-9 * 1e-9 !=
    2**-9), and x * scale is monotone in x."""
    x = value / scale
    while x * scale != value:
        x = math.nextafter(x, math.inf if x * scale < value else -math.inf)
    return x


def _parse_value(section, key, raw):
    (kind, scale), _default = _SCHEMA[section][key]
    raw = raw.strip()
    if kind == "str":
        # a manifest writes the value on one line
        if "\n" in raw or "\r" in raw:
            raise ConfigError(f"[{section}] {key}: expected one line, "
                              f"got {raw!r}")
        if scale is not None and raw not in scale:
            raise ConfigError(f"[{section}] {key}: expected one of "
                              f"{', '.join(scale)}, got {raw!r}")
        return raw
    if kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected integer, got {raw!r}")
        if scale is not None and value < scale:
            raise ConfigError(f"[{section}] {key}: expected an integer >= "
                              f"{scale}, got {raw!r}")
        return value
    if kind == "auto_num" and raw == "auto":
        return "auto"
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, "
                          f"got {raw!r}")
    return value * scale


def load_config(path=None, overrides=None) -> RunConfig:
    """Load a RunConfig from an INI file (or defaults when path is None).

    ``overrides`` is a {(section, key): raw-string} mapping applied on top
    (used for CLI flags).  The seed, the ``[synthesis]`` settings and the
    sweep grid are checked here, so every command rejects them before
    it starts work; the builders check the other values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str   # unit suffixes are case-sensitive
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values = {}
    for section, keys in _SCHEMA.items():
        for key, (_spec, default) in keys.items():
            raw = parser.get(section, key, fallback=default) \
                if parser.has_section(section) else default
            values[(section, key)] = _parse_value(section, key, raw)
    for (section, key), raw in (overrides or {}).items():
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override [{section}] {key}")
        values[(section, key)] = _parse_value(section, key, raw)
    cfg = RunConfig(values)
    try:
        cfg.synthesis()
    except ValueError as exc:
        raise ConfigError(f"[synthesis] {exc}") from None
    cfg.sweep_grid()
    return cfg
