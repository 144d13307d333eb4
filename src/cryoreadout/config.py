"""Sectioned INI run configuration with unit-suffixed keys.

``_SCHEMA`` is the one home of the reference values (the published device
values, in file units) and of the object field each key builds: library
classes and functions take them with no defaults of their own, so library
callers get reference objects from ``load_config()``, which resolves an
empty config to the reference setup.
Unknown sections or keys are rejected, and every module object is built
once, at load, so a bad value fails there for every command.  A resolved
config can be written back out as a manifest that keeps each key's text;
re-running from the manifest reproduces the run bit-for-bit.  A
command-line flag that sets a value overrides its key.
"""

from __future__ import annotations

import math

import numpy as np

from . import device, chain as chain_mod, replace, source
from .lockin import SynthesisConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "grid_points",
           "MAX_GRID_POINTS"]


class ConfigError(ValueError):
    pass


def _num(scale):
    return ("num", scale)


# section -> key -> ((kind, SI scale | allowed strings | allowed integer
# range | None), default in file units, (object, field) the value builds |
# None)
_SCHEMA = {
    "device": {
        "i_sat_A": (("auto_num", 1.0), "auto", ("transistor", "i_sat")),
        "v_teff_mV": (_num(1e-3), "25", ("transistor", "v_teff")),
        "v_early_V": (_num(1.0), "124", ("transistor", "v_early")),
        "beta_f": (_num(1.0), "160", ("transistor", "beta_f")),
        "i_c_target_mA": (_num(1e-3), "0.1", None),
    },
    "network": {
        "v_supply_V": (_num(1.0), "1", ("network", "v_supply")),
        "r_upper_kohm": (_num(1e3), "574", ("network", "r_upper")),
        "r_lower_kohm": (_num(1e3), "235", ("network", "r_lower")),
        "r_collector_kohm": (_num(1e3), "1", ("network", "r_collector")),
        "r_emitter_ohm": (_num(1.0), "24", ("network", "r_emitter")),
        "c_in_nF": (_num(1e-9), "12", ("network", "c_in")),
        "c_out_nF": (_num(1e-9), "12", ("network", "c_out")),
        "c_bypass_nF": (_num(1e-9), "220", ("network", "c_bypass")),
    },
    "geometry": {
        "c_cell_pF": (_num(1e-12), "1", ("geometry", "c_cell")),
        "s_over_d_mm": (_num(1e-3), "5.65", ("geometry", "s_over_d")),
        "delta_z_nm": (_num(1e-9), "35", ("geometry", "delta_z")),
    },
    "ensemble": {
        "n_s_per_cm2": (_num(1e4), "1e8", ("ensemble", "n_s")),  # cm^-2 -> m^-2
        "rho22_target": (_num(1.0), "0.1", ("ensemble", "rho22_target")),
        "tau_relax_us": (_num(1e-6), "1", ("ensemble", "tau_relax")),
        "v_resonance_V": (_num(1.0), "11.6", ("ensemble", "v_resonance")),
        "linewidth_V": (_num(1.0), "0.1", ("ensemble", "linewidth_v")),
    },
    "chain": {
        "c_parasitic_pF": (_num(1e-12), "10", ("geometry", "c_parasitic")),
        "r_source_ohm": (_num(1.0), "50",
                         ("first_stage", "source_resistance")),
        "second_stage_gain_dB": (_num(1.0), "40",
                                 ("second_stage", "gain_db")),
        # 40 kHz keeps the cascade within 1 dB of flat at 100 kHz
        "second_stage_f_low_kHz": (_num(1e3), "40",
                                   ("second_stage", "f_low")),
        "second_stage_f_high_GHz": (_num(1e9), "1.5",
                                    ("second_stage", "f_high")),
        "first_stage_noise_K": (_num(1.0), "2",
                                ("first_stage", "noise_temperature")),
        "second_stage_noise_K": (_num(1.0), "6",
                                 ("second_stage", "noise_temperature")),
        "stage": (("str", ("first", "both")), "both", None),
    },
    "synthesis": {
        "input_noise_density_pV_rtHz": (
            _num(1e-12), "35", ("synthesis", "input_noise_density")),
        "time_constant_ms": (_num(1e-3), "1",
                             ("synthesis", "time_constant")),
        "filter_order": (("int", None), "4", ("synthesis", "filter_order")),
        "duty": (_num(1.0), "0.5", ("synthesis", "duty")),
        "f_m_kHz": (_num(1e3), "250", ("synthesis", "f_m")),
    },
    "run": {
        # the noise stream keys on the seed as a uint64, which a larger
        # seed does not fit
        "seed": (("int", range(2 ** 64)), "0", None),
        "output_dir": (("str", None), ".", None),
    },
    "sweep": {
        "axis": (("str", ("vbc", "fm")), "vbc", None),
        "grid": (("str", None), "auto", None),
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
    if not math.isfinite(stop - start):
        raise ConfigError(f"grid span {start:g}:{stop:g} overflows")
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
    """The resolved run: each key's text, as given in the config file, an
    override or ``_SCHEMA``, and the module objects built once from it.

    ``cfg[section, key]`` is a key's parsed value (SI units).  A value that
    a builder rejects raises ConfigError naming its section, so every
    command rejects it before it starts work.
    """

    def __init__(self, texts):
        self._texts = {sk: text.strip() for sk, text in texts.items()}
        self._values = {sk: _parse_value(*sk, text)
                        for sk, text in self._texts.items()}
        # object -> {field: value}, from each key's _SCHEMA target
        kw = {}
        for (section, key), value in self._values.items():
            target = _SCHEMA[section][key][2]
            if target is not None:
                kw.setdefault(target[0], {})[target[1]] = value
        self.seed = self["run", "seed"]
        self.output_dir = self["run", "output_dir"]
        self.network = _build("[network]", device.BiasNetwork, **kw["network"])
        self.transistor = _build(
            "[device]", _transistor, self.network,
            i_c_target=self["device", "i_c_target_mA"], **kw["transistor"])
        self.geometry = _build("[geometry]", source.CellGeometry,
                               **kw["geometry"])
        self.ensemble = _build("[ensemble]", source.EnsembleParams,
                               **kw["ensemble"])
        self.second_stage = _build("[chain] second stage:",
                                   chain_mod.fixed_gain_stage,
                                   **kw["second_stage"])
        self._first_stage = kw["first_stage"]
        _build("[chain] first stage:", _check_first_stage, **self._first_stage)
        self.synthesis = _build("[synthesis]", SynthesisConfig,
                                **kw["synthesis"])
        self.sweep_grid = _build("[sweep] grid:", _sweep_grid,
                                 self["sweep", "axis"], self["sweep", "grid"])

    def __getitem__(self, section_key):
        return self._values[section_key]

    def amplifier_chain(self) -> chain_mod.ChainResponse:
        """The configured chain: the HBT first stage at its DC operating
        point into its unity-gain load, then the second stage unless
        ``[chain] stage`` is ``first``."""
        op = device.solve_operating_point(self.network, self.transistor)
        ss = device.small_signal(op, self.transistor)
        first = chain_mod.hbt_stage_response(
            ss, self.network, chain_mod.unity_gain_load(ss, self.network),
            **self._first_stage)
        if self["chain", "stage"] == "first":
            return chain_mod.ChainResponse(stages=(first,))
        return chain_mod.ChainResponse(stages=(first, self.second_stage))

    def as_text(self) -> str:
        """The resolved config as INI text, each key's text as given."""
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {self._texts[section, key]}" for key in keys)
            lines.append("")
        return "\n".join(lines)


def _build(label, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError raised as a ConfigError
    led by ``label``, the config section the object is built from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{label} {exc}") from None


def _check_first_stage(source_resistance, noise_temperature):
    """``amplifier_chain`` builds the first stage after the DC solve; its
    own ``[chain]`` values are checked at load, as that stage checks them."""
    if not source_resistance > 0:
        raise ValueError(f"r_source_ohm must be positive, "
                         f"got {source_resistance:g}")
    chain_mod.StageResponse(gain_factor=1.0,
                            noise_temperature=noise_temperature)


def _transistor(network, i_c_target, i_sat, **fields):
    auto = i_sat == "auto"
    # a stand-in i_sat lets TransistorParams check the other values before
    # the calibration divides by them
    params = device.TransistorParams(i_sat=1.0 if auto else i_sat, **fields)
    if not auto:
        return params
    return replace(params, i_sat=device.calibrated_i_sat(
        network, params.v_teff, params.v_early, params.beta_f, i_c_target))


def _sweep_grid(axis, spec):
    """Points of the ``[sweep] grid`` spec START:STOP:POINTS[:log|lin] on
    ``axis``; ``auto`` is the axis's reference grid."""
    reference = _REFERENCE_GRIDS[axis]
    parts = (reference if spec == "auto" else spec).split(":")
    if len(parts) == 3:
        parts.append(reference.rsplit(":", 1)[1])
    try:
        start, stop, points, spacing = parts
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise ValueError(f"bad spec {spec!r} "
                         "(START:STOP:POINTS[:log|lin])") from None
    grid = grid_points(start, stop, points, spacing)
    if axis == "fm" and grid[0] <= 0:
        raise ValueError(f"modulation frequencies must be positive, "
                         f"got {spec!r}")
    return grid


def _parse_value(section, key, raw):
    (kind, scale), _default, _target = _SCHEMA[section][key]
    if not raw:
        raise ConfigError(f"[{section}] {key}: expected a value, got none")
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
        if scale is not None and value not in scale:
            raise ConfigError(f"[{section}] {key}: expected an integer from "
                              f"{scale.start} to {scale.stop - 1}, "
                              f"got {raw!r}")
        return value
    if kind == "auto_num" and raw == "auto":
        return "auto"
    try:
        value = float(raw) * scale
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected number, got {raw!r}")
    # checked in SI units: 1e305 cm^-2 is inf m^-2
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a number finite in "
                          f"SI units, got {raw!r}")
    return value


def load_config(path=None, overrides=None) -> RunConfig:
    """Load a RunConfig from a UTF-8 INI file, with or without a byte-order
    mark (or defaults when path is None).

    ``overrides`` is a {(section, key): raw-string} mapping applied on top
    (used for CLI flags).  Every value is checked here, for every command.
    """
    texts = {(section, key): default
             for section, keys in _SCHEMA.items()
             for key, (_spec, default, _target) in keys.items()}
    if path is not None:
        texts.update(_read_ini(path))
    for (section, key), text in (overrides or {}).items():
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override [{section}] {key}")
        texts[(section, key)] = text
    return RunConfig(texts)


def _read_ini(path):
    """The {(section, key): text} entries of the INI file at ``path``; an
    unknown section or key raises ConfigError."""
    import configparser   # only a config file needs it

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str   # unit suffixes are case-sensitive
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    # _SCHEMA has no [DEFAULT]; configparser would lend its keys to every
    # section of the file
    for key in parser.defaults():
        raise ConfigError(f"unknown key {key!r} in section [DEFAULT]")
    texts = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            texts[section, key] = parser.get(section, key)
    return texts
