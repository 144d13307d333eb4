"""The package's frozen value classes: construction, checks, immutability,
equality, hash, repr and ``cryoreadout.replace``, for every record class."""

import numpy as np
import pytest

from cryoreadout import Record, replace
from cryoreadout.chain import ChainResponse, StageResponse
from cryoreadout.device import (BiasNetwork, OperatingPoint,
                                SmallSignalParams, TransistorParams)
from cryoreadout.ivfit import (DeviceClassification, DiodeFit, EarlyFit,
                               IVDataset, IVSweep)
from cryoreadout.lockin import LockInResult, SynthesisConfig
from cryoreadout.source import CellGeometry, EnsembleParams

_STAGE = StageResponse(2.0)
_SWEEP = IVSweep(label=1e-6, voltage=np.array([0.0, 1.0]),
                 current=np.array([1e-4, 2e-4]))

# every record class with valid field values, in field order
RECORDS = [
    (TransistorParams, dict(i_sat=1e-14, v_teff=0.025, v_early=124.0,
                            beta_f=160.0)),
    (BiasNetwork, dict(v_supply=1.0, r_upper=574e3, r_lower=235e3,
                       r_collector=1e3, r_emitter=24.0, c_in=12e-9,
                       c_out=12e-9, c_bypass=220e-9)),
    (OperatingPoint, dict(v_be=0.18, v_ce=0.9, i_b=6e-7, i_c=1e-4)),
    (SmallSignalParams, dict(g_m=4e-3, r_pi=4e4, r_o=1.2e6)),
    (StageResponse, dict(gain_factor=-5.0, poles=(1e9,), zeros=(2e9,),
                         hp_corners=(1e3,), noise_temperature=2.0)),
    (ChainResponse, dict(stages=(_STAGE, _STAGE))),
    (CellGeometry, dict(c_cell=1e-12, s_over_d=5.65e-3, delta_z=35e-9,
                        c_parasitic=10e-12)),
    (EnsembleParams, dict(n_s=1e12, rho22_target=0.1, tau_relax=1e-6,
                          v_resonance=11.6, linewidth_v=0.1)),
    (SynthesisConfig, dict(input_noise_density=35e-12, time_constant=1e-3,
                           filter_order=4, f_m=250e3, duty=0.5)),
    (LockInResult, dict(amplitude_r=1e-6, phase=-0.5)),
    (IVSweep, dict(label=None, voltage=np.array([0.1, 0.2]),
                   current=np.array([1e-9, 2e-9]))),
    (IVDataset, dict(forward=(_SWEEP,), backward=(_SWEEP,))),
    (EarlyFit, dict(v_early=124.0, beta_f=160.0, r_squared=0.99)),
    (DiodeFit, dict(i_sat=1e-14, v_teff=0.025, residual=1e-3)),
    (DeviceClassification, dict(verdict="usable", evidence=())),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, fields):
    names, values = tuple(fields), tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    for record in (a, b):
        assert all(getattr(record, n) is v for n, v in fields.items())

    # a missing, unknown or repeated argument, or one too many
    with pytest.raises(TypeError, match=repr(names[0])):
        cls(**{n: v for n, v in fields.items() if n != names[0]})
    with pytest.raises(TypeError, match="no_such_field"):
        cls(*values, no_such_field=0.0)
    with pytest.raises(TypeError, match=repr(names[0])):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="positional"):
        cls(*values, values[0])

    # no field can be set or deleted, and no attribute added
    for n in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, n, values[0])
        with pytest.raises(AttributeError):
            delattr(a, n)
    assert all(getattr(a, n) is v for n, v in fields.items())

    # equal within one class, hashed as the field tuple; a class of the same
    # name and fields, so of the same repr, is another class
    assert a == b and not a != b
    try:
        field_hash = hash(values)
    except TypeError:   # a field holds an array
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == field_hash
    twin = type(cls.__name__, (Record,),
                {"__annotations__": dict.fromkeys(names, "object"),
                 "__qualname__": cls.__qualname__})(*values)
    assert repr(twin) == repr(a)
    assert a != twin and twin != a and not a == twin

    assert repr(a) == "{}({})".format(
        cls.__qualname__, ", ".join(f"{n}={v!r}" for n, v in fields.items()))

    copy = replace(a)
    assert copy == a and copy is not a
    with pytest.raises(TypeError, match="no_such_field"):
        replace(a, no_such_field=0.0)


def test_record_repr_text():
    # the text the dataclass repr gave
    assert repr(OperatingPoint(0.1, 0.2, 1e-6, 1e-4)) == (
        "OperatingPoint(v_be=0.1, v_ce=0.2, i_b=1e-06, i_c=0.0001)")
    assert repr(StageResponse(2.0, poles=(1e6,))) == (
        "StageResponse(gain_factor=2.0, poles=(1000000.0,), zeros=(), "
        "hp_corners=(), noise_temperature=0.0)")


def test_record_defaults():
    s = StageResponse(3.0)
    assert (s.poles, s.zeros, s.hp_corners, s.noise_temperature) == (
        (), (), (), 0.0)
    assert IVDataset((_SWEEP,)).backward == ()


_FIELDS = dict(RECORDS)


@pytest.mark.parametrize("cls, change", [
    (TransistorParams, dict(beta_f=0.5)),
    (BiasNetwork, dict(r_emitter=0.0)),
    (StageResponse, dict(noise_temperature=-1.0)),
    (ChainResponse, dict(stages=())),
    (CellGeometry, dict(c_cell=0.0)),
    (EnsembleParams, dict(tau_relax=0.0)),
    (SynthesisConfig, dict(duty=1.0)),
    (IVSweep, dict(voltage=np.array([0.2, 0.1]))),
    (IVDataset, dict(forward=(IVSweep(None, [0.0, 1.0], [0.0, 1.0]),))),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_replace_runs_the_checks(cls, change):
    record = cls(**_FIELDS[cls])
    with pytest.raises(ValueError):
        replace(record, **change)


def test_replace_normalises_like_the_constructor():
    # IVSweep stores its columns as float arrays, also when replaced
    sweep = replace(_SWEEP, voltage=[1, 2])
    assert sweep.voltage.dtype == float
    np.testing.assert_array_equal(sweep.voltage, [1.0, 2.0])
