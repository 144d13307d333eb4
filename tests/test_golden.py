"""Seed-0 outputs of the reference setup against the files recorded in
``tests/golden``.

Numbers compare at rtol 1e-12, so an ulp from another platform's libm does
not fail; every other token must match exactly.  The synthetic output
family is pure IEEE arithmetic (no libm call), so it is pinned by its
SHA-256.  Regenerate a file only for a change that is meant to move that
output, and say which lines moved.
"""

import hashlib
import math
import re
from pathlib import Path

from cryoreadout.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAMILY_SHA256 = \
    "c7209535f7d3905ed99816bbdd1f4240bb95a44fec9565a722faa50c111d198c"


def _tokens(text):
    return re.split(r"[\s,=]+", text.strip())


def _assert_same(name, got):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    got_t, want_t = _tokens(got), _tokens(want)
    assert len(got_t) == len(want_t), name
    for g, w in zip(got_t, want_t):
        try:
            gv, wv = float(g), float(w)
        except ValueError:
            assert g == w, (name, g, w)
            continue
        assert math.isclose(gv, wv, rel_tol=1e-12), (name, g, w)


def test_seed0_outputs_match_golden(tmp_path, capsys):
    family, diode = tmp_path / "family.csv", tmp_path / "diode.csv"
    capsys.readouterr()
    assert main(["opp"]) == 0
    _assert_same("opp.txt", capsys.readouterr().out)
    for args in (["s21"], ["sweep", "--axis", "vbc"],
                 ["sweep", "--axis", "fm"],
                 ["gen-iv", "--kind", "output", "--path", str(family)],
                 ["gen-iv", "--kind", "input", "--path", str(diode)],
                 ["fit-iv", "--output-chars", str(family),
                  "--input", str(diode)]):
        assert main(["--out", str(tmp_path), *args]) == 0, args
    for name in ("s21_both.csv", "sweep_vbc.csv", "sweep_fm.csv",
                 "diode.csv", "fit_iv_report.csv"):
        _assert_same(name, (tmp_path / name).read_text(encoding="utf-8"))
    assert hashlib.sha256(family.read_bytes()).hexdigest() == FAMILY_SHA256
