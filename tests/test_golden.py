"""Seed-0 outputs of the reference setup against the files recorded in
``tests/golden``.

Numbers compare at rtol 1e-12, so an ulp from another platform's libm does
not fail; every other token must match exactly.  The synthetic output
family is pure IEEE arithmetic (no libm call), so it is pinned by its
SHA-256.  Regenerate a file only for a change that is meant to move that
output, and say which lines moved: a failure lists every moved line and
each file's largest relative move.
"""

import hashlib
import math
import re
from itertools import zip_longest
from pathlib import Path

import pytest

from cryoreadout.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAMILY_SHA256 = \
    "c7209535f7d3905ed99816bbdd1f4240bb95a44fec9565a722faa50c111d198c"


def _tokens(line):
    return re.split(r"[\s,=]+", line.strip())


def _moves(name, got):
    """Compare ``got`` with the golden file ``name`` token by token.

    Returns the lines that differ as (line number, got, want), a missing
    line reading as empty, and the largest relative move of a numeric token
    among them: inf where the token count or a non-numeric token differs.
    """
    want = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    moved, largest = [], 0.0
    for number, (g_line, w_line) in enumerate(
            zip_longest(got.splitlines(), want, fillvalue=""), 1):
        g_tok, w_tok = _tokens(g_line), _tokens(w_line)
        line_move = 0.0 if len(g_tok) == len(w_tok) else math.inf
        for g, w in zip(g_tok, w_tok):
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                if g != w:
                    line_move = math.inf
                continue
            if not math.isclose(gv, wv, rel_tol=1e-12):
                rel = abs(gv - wv) / max(abs(gv), abs(wv))
                line_move = max(line_move,
                                math.inf if math.isnan(rel) else rel)
        if line_move > 0.0:
            moved.append((number, g_line, w_line))
            largest = max(largest, line_move)
    return moved, largest


def test_seed0_outputs_match_golden(tmp_path, capsys):
    family, diode = tmp_path / "family.csv", tmp_path / "diode.csv"
    capsys.readouterr()
    assert main(["opp"]) == 0
    outputs = {"opp.txt": capsys.readouterr().out}
    for args in (["s21"], ["sweep", "--axis", "vbc"],
                 ["sweep", "--axis", "fm"],
                 ["gen-iv", "--kind", "output", "--path", str(family)],
                 ["gen-iv", "--kind", "input", "--path", str(diode)],
                 ["fit-iv", "--output-chars", str(family),
                  "--input", str(diode)]):
        assert main(["--out", str(tmp_path), *args]) == 0, args
    for name in ("s21_both.csv", "sweep_vbc.csv", "sweep_fm.csv",
                 "diode.csv", "fit_iv_report.csv"):
        outputs[name] = (tmp_path / name).read_text(encoding="utf-8")
    report = []
    for name, got in outputs.items():
        moved, largest = _moves(name, got)
        if moved:
            report += [f"{name}:{line}: got {g!r}, want {w!r}"
                       for line, g, w in moved]
            report.append(f"{name}: largest relative move {largest:.3g}")
    if report:
        pytest.fail("outputs moved from tests/golden:\n" + "\n".join(report))
    assert hashlib.sha256(family.read_bytes()).hexdigest() == FAMILY_SHA256
