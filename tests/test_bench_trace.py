"""The benchmark's traced runs read every per-layer span and every byte
cli writes.

``bench/run.py --self-test`` fails when a per-layer metric reads null, and
a span reads null when none of the names ``bench/traced.py`` wraps exists
(a function renamed or deleted, an import moved into a function).  An
import made lazy through a module ``__getattr__`` keeps its span: the
tracer looks the name up with ``getattr``, which loads it.  These run small
traced commands the way the benchmark does and read their spans through
the benchmark's own reader; nothing under ``bench/`` is changed.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _bench_run(monkeypatch):
    """``bench/run.py`` as a module; it imports ``spec`` and ``workloads``
    from its own directory."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, monkeypatch, *cli_args):
    """Spans of one command traced as the benchmark traces it, with its
    files written under ``tmp_path / "out"``."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(BENCH / "traced.py"),
         str(spans_path), "--out", str(tmp_path / "out"), *cli_args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    run = _bench_run(monkeypatch)
    return run, run._read_spans(str(spans_path), proc.stderr)


FM_SWEEP = ("sweep", "--axis", "fm", "--grid", "1e5:2e5:2:log")


def test_traced_sweep_has_every_per_layer_span(tmp_path, monkeypatch):
    run, spans = _traced(tmp_path, monkeypatch, *FM_SWEEP)
    # run.py computes trace.overhead itself, from untraced and traced passes
    wanted = {span for *_, span, _field in run.spec.PER_LAYER} \
        - {"trace.overhead"}
    assert sorted(wanted - spans.keys()) == []


@pytest.mark.parametrize("cli_args", [("s21", "--points", "20"), FM_SWEEP],
                         ids=["s21", "sweep_fm"])
def test_traced_write_counts_every_file(tmp_path, monkeypatch, cli_args):
    # cli.write exists even when no write reaches it, so a file written
    # around cli's ``open`` would read 0 bytes here, not null
    _, spans = _traced(tmp_path, monkeypatch, *cli_args)
    written = sum(p.stat().st_size for p in (tmp_path / "out").iterdir())
    assert written > 0
    assert spans["cli.write"]["units"] == written
