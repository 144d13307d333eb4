"""The benchmark's traced run of a sweep reads every per-layer span.

``bench/run.py --self-test`` fails when a per-layer metric reads null, and
a span reads null when none of the names ``bench/traced.py`` wraps exists
(a function renamed or deleted, an import made lazy).  This runs one small
traced fm sweep the way the benchmark does and reads its spans through the
benchmark's own reader; nothing under ``bench/`` is changed.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_traced_sweep_has_every_per_layer_span(tmp_path, monkeypatch):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(BENCH / "traced.py"),
         str(spans_path), "--out", str(tmp_path / "out"), "sweep",
         "--axis", "fm", "--grid", "1e5:2e5:2:log"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    run = _bench_run(monkeypatch)
    spans = run._read_spans(str(spans_path), proc.stderr)
    # run.py computes trace.overhead itself, from untraced and traced passes
    wanted = {span for *_, span, _field in run.spec.PER_LAYER} \
        - {"trace.overhead"}
    assert sorted(wanted - spans.keys()) == []
