"""Run one CLI command in-process with layer wrappers installed.

Usage: python3 -X importtime bench/traced.py SPANS_JSON CLI_ARG...

Imports ``cryoreadout.cli`` (timed), wraps the module attributes each layer
calls through, runs ``cryoreadout.cli.main(CLI_ARG...)``, writes the
per-span totals to SPANS_JSON and exits with the command's exit code.
Nothing in the package is changed on disk.

A target is wrapped only when its module is loaded once the package has
been imported, so tracing imports nothing the program would not.  A span
none of whose targets exist (a function renamed, merged or made lazy) is
left out of SPANS_JSON, and its metrics read as absent.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import cryoreadout.cli as cli  # noqa: E402
_IMPORT_S = time.perf_counter() - _T0

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by the package)

from workloads import largest_prime  # noqa: E402


_largest_prime = functools.lru_cache(maxsize=None)(largest_prime)


def _fft_length(name, args, kwargs):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    m = np.shape(args[0])[-1]
    return 2 * (m - 1) if name.startswith("i") else m


def _units_arg(index):
    return lambda args, kwargs, result: np.size(args[index])


def _units_result(args, kwargs, result):
    return np.size(result[-1] if isinstance(result, tuple) else result)


def _units_len(args, kwargs, result):
    return len(result)


# span -> (module, attribute path[, size function]) targets.  Names are the
# ones each layer calls through: cli imports load_config and the sweeps by
# name, lockin imports lfilter and the source functions by name.
TARGETS = {
    "config.load_config": [("cryoreadout.cli", "load_config"),
                           ("cryoreadout.config", "load_config")],
    "config.amplifier_chain": [("cryoreadout.config",
                                "RunConfig.amplifier_chain")],
    "device.solve_operating_point": [("cryoreadout.device",
                                      "solve_operating_point")],
    "device.evaluate_dc": [("cryoreadout.device", "evaluate_dc")],
    "chain.unity_gain_load": [("cryoreadout.chain", "unity_gain_load")],
    "chain.evaluate": [("cryoreadout.chain", "ChainResponse.evaluate",
                        _units_arg(1))],
    "chain.s21_db": [("cryoreadout.chain", "s21_db")],
    "source.rydberg_population": [
        ("cryoreadout.source", "rydberg_population", _units_result),
        ("cryoreadout.lockin", "rydberg_population", _units_result)],
    "source.image_charge_waveform": [
        ("cryoreadout.source", "image_charge_waveform"),
        ("cryoreadout.lockin", "image_charge_waveform")],
    "lockin.sweep": [("cryoreadout.cli", "sweep_fm", _units_len),
                     ("cryoreadout.cli", "sweep_vbc", _units_len),
                     ("cryoreadout.lockin", "sweep_fm", _units_len),
                     ("cryoreadout.lockin", "sweep_vbc", _units_len)],
    "lockin.synthesize": [("cryoreadout.lockin", "synthesize",
                           _units_arg(0))],
    "lockin.demodulate": [("cryoreadout.lockin", "demodulate")],
    "lockin.lfilter": [("cryoreadout.lockin", "lfilter", _units_arg(2))],
    "lockin.fft": [("numpy.fft", "rfft"), ("numpy.fft", "irfft"),
                   ("scipy.fft", "rfft"), ("scipy.fft", "irfft")],
    "ivfit.load_iv_dataset": [("cryoreadout.ivfit", "load_iv_dataset")],
    "ivfit.fit": [("cryoreadout.ivfit", "fit_early_voltage"),
                  ("cryoreadout.ivfit", "fit_beta"),
                  ("cryoreadout.ivfit", "fit_diode_params"),
                  ("cryoreadout.ivfit", "classify_transistor")],
    "ivfit.synth": [("cryoreadout.ivfit", "synth_output_family"),
                    ("cryoreadout.ivfit", "synth_input_curve")],
    "ivfit.save_iv_dataset": [("cryoreadout.ivfit", "save_iv_dataset")],
}


class Tracer:
    """Per-span totals: seconds, seconds inside child spans, calls, units.

    A span gets an entry as soon as one of its targets is wrapped.
    """

    def __init__(self):
        self.spans = {}
        self._stack = []   # [span, seconds spent in traced children]

    def _stat(self, span):
        return self.spans.setdefault(
            span, {"s": 0.0, "child_s": 0.0, "calls": 0, "units": 0,
                   "max_prime": 0})

    def wrap(self, span, fn, units=None):
        stat = self._stat(span)
        stack = self._stack
        fft_name = fn.__name__ if span == "lockin.fft" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a span already open (recursion, one FFT calling another) is
            # counted once, by its outermost call
            if any(frame[0] == span for frame in stack):
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stat["s"] += dt
                stat["child_s"] += frame[1]
                stat["calls"] += 1
            if fft_name is not None:
                n = _fft_length(fft_name, args, kwargs)
                stat["units"] += n
                stat["max_prime"] = max(stat["max_prime"], _largest_prime(n))
            elif units is not None:
                stat["units"] += units(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for span, targets in TARGETS.items():
            for module_name, path, *units in targets:
                owner = sys.modules.get(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                setattr(owner, attr, self.wrap(span, fn, *units))
        self._wrap_writes()

    def _wrap_writes(self):
        """cli writes its CSVs and manifests with the builtin ``open``; a
        module global of that name in cli shadows it for cli alone."""
        stat = self._stat("cli.write")
        real_open = open

        class TimedFile:
            def __init__(self, fh, path, t0):
                self._fh, self._path, self._t0 = fh, path, t0

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                stat["s"] += time.perf_counter() - self._t0
                stat["calls"] += 1
                stat["units"] += os.path.getsize(self._path)
                return False

        def timed_open(file, mode="r", *args, **kwargs):
            t0 = time.perf_counter()
            fh = real_open(file, mode, *args, **kwargs)
            if not any(c in mode for c in "wax"):
                return fh
            return TimedFile(fh, file, t0)

        cli.open = timed_open


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - t0
    spans = tracer.spans
    spans["cli.import"] = {"s": _IMPORT_S, "calls": 1}
    spans["cli.main"] = {"s": main_s, "calls": 1}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
