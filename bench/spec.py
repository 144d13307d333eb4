"""What the benchmark measures: workloads, metrics, bounds and run length.

This module is the single source of truth for ``BENCHMARK.json`` at the
repository root; ``python3 bench/run.py --all`` rewrites that file from it.
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 30

# Time metrics are reported at a fixed machine speed: each measured time is
# multiplied by REFERENCE_S over the wall time of bench/reference.py run
# next to it (see run.py).  REFERENCE_S is that task's median, pinned to one
# core, on the 2-core Xeon VM (Python 3.11, numpy 2.4, scipy 1.17) the
# bounds were set on, so the figures read as seconds there.
REFERENCE_S = 1.95

# Why each workload is here: it stresses one group of layers and bypasses
# the others, so an optimisation of one layer has a workload where it must
# show and one where it must not.
WORKLOADS = (
    ("sweep_fm",
     "default 25-point fm sweep: FFT-bound, 32k-3.2M sample records with "
     "large prime factors; periodic-path, FFT sizing and memory work show here"),
    ("sweep_vbc",
     "default 51-point vbc sweep: one FFT-friendly 80000-sample record and "
     "one 40001-bin chain grid per point; caching across points shows here"),
    ("short_cmds",
     "opp, s21, gen-iv x2 and fit-iv: each about 1 s, nearly all start-up "
     "and import; import gains show here and sweep work must not"),
)

# (name, unit, better, bound).  fail_frac is not listed: it is 0 at the
# seed, and a metric compared as a share of its parent's median must never
# be 0.  Failures travel in the result line's "attempted" and "failed".
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# (name, unit, better, span, field).  A span is one traced layer boundary;
# the field picks what it recorded there: total seconds "s", seconds not
# covered by other traced spans "self_s", "calls", a size "units" summed
# over calls, or the largest FFT length prime factor "max_prime".
PER_LAYER = (
    ("cli.import_s", "s", "lower", "cli.import", "s"),
    ("cli.import.scipy_signal_s", "s", "lower", "cli.import.scipy_signal", "s"),
    ("cli.main_s", "s", "lower", "cli.main", "s"),
    ("cli.write_s", "s", "lower", "cli.write", "s"),
    ("cli.write_bytes", "B", "lower", "cli.write", "units"),
    ("config.load_config_s", "s", "lower", "config.load_config", "s"),
    ("config.amplifier_chain_s", "s", "lower", "config.amplifier_chain", "s"),
    ("config.amplifier_chain_calls", "count", "lower",
     "config.amplifier_chain", "calls"),
    ("device.solve_operating_point_s", "s", "lower",
     "device.solve_operating_point", "s"),
    ("device.solve_operating_point_calls", "count", "lower",
     "device.solve_operating_point", "calls"),
    ("device.evaluate_dc_calls", "count", "lower", "device.evaluate_dc", "calls"),
    ("chain.unity_gain_load_s", "s", "lower", "chain.unity_gain_load", "s"),
    ("chain.evaluate_s", "s", "lower", "chain.evaluate", "s"),
    ("chain.evaluate_calls", "count", "lower", "chain.evaluate", "calls"),
    ("chain.evaluate_bins", "count", "lower", "chain.evaluate", "units"),
    ("chain.s21_db_s", "s", "lower", "chain.s21_db", "s"),
    ("source.rydberg_population_s", "s", "lower", "source.rydberg_population", "s"),
    ("source.rydberg_population_samples", "count", "lower",
     "source.rydberg_population", "units"),
    ("source.image_charge_waveform_s", "s", "lower",
     "source.image_charge_waveform", "s"),
    ("lockin.sweep_s", "s", "lower", "lockin.sweep", "s"),
    ("lockin.points", "count", "higher", "lockin.sweep", "units"),
    ("lockin.synthesize_s", "s", "lower", "lockin.synthesize", "s"),
    ("lockin.synthesize_self_s", "s", "lower", "lockin.synthesize", "self_s"),
    ("lockin.synthesize_samples", "count", "lower", "lockin.synthesize", "units"),
    ("lockin.fft_s", "s", "lower", "lockin.fft", "s"),
    ("lockin.fft_calls", "count", "lower", "lockin.fft", "calls"),
    ("lockin.fft_samples", "count", "lower", "lockin.fft", "units"),
    ("lockin.fft_max_prime", "1", "lower", "lockin.fft", "max_prime"),
    ("lockin.demodulate_s", "s", "lower", "lockin.demodulate", "s"),
    ("lockin.demodulate_self_s", "s", "lower", "lockin.demodulate", "self_s"),
    ("lockin.lfilter_s", "s", "lower", "lockin.lfilter", "s"),
    ("lockin.lfilter_samples", "count", "lower", "lockin.lfilter", "units"),
    ("ivfit.load_iv_dataset_s", "s", "lower", "ivfit.load_iv_dataset", "s"),
    ("ivfit.fit_s", "s", "lower", "ivfit.fit", "s"),
    ("ivfit.synth_s", "s", "lower", "ivfit.synth", "s"),
    ("ivfit.save_iv_dataset_s", "s", "lower", "ivfit.save_iv_dataset", "s"),
    ("trace.overhead_s", "s", "lower", "trace.overhead", "s"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _span, _field in PER_LAYER],
    }


def write_benchmark_json(root: str) -> str:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return path
