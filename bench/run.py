"""End-to-end and per-layer benchmark of the cryoreadout command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all          # every workload; rewrites BENCHMARK.json
    python3 bench/run.py --self-test    # tiny grids; checks the benchmark itself

Run from the repository root.  Every CLI command runs as its own child,
``python3 -m cryoreadout.cli ...`` with ``PYTHONPATH=src`` and no install,
one at a time, because that is what a user pays per run.  The workload
seed is passed to every command as ``--seed``.

The host this was tuned on changes every process's speed by tens of
percent for minutes at a time.  So all children run on one core, and
between timed steps the benchmark runs ``bench/reference.py``, a fixed
task that does not use the package; each step's times are scaled by
``spec.REFERENCE_S`` over the mean of the reference runs just before and
after it.  Times are therefore seconds at a fixed machine speed.

With ``--trace 0`` a run starts the package a few times (``--version``;
``setup_s`` is the median), then repeats workload passes for about
``--seconds``.  ``wall_s`` and ``cpu_s`` sum, over the commands of a pass,
each command's median across passes; ``peak_rss_mb`` is the median over
passes of the largest child max-RSS.  With ``--trace 1`` untraced passes
alternate with traced ones, in which each command runs under
``bench/traced.py``; the per-layer metrics are medians over traced passes.
Every command's exit code and outputs are checked, and the untimed checks
(manifest replay, noise-free oracle) run once at the end; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import spec
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.py")
SETUP_REPS = 3
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CannotMeasure(RuntimeError):
    """The package or the reference task does not start; no result is
    printed."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    spans: dict = field(default_factory=dict)   # traced children only


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def spawn(argv, log_base, timeout):
    """Run one child to completion; time it and take its rusage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(log_base + ".out", "w+") as out, open(log_base + ".err", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, out.read(), err.read())


class Runner:
    """Runs the children of one workload run and checks their outputs."""

    def __init__(self, workload, seed, work, deadline, config=None):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline, self.config = deadline, config
        self.tally = Tally()
        self.n_children = 0
        self.references = []     # wall seconds of every reference run

    def _log_base(self):
        self.n_children += 1
        return os.path.join(self.work, f"child{self.n_children:03d}")

    def _spawn(self, argv, log_base):
        return spawn(argv, log_base, self.deadline - time.monotonic())

    def run(self, global_args, command, traced=False):
        log_base = self._log_base()
        if traced:
            spans_path = log_base + ".spans.json"
            prefix = [sys.executable, "-X", "importtime",
                      os.path.join(HERE, "traced.py"), spans_path]
        else:
            prefix = [sys.executable, "-m", "cryoreadout.cli"]
        child = self._spawn(prefix + global_args + command.args, log_base)
        if child.rc != 0:
            problems = [f"exit code {child.rc}: {child.stderr.strip()[-300:]}"]
        else:
            problems = command.check(child.stdout)
        self.tally.record(" ".join(command.args[:3]), problems)
        if traced:
            child.spans = _read_spans(spans_path, child.stderr)
        return child

    def reference(self):
        child = self._spawn([sys.executable, REFERENCE], self._log_base())
        if child.rc != 0:
            raise CannotMeasure(f"reference task failed: {child.stderr.strip()}")
        self.references.append(child.wall_s)
        return child.wall_s

    def scaled(self, fn):
        """Run ``fn`` between two reference runs; return its result and the
        factor that scales its times to the reference speed."""
        before = self.references[-1] if self.references else self.reference()
        result = fn()
        after = self.reference()
        return result, spec.REFERENCE_S / (0.5 * (before + after))

    def setup(self, reps):
        """Start the package ``reps`` times; scaled seconds to exit."""
        version = workloads.Command(["--version"], _check_version)
        times = []
        for _ in range(reps):
            child, scale = self.scaled(lambda: self.run([], version))
            if child.rc != 0:
                raise CannotMeasure(
                    f"cryoreadout does not start: {child.stderr.strip()}")
            times.append(child.wall_s * scale)
        return times

    def one_pass(self, quick=False, traced=False):
        out = os.path.join(self.work, "traced" if traced else "pass")
        global_args = ["--seed", str(self.seed), "--out", out]
        if self.config is not None:
            global_args = ["--config", self.config] + global_args
        commands = workloads.build_pass(self.workload, out, quick)
        children, scale = self.scaled(
            lambda: [self.run(global_args, c, traced) for c in commands])
        return {"scale": scale,
                "peak_rss_mb": max(c.maxrss_kb for c in children) / 1024.0,
                "children": children, "out": out}

    def untimed_checks(self, pass_out):
        for global_args, command in workloads.untimed_checks(
                self.workload, pass_out, self.work):
            self.run(global_args, command)


def _check_version(stdout):
    return [] if stdout.strip() else ["--version printed nothing"]


def _read_spans(path, importtime_log):
    try:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
    except (OSError, ValueError):
        return {}
    # -X importtime: "import time: self [us] | cumulative | package"
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.signal":
            spans["cli.import.scipy_signal"] = {
                "s": int(parts[1]) * 1e-6, "calls": 1}
    return spans


def layer_metrics(traced_pass):
    """Per-layer values of one traced pass, summed over its commands; times
    are scaled like the end-to-end ones."""
    values = {}
    for name, _unit, _better, span, fld in spec.PER_LAYER:
        stats = [c.spans[span] for c in traced_pass["children"]
                 if span in c.spans]
        if not stats:
            values[name] = None      # no target of this span exists
        elif fld == "self_s":
            values[name] = sum(s["s"] - s["child_s"] for s in stats) \
                * traced_pass["scale"]
        elif fld == "s":
            values[name] = sum(s["s"] for s in stats) * traced_pass["scale"]
        elif fld == "max_prime":
            values[name] = max(s["max_prime"] for s in stats)
        else:
            values[name] = sum(s.get(fld, 0) for s in stats)
    return values


def typical_pass(passes, attr):
    """Sum over a pass's commands of each command's median scaled ``attr``
    across ``passes``: a median per command is steadier than a median of
    pass totals when a pass has few, noisy commands."""
    return sum(statistics.median(getattr(p["children"][i], attr) * p["scale"]
                                 for p in passes)
               for i in range(len(passes[0]["children"])))


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace, quick=False, config=None,
            setup_reps=SETUP_REPS):
    """One benchmark run; returns (metrics, tally, run record)."""
    # Every child inherits this: the program and the reference task run on
    # the same core, so its slow phases reach both alike.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(workload, seed, work, deadline, config)
    setup_times = runner.setup(setup_reps)

    # passes repeat while the next one is expected to end within `seconds`
    t0 = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(runner.one_pass(quick))
        if trace:
            traced.append(runner.one_pass(quick, traced=True))
        spent = time.perf_counter() - t0
        if spent + spent / len(plain) > seconds:
            break
    runner.untimed_checks(plain[-1]["out"])

    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: _median_or_none([m[name] for m in per_pass])
                  for name, *_ in spec.PER_LAYER}
        values["trace.overhead_s"] = (typical_pass(traced, "wall_s")
                                      - typical_pass(plain, "wall_s"))
    else:
        values = {
            "wall_s": typical_pass(plain, "wall_s"),
            "cpu_s": typical_pass(plain, "cpu_s"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    record = run_record(workload, quick)
    record["setup_s_scaled"] = setup_times
    record["pass_wall_s"] = [[c.wall_s for c in p["children"]] for p in plain]
    record["pass_scale"] = [p["scale"] for p in plain]
    record["traced_pass_wall_s"] = [[c.wall_s for c in p["children"]]
                                    for p in traced]
    record["reference_wall_s"] = runner.references
    with open(os.path.join(work, "run_record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return metrics, runner.tally, record


def _git_commit():
    """HEAD of the checkout, read without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_record(workload, quick):
    lengths = workloads.record_lengths(workload, quick)

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "cores": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "record_lengths": lengths,
        "record_samples_total": sum(lengths),
        "fft_largest_prime_factors": [workloads.largest_prime(n) for n in lengths],
    }


def result_line(metrics, tally):
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": metrics})


def _report_problems(tally):
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)


def run_all(seconds):
    """Every workload once at seed 0, as a table; rewrites BENCHMARK.json."""
    names = [name for name, _ in spec.WORKLOADS]
    print(f"{'workload':<12}" + "".join(
        f"{n + ' [' + u + ']':>18}" for n, u, *_ in spec.END_TO_END)
        + f"{'fail_frac [1]':>16}")
    ok = True
    for name in names:
        metrics, tally, _record = measure(name, 0, seconds, trace=False)
        _report_problems(tally)
        ok = ok and tally.failed == 0
        print(f"{name:<12}" + "".join(
            f"{metrics[n]['value']:>18.4f}" for n, *_ in spec.END_TO_END)
            + f"{tally.failed / tally.attempted:>16.4f}", flush=True)
    print(f"wrote {spec.write_benchmark_json(ROOT)}")
    return 0 if ok else 1


def self_test():
    """Tiny grids: every metric printed with its unit, and a faulty input
    (tau_relax_us = nan) counted as a failure rather than a pass."""
    failures = []
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    for name, _why in spec.WORKLOADS:
        for trace, names in ((0, [n for n, *_ in spec.END_TO_END]),
                             (1, [n for n, *_ in spec.PER_LAYER])):
            metrics, tally, _ = measure(name, 1, 0, trace, quick=True,
                                        setup_reps=1)
            _report_problems(tally)
            if tally.failed:
                failures.append(f"{name} trace={trace}: {tally.failed} failed")
            if sorted(metrics) != sorted(names):
                failures.append(f"{name} trace={trace}: metrics "
                                f"{sorted(set(metrics) ^ set(names))} wrong")
            for metric, entry in metrics.items():
                if entry["value"] is None or entry["unit"] != units.get(metric):
                    failures.append(f"{name} trace={trace}: {metric} = {entry}")
            json.loads(result_line(metrics, tally))
    bad = os.path.join(WORK, "nan_tau.ini")
    os.makedirs(WORK, exist_ok=True)
    workloads.write_config(bad, {"ensemble": {"tau_relax_us": "nan"}})
    _, tally, _ = measure("sweep_vbc", 1, 0, 0, quick=True, config=bad,
                          setup_reps=1)
    if tally.failed == 0:
        failures.append("a sweep with tau_relax_us = nan passed its checks")
    for failure in failures:
        print(f"self-test: {failure}", file=sys.stderr)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload and rewrite BENCHMARK.json")
    p.add_argument("--self-test", action="store_true",
                   help="check the benchmark on tiny grids")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.all:
            return run_all(args.seconds)
        if args.workload is None:
            p.error("one of --workload, --all or --self-test is required")
        metrics, tally, record = measure(args.workload, args.seed,
                                         args.seconds, args.trace)
    except CannotMeasure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report_problems(tally)
    print("run record: " + json.dumps(record))
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    print(f"  fail_frac = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(result_line(metrics, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
