"""Child process of the benchmark: set up one workload, run passes, report.

run.py starts one worker per measurement, so every measured process is
fresh.  The worker prints ``ready`` as soon as the workload's inputs are
made and validated (the launcher times set-up to that line), then one JSON
line with its results.  Modes:

* ``probe``: versions of Python and the libraries, nothing measured;
* ``setup``: set-up only;
* ``cold``: set-up, then one pass, the first in the process;
* ``main``: as ``cold``, then the warm passes that fill ``--seconds`` at
  the reference speed;
* ``trace``: as ``main``, with warm passes alternately untraced and traced,
  and speed samples between operations only.  The first pass is traced too,
  and re-solves every integration with a single sample to count the steps
  the sample grid forces.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MAX_MESSAGES = 20
# the reference kernel's time on the machine the bounds were set on (2 vCPU
# x86-64, Python 3.11, numpy 2.4); times are reported at that speed
REF_S = 0.0008
INTERVAL_S = 0.025  # between speed samples while an operation runs
BOUNDARY_SAMPLES = 3  # speed samples between two operations


def import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import kirchhoff_spectral

    found = Path(kirchhoff_spectral.__file__).resolve().parent
    if found != (SRC / "kirchhoff_spectral").resolve():
        raise SystemExit(f"imported kirchhoff_spectral from {found}, not from {SRC}")


def probe():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
    }


def reference_kernel():
    """Fixed work whose time tracks the machine's speed (about 0.8 ms).

    Interpreter-bound like the package: a Runge-Kutta-shaped loop over a
    64-vector.
    """
    import numpy as np

    y = np.linspace(0.0, 1.0, 64)
    a = np.linspace(0.1, 0.9, 9)
    k = np.empty((9, 64))
    for _ in range(12):
        k[0] = y
        for i in range(1, 9):
            k[i] = np.sin(y + 0.01 * (a[:i] @ k[:i]))
        y = y + 0.001 * (a @ k)


class SpeedMeter:
    """Times the reference kernel between operations and, if ``during_ops``,
    from a SIGALRM handler every INTERVAL_S while an operation runs.

    The traced run samples between operations only, so that no kernel run
    falls inside a span.
    """

    def __init__(self, during_ops=True):
        self.during_ops = during_ops
        self.samples = []  # seconds taken by each kernel run
        self._busy = False

    def _sample(self, *_signal_args):
        if self._busy:  # a timer signal during a boundary sample
            return
        self._busy = True
        t0 = perf_counter()
        reference_kernel()
        self.samples.append(perf_counter() - t0)
        self._busy = False

    def boundary(self):
        """Samples taken between two operations."""
        for _ in range(BOUNDARY_SAMPLES):
            self._sample()

    def scale(self, first, last):
        """REF_S over the mean kernel time of samples first..last-1."""
        return REF_S / statistics.fmean(self.samples[first:last])

    def __enter__(self):
        if self.during_ops:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Runner:
    """Runs passes over a workload's operations and checks their outputs."""

    def __init__(self, ops, meter):
        self.ops = ops
        self.meter = meter
        self.first_hashes = {}
        self.attempted = 0
        self.failed = 0
        self.hard_failed = 0
        self.messages = []
        self.drifts = []

    def run_pass(self, tracer=None, label=""):
        """One timed pass, then its untimed checks.

        Returns (raw, scaled, scale).  ``raw`` holds each operation's wall
        time less the meter's samples taken during it, None for an operation
        that raised.  ``scaled`` holds the same times at the reference speed,
        using the meter's samples from just before to just after each
        operation; ``scale`` is that factor over the whole pass.
        """
        meter = self.meter
        samples = meter.samples
        results, raw, scaled = [], [], []
        first = pre = len(samples)
        meter.boundary()
        for op in self.ops:
            if tracer is not None:
                tracer.op = f"{label}/{op.name}"
            start = len(samples)
            t0 = perf_counter()
            try:
                results.append((op.run(), None))
            except Exception as exc:  # counted as a failed operation
                results.append((None, f"{op.name}: {type(exc).__name__}: {exc}"))
            elapsed = perf_counter() - t0
            end = len(samples)
            meter.boundary()
            if results[-1][1] is None:
                t = elapsed - sum(samples[start:end])
                raw.append(t)
                scaled.append(t * meter.scale(pre, len(samples)))
            else:
                raw.append(None)
                scaled.append(None)
            pre = end
        for op, (result, error) in zip(self.ops, results):
            self.check(op, result, error)
        return raw, scaled, meter.scale(first, len(samples))

    def check(self, op, result, error):
        self.attempted += 1
        failures = [(True, error)] if error else []
        if not error:
            outcome = op.check(result)
            failures += outcome.failures
            self.drifts += outcome.drifts
            first = self.first_hashes.setdefault(op.name, outcome.hashes)
            if outcome.hashes != first:
                failures.append((True, f"{op.name}: artifact bytes differ from "
                                       f"the first pass"))
        if failures:
            self.failed += 1
            self.hard_failed += any(hard for hard, _ in failures)
            for _, message in failures:
                if len(self.messages) < MAX_MESSAGES:
                    self.messages.append(message)

    def report(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "hard_failed": self.hard_failed,
            "messages": self.messages,
            "drift_max": max(self.drifts, default=None),
        }


def warm_passes(args, share=1.0):
    """How many warm passes fill ``share`` of --seconds at the reference speed.

    The count depends on the workload and --seconds only, so two versions of
    the package pool the same number of operations and report the same
    percentile.
    """
    import workloads

    return max(2, round(share * args.seconds / workloads.PASS_S[args.workload]))


def measure(args, ops, meter):
    runner = Runner(ops, meter)
    cold_raw, cold_scaled, _ = runner.run_pass()
    out = {"cold_raw": cold_raw, "cold_scaled": cold_scaled}
    if args.mode == "main":
        raw, scaled = [], []
        for _ in range(warm_passes(args)):
            r, s, _ = runner.run_pass()
            raw.append(r)
            scaled.append(s)
        out.update(raw=raw, scaled=scaled,
                   rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out.update(runner.report())
    return out


def measure_traced(args, ops, meter):
    import tracing

    runner = Runner(ops, meter)
    tracer = tracing.Tracer()
    tracer.count_grid_forced = True
    tracer.install()
    first = tracer.begin_pass()
    _, _, scale = runner.run_pass(tracer, "cold")
    forced = tracer.pass_metrics(first, scale)
    tracer.uninstall()
    tracer.count_grid_forced = False

    plain, traced, layers = [], [], []
    for _ in range(warm_passes(args, share=0.5)):
        plain.append(sum(t for t in runner.run_pass()[1] if t is not None))
        tracer.install()
        first = tracer.begin_pass()
        _, scaled, scale = runner.run_pass(tracer, f"warm{len(traced)}")
        tracer.uninstall()
        traced.append(sum(t for t in scaled if t is not None))
        layers.append(tracer.pass_metrics(first, scale))

    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    for name in ("integrate.grid_forced_steps", "integrate.grid_forced_share"):
        metrics[name] = forced[name]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    report = runner.report()
    metrics["dynamics.drift_max"] = report["drift_max"] or 0.0

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    return {"layers": metrics, "passes": [len(plain), len(traced)],
            "spans_file": str(spans_path.relative_to(ROOT)), **report}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True,
                   choices=("probe", "setup", "cold", "main", "trace"))
    p.add_argument("--workload", default="sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--size", default="full")
    args = p.parse_args(argv)

    import_package()
    if args.mode == "probe":
        print(json.dumps(probe()))
        return 0

    import workloads

    work_dir = OUT / f"work-{args.workload}-{args.mode}-{args.seed}"
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    try:
        ops = workloads.build(args.workload, args.seed, args.size, ROOT, work_dir,
                              golden)
        print("ready", flush=True)
        with SpeedMeter(during_ops=args.mode != "trace") as meter:
            # the machine's speed right after set-up scales the set-up time
            meter.boundary()
            meter.boundary()
            result = {"setup_scale": meter.scale(0, len(meter.samples))}
            if args.mode == "trace":
                result.update(measure_traced(args, ops, meter))
            elif args.mode != "setup":
                result.update(measure(args, ops, meter))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
