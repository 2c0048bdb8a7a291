"""Per-layer spans recorded from outside the package.

The package's modules import each other's functions by name
(``scenario.evolve``, ``dynamics.solve_to_samples``, ``scenario.write_csv``,
...).  ``Tracer.install`` rebinds those names to wrappers that record a span
(name, start, end, parent, operation id) around each call, and restores them
on ``uninstall``; nothing under ``src/`` changes.  The right-hand-side
callback is wrapped at the ``solve_to_samples`` boundary.  RHS calls are too
many to keep as spans (about 10^5 per second), so their time and count are
added to the enclosing solver span instead.

Spans stay in memory; the worker writes them out when the run ends.  A
span's self time is its duration minus the time its child spans (and, for a
solver span, its RHS calls) cover.  Calls nest strictly in this
single-threaded program, so the children of a span never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from kirchhoff_spectral import (
    analysis,
    artifacts,
    conditions,
    dynamics,
    reparametrize,
    scenario,
    spectral_gap,
)

MODULES = {
    "analysis": analysis,
    "artifacts": artifacts,
    "conditions": conditions,
    "dynamics": dynamics,
    "reparametrize": reparametrize,
    "scenario": scenario,
    "spectral_gap": spectral_gap,
}

# (module, imported name, span name).  The dynamics and reparametrize entries
# catch the benchmark's own calls and the package's calls between modules.
SPANS = (
    ("scenario", "run_scenario", "scenario.run"),
    ("scenario", "validate_scenario", "scenario.validate"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("scenario", "evolve", "dynamics.evolve"),
    ("analysis", "evolve", "dynamics.evolve"),
    ("reparametrize", "evolve", "dynamics.evolve"),
    ("dynamics", "hamiltonian_series", "dynamics.series"),
    ("scenario", "hamiltonian_series", "dynamics.series"),
    ("scenario", "higher_order_series", "dynamics.series"),
    ("scenario", "pohozaev_series", "dynamics.series"),
    ("scenario", "coefficient_trace", "dynamics.series"),
    ("scenario", "scale_norm_trace", "analysis.norm_trace"),
    ("scenario", "continuous_dependence_study", "analysis.dependence"),
    ("scenario", "solve_trajectory_system", "reparametrize.curve"),
    ("scenario", "solve_parametrization", "reparametrize.pace"),
    ("scenario", "reparametrization_check", "reparametrize.check"),
    ("scenario", "check_phi_condition", "conditions.check"),
    ("conditions", "estimate_continuity_constant", "conditions.continuity"),
    ("scenario", "sum_decompose", "spectral_gap.decompose"),
    ("spectral_gap", "gm_membership", "spectral_gap.membership"),
    ("scenario", "write_csv", "artifacts.csv"),
    ("scenario", "write_json", "artifacts.json"),
    ("scenario", "dump_json", "artifacts.json"),
    ("artifacts", "sha256_file", "artifacts.hash"),
    ("scenario", "sha256_text", "artifacts.hash"),
)
# modules whose imported solve_to_samples is rebound; the RHS time counts to
# the layer of the same name
SOLVERS = ("dynamics", "reparametrize")
# calls counted without a span: thousands per norm trace
COUNTS = (
    ("analysis", "gevrey_norm", "norms.gevrey_calls"),
    ("spectral_gap", "gevrey_norm", "norms.gevrey_calls"),
)


class Tracer:
    """Span recorder with rebinding of the package's internal names."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.rhs_time = {}  # solver span index -> time spent in RHS calls
        self.counters = Counter()
        self.op = None
        self.count_grid_forced = False
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span(self, fn, name):
        notes = {
            "scenario.run": self._note_run,
            "artifacts.csv": self._note_csv,
            "conditions.continuity": self._note_continuity,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if notes is not None:
                notes(args, result)
            return result

        return wrapper

    def _note_run(self, args, manifest):
        # the manifest itself is left out: it records the run's wall time
        self.counters["artifacts.bytes"] += sum(a["bytes"] for a in manifest.artifacts)

    def _note_csv(self, args, result):
        _path, _header, columns = args
        self.counters["artifacts.csv_floats"] += sum(len(c) for c in columns)

    def _note_continuity(self, args, result):
        g = len(args[2])
        mb = g * g * 8 / 2**20  # one float64 G x G temporary
        self.counters["conditions.pair_mb"] = max(self.counters["conditions.pair_mb"], mb)

    def _solver(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(rhs, y0, samples, *args, **kwargs):
            acc = [0.0, 0]

            def timed_rhs(t, y):
                start = perf_counter()
                out = rhs(t, y)
                acc[0] += perf_counter() - start
                acc[1] += 1
                return out

            idx = self._open("integrate.solve")
            try:
                res = fn(timed_rhs, y0, samples, *args, **kwargs)
            finally:
                self._close(idx)
                self.rhs_time[idx] = acc[0]
                self.counters[f"{layer}.rhs_s"] += acc[0]
                self.counters[f"{layer}.rhs_calls"] += acc[1]
            c = self.counters
            c["integrate.n_rhs"] += res.n_rhs
            c["integrate.n_accepted"] += res.n_accepted
            c["integrate.n_rejected"] += res.n_rejected
            if self.count_grid_forced:
                # the same problem with only its end point as a sample
                ends = np.asarray(samples, dtype=float)[[0, -1]]
                one = fn(rhs, y0, ends, *args, **kwargs)
                c["integrate.grid_forced_steps"] += res.n_accepted - one.n_accepted
            return res

        return wrapper

    def _count(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- rebinding ---------------------------------------------------------

    def _rebind(self, module_name, attr, wrapper_of):
        module = MODULES[module_name]
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    def install(self):
        for module_name, attr, name in SPANS:
            self._rebind(module_name, attr, lambda fn, n=name: self._span(fn, n))
        for layer in SOLVERS:
            self._rebind(layer, "solve_to_samples", lambda fn, l=layer: self._solver(fn, l))
        for module_name, attr, counter in COUNTS:
            self._rebind(module_name, attr, lambda fn, c=counter: self._count(fn, c))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- metrics -----------------------------------------------------------

    def begin_pass(self):
        """Start a new pass; returns the index of its first span."""
        self.counters = Counter()
        return len(self.spans)

    def pass_metrics(self, first, scale=1.0):
        """Per-layer metrics of the spans recorded since ``first``.

        Times, and the rates derived from them, are multiplied by ``scale``.
        """
        spans = self.spans[first:]
        covered = defaultdict(float)
        for _name, start, end, parent, _op in spans:
            if parent >= first:
                covered[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        bootstrap_evolves = 0
        for i, (name, start, end, parent, _op) in enumerate(spans, first):
            total[name] += end - start
            own[name] += end - start - covered[i] - self.rhs_time.get(i, 0.0)
            calls[name] += 1
            if name == "dynamics.evolve" and parent >= 0 \
                    and self.spans[parent][0] == "reparametrize.curve":
                bootstrap_evolves += 1
        for name in total:
            total[name] *= scale
            own[name] *= scale
        c = self.counters
        steps = c["integrate.n_accepted"] + c["integrate.n_rejected"]
        return {
            "integrate.self_s": own["integrate.solve"],
            "integrate.calls": calls["integrate.solve"],
            "integrate.n_rhs": c["integrate.n_rhs"],
            "integrate.n_accepted": c["integrate.n_accepted"],
            "integrate.n_rejected": c["integrate.n_rejected"],
            "integrate.accept_ratio": c["integrate.n_accepted"] / steps if steps else 0.0,
            "integrate.us_per_rhs": (
                1e6 * own["integrate.solve"] / c["integrate.n_rhs"]
                if c["integrate.n_rhs"] else 0.0
            ),
            "integrate.grid_forced_steps": c["integrate.grid_forced_steps"],
            "integrate.grid_forced_share": (
                c["integrate.grid_forced_steps"] / c["integrate.n_accepted"]
                if c["integrate.n_accepted"] else 0.0
            ),
            "dynamics.rhs_s": c["dynamics.rhs_s"] * scale,
            "dynamics.rhs_calls": c["dynamics.rhs_calls"],
            "dynamics.evolve_s": total["dynamics.evolve"],
            "dynamics.post_s": own["dynamics.evolve"],
            "dynamics.series_s": total["dynamics.series"],
            "analysis.norm_trace_s": total["analysis.norm_trace"],
            "norms.gevrey_calls": c["norms.gevrey_calls"],
            "analysis.dependence_s": total["analysis.dependence"],
            "reparametrize.curve_s": total["reparametrize.curve"],
            "reparametrize.pace_s": total["reparametrize.pace"],
            "reparametrize.check_s": total["reparametrize.check"],
            "reparametrize.bootstrap_evolves": bootstrap_evolves,
            "conditions.check_s": total["conditions.check"],
            "conditions.continuity_s": total["conditions.continuity"],
            "conditions.pair_mb": c["conditions.pair_mb"],
            "spectral_gap.decompose_s": total["spectral_gap.decompose"],
            "spectral_gap.membership_s": total["spectral_gap.membership"],
            "scenario.validate_s": total["scenario.validate"],
            "scenario.self_s": own["scenario.run"],
            "artifacts.csv_s": total["artifacts.csv"],
            "artifacts.csv_floats": c["artifacts.csv_floats"],
            "artifacts.ns_per_float": (
                1e9 * total["artifacts.csv"] / c["artifacts.csv_floats"]
                if c["artifacts.csv_floats"] else 0.0
            ),
            "artifacts.json_s": total["artifacts.json"],
            "artifacts.hash_s": total["artifacts.hash"],
            "artifacts.bytes": c["artifacts.bytes"],
        }
