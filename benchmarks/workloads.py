"""The benchmark's three seeded workloads: inputs, operations and checks.

``build(name, seed, size, ...)`` makes a workload's inputs from the seed and
validates them; that is the set-up the benchmark times.  A pass then runs
every operation once, in a fixed order.  Operations reach the package only
through its module attributes, looked up at call time, so a traced pass sees
the names that ``tracing`` rebinds.

Every operation has a check.  A failed check counts the operation as failed.
Checks marked ``hard`` hold for every input (hashes, byte identity,
closed-form oracle, verdicts); a hard failure also makes the run incorrect.
The Hamiltonian drift budget of the acceptance suite is the one soft check:
power(2) on normalized random data exceeds it for some seeds (see NOTES.md).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kirchhoff_spectral import dynamics, functions, presets, scenario, spectrum

DRIFT_BUDGET = 1e-7  # acceptance criterion 2
ORACLE_TOL = 1e-8  # acceptance criterion 1
REPARAM_TOL = 1e-5  # acceptance criterion 7
TOL = 1e-10  # integrator tolerances of the acceptance suite

# one full-size warm pass at the reference speed, in seconds: it sets how
# many passes a run of --seconds makes
PASS_S = {"sweep": 5.3, "wide": 4.0, "scenarios": 1.8}
BUNDLED = ("energy_drift", "single_mode_cubic", "spectral_gap_split", "table1_lipschitz")
# the weak-mode presets a seed picks from, pinned so that a change to the
# catalog cannot change which preset a seed runs; build fails if one is gone
WEAK_PRESETS = ("table2_analytic", "table2_holder_beta", "table2_lipschitz",
                "table4_holder_log", "table4_lipschitz_log")


@dataclass(frozen=True)
class Size:
    sweep_modes: int
    sweep_t_end: float
    sweep_per_kind: int  # problems per nonlinearity
    sweep_const_pairs: int  # data pairs for the constant(c) oracle problems
    wide_modes: int
    wide_t_end: float


SIZES = {
    "full": Size(32, 10.0, 4, 2, 512, 2.0),
    "tiny": Size(4, 1.0, 1, 1, 16, 0.2),
}


@dataclass
class Op:
    """One timed operation and the check of what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    """What one pass of one operation produced, as the checks saw it."""

    failures: list  # [(hard, message), ...]
    drifts: list  # relative Hamiltonian drifts of nonlinear integrations
    hashes: dict  # artifact name -> sha256, compared across passes


# ---------------------------------------------------------------------------
# sweep: many small independent evolve calls (acceptance criteria 1 and 2)


def normalized_data(rng, spec, sigma0=1.0, speed=1.0):
    """Random data with |A^(1/2)u0|^2 = sigma0 and |u1| = speed.

    The same construction as the acceptance suite's criterion 2.
    """
    lam = spec.lambdas
    u0 = rng.standard_normal(spec.n) / lam**1.5
    u0 *= math.sqrt(sigma0 / float(lam**2 @ u0**2))
    u1 = rng.standard_normal(spec.n) / lam**0.5
    u1 *= speed / float(np.linalg.norm(u1))
    return spectrum.SpectralVector(spec, u0), spectrum.SpectralVector(spec, u1)


def _nonlinear_op(name, state, m, cfg, t_end, drift_budget):
    def run():
        tr = dynamics.evolve(state, m, cfg, t_end)
        drift = dynamics.relative_drift(dynamics.hamiltonian_series(tr, m))
        return tr.meta.status, drift

    def check(result):
        status, drift = result
        failures = []
        if status != "completed":
            failures.append((True, f"{name}: status {status}"))
        if not drift <= drift_budget:
            failures.append((False, f"{name}: drift {drift:.3e} > {drift_budget:g}"))
        return Outcome(failures, [drift], {})

    return Op(name, run, check)


def _oracle_op(name, state, c, cfg, t_end):
    lam = state.spectrum.lambdas
    u0 = state.u.components
    u1 = state.v.components
    m = functions.constant(c)

    def run():
        return dynamics.evolve(state, m, cfg, t_end)

    def check(tr):
        failures = []
        if tr.meta.status != "completed":
            failures.append((True, f"{name}: status {tr.meta.status}"))
        w = lam * math.sqrt(c)
        wt = np.outer(tr.t, w)
        ue = u0 * np.cos(wt) + u1 * np.sin(wt) / w
        ve = -u0 * w * np.sin(wt) + u1 * np.cos(wt)
        err = max(float(np.max(np.abs(tr.u - ue))), float(np.max(np.abs(tr.v - ve))))
        if not err <= ORACLE_TOL:
            failures.append((True, f"{name}: oracle error {err:.3e} > {ORACLE_TOL:g}"))
        return Outcome(failures, [], {})

    return Op(name, run, check)


def build_sweep(seed, size, drift_budget):
    spec = spectrum.power_spectrum(size.sweep_modes)
    cfg = dynamics.IntegratorConfig(rel_tol=TOL, abs_tol=TOL)
    rng = np.random.default_rng(seed)
    kinds = (
        ("affine", functions.affine(1.0, 1.0)),
        ("power1", functions.power(1.0)),
        ("power2", functions.power(2.0)),
        ("pohozaev", functions.pohozaev(1.0, 1.0)),
    )
    ops = []
    for i in range(size.sweep_per_kind):
        for kind, m in kinds:
            u0, u1 = normalized_data(rng, spec)
            state = dynamics.SpectralState(t=0.0, u=u0, v=u1)
            ops.append(
                _nonlinear_op(f"{kind}-{i}", state, m, cfg, size.sweep_t_end, drift_budget)
            )
    for i in range(size.sweep_const_pairs):
        u0, u1 = normalized_data(rng, spec)
        state = dynamics.SpectralState(t=0.0, u=u0, v=u1)
        for c in (1.0, 4.0):
            ops.append(_oracle_op(f"constant{c:g}-{i}", state, c, cfg, 1.0))
    return ops


# ---------------------------------------------------------------------------
# scenario runs: wide and scenarios


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _manifest_hashes(name, manifest, out):
    """Artifact hashes from the manifest, each checked against the file."""
    failures = []
    hashes = {}
    for entry in manifest.artifacts:
        data = (out / entry["name"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            failures.append((True, f"{name}: manifest sha256 of {entry['name']} "
                                   f"does not match the file"))
        hashes[entry["name"]] = entry["sha256"]
    return failures, hashes


def _task_checks(name, task, summary, out, expect, drift_budget):
    """Per-task output checks; returns (failures, drifts)."""
    failures = []
    drifts = []

    def need(ok, message, hard=True):
        if not ok:
            failures.append((hard, f"{name}: {message}"))

    if task == "simulate":
        need(summary["status"] == "completed", f"status {summary['status']}")
        drifts.append(summary["hamiltonian_drift"])
    elif task == "invariants":
        report = _read_json(out / "invariants_report.json")
        status = report["integrator_meta"]["status"]
        need(status == "completed", f"status {status}")
        drifts.append(summary["drifts"]["hamiltonian"])
    elif task == "norms":
        rows = (out / "norm_trace.csv").read_text(encoding="utf-8").count("\n") - 1
        need(rows == expect["rows"], f"{rows} norm samples, expected {expect['rows']}")
    elif task == "uniqueness":
        rep = _read_json(out / "uniqueness_report.json")
        need(rep["psi_prime0"] == 2.0 * rep["as1"]
             and rep["psi_second0"] == 2.0 * rep["as2"],
             "psi derivatives differ from 2*(as1, as2)")
    elif task == "dependence":
        rep = _read_json(out / "dependence_report.json")
        dev = rep["deviations"]
        need(dev[0] > dev[-1], f"deviations do not shrink with the family: {dev}")
    elif task == "reparametrize":
        rep = _read_json(out / "reparametrization_report.json")
        need(rep["branch"] == expect["branch"],
             f"branch {rep['branch']}, expected {expect['branch']}")
        need(rep["max_deviation"] <= REPARAM_TOL,
             f"max_deviation {rep['max_deviation']:.3e} > {REPARAM_TOL:g}")
    elif task == "decompose":
        need(summary["all_member"] is True, "decomposition parts not all members")
    elif task == "conditions":
        need(summary["passed"] == expect["passed"],
             f"verdict {summary['passed']}, preset expects {expect['passed']}")
    for d in drifts:
        need(d <= drift_budget, f"drift {d:.3e} > {drift_budget:g}", hard=False)
    return failures, drifts


def _scenario_op(name, config, out, task, expect, golden, drift_budget):
    """One run_scenario call; ``config`` is a path or a config dict."""

    def run():
        return scenario.run_scenario(config, out_dir=out)

    def check(manifest):
        failures, hashes = _manifest_hashes(name, manifest, out)
        if golden is not None and hashes != golden:
            failures.append((True, f"{name}: artifact hashes differ from golden"))
        more, drifts = _task_checks(name, task, manifest.summary, out, expect,
                                    drift_budget)
        return Outcome(failures + more, drifts, hashes)

    return Op(name, run, check)


def _add_scenario(ops, work_dir, cfg, expect, drift_budget, path=None, golden=None):
    """Validate a config (part of set-up) and append its operation."""
    sc = scenario.validate_scenario(cfg)
    ops.append(_scenario_op(sc.name, path or cfg, work_dir / sc.name, sc.task,
                            expect, golden, drift_budget))


def explicit_data(rng, n_modes):
    """A config's data section: normalized random data as explicit components.

    The config's own "random" data has no normalization, so |A^(1/2)u0|^2,
    and with it the step count, would change several-fold with the seed.
    """
    u0, u1 = normalized_data(rng, spectrum.power_spectrum(n_modes))
    return {"u0": {"explicit": u0.components.tolist()},
            "u1": {"explicit": u1.components.tolist()}}


def build_wide(seed, size, work_dir, drift_budget):
    rng = np.random.default_rng(seed)
    base = {
        "version": 1,
        "spectrum": {"generator": {"count": size.wide_modes}},
        "data": explicit_data(rng, size.wide_modes),
        "functions": {
            "m": {"kind": "affine", "a": 1.0, "b": 1.0},
            "phi": {"kind": "weight_power_log", "p": 0.5, "ell": 0.0},
        },
    }
    t_end = size.wide_t_end
    ops = []
    _add_scenario(ops, work_dir, dict(base, name="wide_simulate", task="simulate",
                                      params={"t_end": t_end}), {}, drift_budget)
    _add_scenario(ops, work_dir, dict(base, name="wide_norms", task="norms",
                                      params={"t_end": t_end, "r0": 1.0, "R": 0.25,
                                              "alpha": 0.25}),
                  {"rows": 1001}, drift_budget)
    return ops


def build_scenarios(seed, root, work_dir, golden, drift_budget):
    """The four bundled scenarios plus one seeded config per other task."""
    rng = np.random.default_rng(seed)
    ops = []
    for name in BUNDLED:
        path = root / "scenarios" / f"{name}.json"
        cfg = scenario.load_config(path)
        expect = {}
        if cfg["task"] == "conditions":
            expect["passed"] = not presets.get_preset(cfg["functions"]["preset"]).loss_regime
        _add_scenario(ops, work_dir, cfg, expect, drift_budget, path=str(path),
                      golden=golden[name])

    seeded = {"version": 1, "spectrum": {"generator": {"count": 16}},
              "data": explicit_data(rng, 16)}
    _add_scenario(ops, work_dir, dict(
        seeded, name="seeded_norms", task="norms",
        functions={"m": {"kind": "affine", "a": 1.0, "b": 1.0},
                   "phi": {"kind": "weight_power_log", "p": 1.0, "ell": 0.0}},
        params={"t_end": 1.0, "r0": 1.0, "R": 0.5, "alpha": 0.25}),
        {"rows": 1001}, drift_budget)
    _add_scenario(ops, work_dir, dict(
        seeded, name="seeded_uniqueness", task="uniqueness",
        functions={"m": {"kind": "power", "beta": 1.0}}, params={}), {}, drift_budget)
    _add_scenario(ops, work_dir, dict(
        seeded, name="seeded_dependence", task="dependence",
        spectrum={"generator": {"count": 4}}, data=explicit_data(rng, 4),
        functions={"m": {"kind": "affine", "a": 1.0, "b": 1.0}},
        params={"t_end": 1.0,
                "family": {"kind": "m_offset", "values": [0.25, 0.125, 0.0625]}}),
        {}, drift_budget)

    # single unit mode, m = c: psi(t) is monotone up to t = pi / (4 sqrt c) on
    # the direct branch and pi / (2 sqrt c) on the bootstrap branch
    amp = float(rng.uniform(0.75, 1.25))
    c = float(rng.uniform(0.8, 1.25))
    for branch, u1, t_end in (
        ("direct", {"basis": {"index": 0, "amplitude": amp * math.sqrt(c)}},
         0.7 / math.sqrt(c)),
        ("bootstrap", "zero", 1.1 / math.sqrt(c)),
    ):
        _add_scenario(ops, work_dir, {
            "version": 1, "name": f"seeded_reparametrize_{branch}",
            "spectrum": {"explicit": [1.0]},
            "data": {"u0": {"basis": {"index": 0, "amplitude": amp}}, "u1": u1},
            "functions": {"m": {"kind": "constant", "c": c}},
            "task": "reparametrize", "params": {"t_end": t_end},
        }, {"branch": branch}, drift_budget)

    catalog = {b.name for b in presets.list_presets() if b.mode == "weak"}
    missing = [name for name in WEAK_PRESETS if name not in catalog]
    if missing:
        raise ValueError(f"not weak-mode presets of the catalog: {missing}")
    weak = WEAK_PRESETS[int(rng.integers(len(WEAK_PRESETS)))]
    _add_scenario(ops, work_dir, {
        "version": 1, "name": "seeded_conditions_weak",
        "spectrum": {"explicit": [1.0]}, "data": {"u0": "zero", "u1": "zero"},
        "functions": {"preset": weak}, "task": "conditions", "params": {},
    }, {"passed": not presets.get_preset(weak).loss_regime}, drift_budget)
    return ops


def build(name, seed, size_name, root, work_dir, golden, drift_budget=DRIFT_BUDGET):
    size = SIZES[size_name]
    if name == "sweep":
        return build_sweep(seed, size, drift_budget)
    if name == "wide":
        return build_wide(seed, size, work_dir, drift_budget)
    if name == "scenarios":
        return build_scenarios(seed, root, work_dir, golden, drift_budget)
    raise ValueError(f"unknown workload {name!r}")
