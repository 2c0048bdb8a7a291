"""Scenario configs and the batch task runner.

A scenario is a JSON document with an explicit version field: a spectrum
spec, a data spec, the (m, omega, phi) functions (inline or by preset
name), exactly one task and its parameters.  Running a scenario executes
the task through the library modules and writes plot-ready CSV/JSON
artifacts plus a manifest with content hashes.  Identical config and tool
version reproduce identical artifact bytes; the manifest additionally
records the wall time, which is the one non-reproducible field.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_HP_MAIN_TOL,
    ScaleTraceConfig,
    classify_degeneracy,
    continuous_dependence_study,
    hamiltonian_reachable_sigma,
    scale_norm_trace,
    uniqueness_condition,
)
from .artifacts import dump_json, sha256_text, write_csv, write_json
from .conditions import DEFAULT_SLOPE_TOL, check_phi_condition, default_sigma_grid
from .dynamics import (
    IntegratorConfig,
    SpectralState,
    Trajectory,
    coefficient_trace,
    evolve,
    hamiltonian_series,
    higher_order_series,
    pohozaev_series,
    relative_drift,
)
from .errors import ScenarioError
from .functions import FunctionSpec, offset, constant
from .presets import get_preset, list_presets
from .reparametrize import (
    psi_initial_derivatives,
    psi_trace,
    reparametrization_check,
    solve_parametrization,
    solve_trajectory_system,
)
from .spectrum import SpectralVector, Spectrum, basis_vector, power_spectrum, zero_vector
from .spectral_gap import DEFAULT_R_PROBE, sum_decompose

CONFIG_VERSION = 1

# params read by _integrator_config, accepted by every task, with their types
_INTEGRATOR_PARAMS = dict.fromkeys(
    ("rel_tol", "abs_tol", "max_step", "dense_output_dt"), float
)


@dataclass(frozen=True)
class Scenario:
    name: str
    spectrum: Spectrum
    u0: SpectralVector
    u1: SpectralVector
    m: FunctionSpec | None
    omega: FunctionSpec | None
    phi: FunctionSpec | None
    task: str
    params: dict
    preset: str | None
    seed: int
    raw: dict


@dataclass(frozen=True)
class RunManifest:
    scenario_hash: str
    tool_version: str
    wall_time_s: float
    artifacts: tuple
    summary: dict

    def to_dict(self) -> dict:
        return {
            "scenario_hash": self.scenario_hash,
            "tool_version": self.tool_version,
            "wall_time_s": self.wall_time_s,
            "artifacts": [dict(a) for a in self.artifacts],
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# parsing and validation


def load_config(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ScenarioError("config must be a JSON object")
    return cfg


@contextmanager
def _field_errors(field: str):
    """Re-raise a malformed entry's error as a ScenarioError naming ``field``.

    AttributeError covers a nested entry that is not an object.
    """
    try:
        yield
    except (ValueError, TypeError, AttributeError) as exc:
        raise ScenarioError(str(exc), field=field) from exc


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "an object"}


def _check_type(value, kind: type, field: str):
    """Return ``value`` if it has JSON type ``kind``, else raise naming ``field``.

    A float may be written as an integer; true and false are not numbers,
    though Python counts them as ints.
    """
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScenarioError(
            f"must be {_TYPE_NAMES[kind]}; got {value!r}", field=field
        )
    return value


def _build_spectrum(spec, field: str) -> Spectrum:
    if not isinstance(spec, dict):
        raise ScenarioError("must be an object", field=field)
    with _field_errors(field):
        if "explicit" in spec:
            return Spectrum(np.asarray(spec["explicit"], dtype=float))
        if "generator" in spec:
            g = spec["generator"]
            return power_spectrum(int(g.get("count", 64)), float(g.get("p", 1.0)))
    raise ScenarioError("needs 'explicit' or 'generator'", field=field)


def _build_vector(spec, spectrum: Spectrum, seed: int, field: str) -> SpectralVector:
    if spec is None or spec == {"zero": True} or spec == "zero":
        return zero_vector(spectrum)
    if not isinstance(spec, dict):
        raise ScenarioError("must be an object or 'zero'", field=field)
    lam = spectrum.lambdas
    # an overflow leaves a non-finite component, which SpectralVector refuses
    with _field_errors(field), np.errstate(over="ignore", divide="ignore",
                                           invalid="ignore"):
        if "explicit" in spec:
            return SpectralVector(spectrum, np.asarray(spec["explicit"], dtype=float))
        if "basis" in spec:
            b = spec["basis"]
            return basis_vector(
                spectrum, int(b.get("index", 0)), float(b.get("amplitude", 1.0))
            )
        if "profile" in spec:
            p = spec["profile"]
            c = float(p.get("amplitude", 1.0))
            gamma = float(p.get("gamma", 1.0))
            q = float(p.get("exponent", 1.0))
            return SpectralVector(spectrum, c * np.exp(-gamma * lam**q))
        if "random" in spec:
            p = spec["random"]
            rng = np.random.default_rng(int(p.get("seed", seed)))
            scale = float(p.get("scale", 1.0))
            decay = float(p.get("decay", 1.5))
            comp = scale * rng.standard_normal(spectrum.n) / np.maximum(lam, 1.0) ** decay
            return SpectralVector(spectrum, comp)
    raise ScenarioError(
        "needs one of 'explicit', 'basis', 'profile', 'random', 'zero'", field=field
    )


def _build_function(spec, field: str) -> FunctionSpec:
    if not isinstance(spec, dict):
        raise ScenarioError("must be a function object", field=field)
    try:
        return FunctionSpec.from_dict(spec)
    except Exception as exc:
        raise ScenarioError(str(exc), field=field) from exc


def validate_scenario(cfg: dict) -> Scenario:
    """Turn a parsed config into a validated scenario or raise ScenarioError."""
    version = cfg.get("version")
    if version != CONFIG_VERSION:
        raise ScenarioError(
            f"expected {CONFIG_VERSION}, got {version!r}", field="version"
        )
    name = cfg.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("a nonempty name is required", field="name")
    task = cfg.get("task")
    if not isinstance(task, str) or task not in TASKS:
        raise ScenarioError(
            f"must be one of {', '.join(TASKS)}; got {task!r}", field="task"
        )
    seed = _check_type(cfg.get("seed", 0), int, "seed")
    spectrum = _build_spectrum(cfg.get("spectrum", {"generator": {}}), "spectrum")

    data = cfg.get("data", {})
    if not isinstance(data, dict):
        raise ScenarioError("must be an object", field="data")
    u0 = _build_vector(data.get("u0"), spectrum, seed, "data.u0")
    u1 = _build_vector(data.get("u1"), spectrum, seed + 1, "data.u1")

    functions = cfg.get("functions", {})
    if not isinstance(functions, dict):
        raise ScenarioError("must be an object", field="functions")
    preset = functions.get("preset")
    m = omega = phi = None
    if preset is not None:
        try:
            bundle = get_preset(str(preset))
        except KeyError as exc:
            raise ScenarioError(str(exc), field="functions.preset") from exc
        m, omega, phi = bundle.m, bundle.omega, bundle.phi
    if "m" in functions:
        m = _build_function(functions["m"], "functions.m")
    if "omega" in functions:
        omega = _build_function(functions["omega"], "functions.omega")
    if "phi" in functions:
        phi = _build_function(functions["phi"], "functions.phi")

    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("must be an object", field="params")

    entry = TASKS[task]
    slots = {"m": m, "omega": omega, "phi": phi}
    for slot in entry.functions:
        if slots[slot] is None:
            raise ScenarioError(
                "task needs this function, inline or from a preset",
                field=f"functions.{slot}",
            )
    for key in entry.required:
        if key not in params:
            raise ScenarioError("task needs this parameter", field=f"params.{key}")
    readable = {**entry.params, **_INTEGRATOR_PARAMS}
    for key, value in params.items():
        if key not in readable:
            raise ScenarioError(
                f"not a parameter of task {task}; it reads "
                f"{', '.join(sorted(readable))}",
                field=f"params.{key}",
            )
        _check_type(value, readable[key], f"params.{key}")
    for key in (*_INTEGRATOR_PARAMS, "s_max"):
        if key in params and not params[key] > 0.0:
            raise ScenarioError(
                f"must be > 0; got {params[key]!r}", field=f"params.{key}"
            )
    t_start = params.get("t_start", 0.0)
    if "t_end" in params and not params["t_end"] > t_start:
        raise ScenarioError(
            f"must exceed t_start = {t_start!r}; got {params['t_end']!r}",
            field="params.t_end",
        )
    sc = Scenario(
        name=name,
        spectrum=spectrum,
        u0=u0,
        u1=u1,
        m=m,
        omega=omega,
        phi=phi,
        task=task,
        params=dict(params),
        preset=str(preset) if preset is not None else None,
        seed=seed,
        raw=cfg,
    )
    if entry.check is not None:
        entry.check(sc)
    return sc


def _integrator_config(params: dict, tolerance_scale: float) -> IntegratorConfig:
    """IntegratorConfig's defaults overridden by the params, tolerances scaled."""
    given = {k: float(params[k]) for k in _INTEGRATOR_PARAMS if k in params}
    cfg = replace(IntegratorConfig(), **given)
    return replace(cfg, rel_tol=cfg.rel_tol * tolerance_scale,
                   abs_tol=cfg.abs_tol * tolerance_scale)


# ---------------------------------------------------------------------------
# task implementations; each returns (artifact dict, summary dict)


def _write_trajectory(out: Path, tr: Trajectory) -> str:
    n = tr.spectrum.n
    header = ["t"] + [f"u_{k+1}" for k in range(n)] + [f"v_{k+1}" for k in range(n)]
    write_csv(out / "trajectory.csv", header, [tr.t, *tr.u.T, *tr.v.T])
    return "trajectory.csv"


def _task_simulate(sc: Scenario, out: Path, cfg: IntegratorConfig):
    state = SpectralState(t=float(sc.params.get("t_start", 0.0)), u=sc.u0, v=sc.u1)
    tr = evolve(state, sc.m, cfg, float(sc.params["t_end"]))
    files = [_write_trajectory(out, tr)]
    ham = hamiltonian_series(tr, sc.m)
    hi = higher_order_series(tr)
    trace = coefficient_trace(tr, sc.m)
    summary = {
        "task": "simulate",
        "samples": tr.n_samples,
        "hamiltonian": ham,
        "higher_order_energy": hi,
        "hamiltonian_drift": relative_drift(ham),
        "coefficient_modulus_profile": {
            "delta": trace.modulus_deltas,
            "max_increment": trace.modulus_values,
        },
        "integrator_meta": tr.meta.to_dict(),
    }
    write_json(out / "trajectory_summary.json", summary)
    files.append("trajectory_summary.json")
    return files, {
        "status": tr.meta.status,
        "hamiltonian_drift": relative_drift(ham),
    }


def _task_norms(sc: Scenario, out: Path, cfg: IntegratorConfig):
    state = SpectralState(t=0.0, u=sc.u0, v=sc.u1)
    tr = evolve(state, sc.m, cfg, float(sc.params["t_end"]))
    phi = sc.phi if sc.phi is not None else constant(1.0)
    trace_cfg = ScaleTraceConfig(
        phi=phi,
        r0=float(sc.params.get("r0", 1.0)),
        big_r=float(sc.params.get("R", 0.0)),
        alpha=float(sc.params.get("alpha", 0.25)),
    )
    trace = scale_norm_trace(tr, trace_cfg)
    write_csv(
        out / "norm_trace.csv",
        ["t", "radius", "u_norm", "v_norm"],
        [trace.t, trace.radii, trace.u_norms, trace.v_norms],
    )
    return ["norm_trace.csv"], {
        "status": tr.meta.status,
        "max_u_norm": float(np.max(trace.u_norms)),
        "max_v_norm": float(np.max(trace.v_norms)),
    }


def _conditions_mode(sc: Scenario) -> str:
    """params.mode, else the preset's mode; either way 'strict' or 'weak'."""
    mode = sc.params.get("mode")
    if mode is None and sc.preset is not None:
        mode = get_preset(sc.preset).mode
    if mode not in ("strict", "weak"):
        raise ScenarioError(
            f"needs 'strict' or 'weak', given here or by a preset; got {mode!r}",
            field="params.mode",
        )
    return mode


def _task_conditions(sc: Scenario, out: Path, cfg: IntegratorConfig):
    p = sc.params
    grid = default_sigma_grid(
        float(p.get("grid_lo", 1e-6)),
        float(p.get("grid_hi", 1e6)),
        int(p.get("per_decade", 512)),
    )
    report = check_phi_condition(
        sc.omega, sc.phi, _conditions_mode(sc), grid,
        slope_tol=float(p.get("slope_tol", DEFAULT_SLOPE_TOL)),
    )
    payload = {
        "mode": report.mode,
        "lambda_estimate": report.lambda_estimate,
        "worst_sigma": report.worst_sigma,
        "passed": report.passed,
        "samples": report.samples,
        "trend_slope": report.trend_slope,
        "omega": sc.omega.to_dict(),
        "phi": sc.phi.to_dict(),
        "preset": sc.preset,
    }
    write_json(out / "condition_report.json", payload)
    return ["condition_report.json"], {"passed": report.passed,
                                       "lambda_estimate": report.lambda_estimate}


def _task_uniqueness(sc: Scenario, out: Path, cfg: IntegratorConfig):
    tol = float(sc.params.get("tol", DEFAULT_HP_MAIN_TOL))
    rep = uniqueness_condition(sc.u0, sc.u1, sc.m, tol)
    d1, d2 = psi_initial_derivatives(sc.u0, sc.u1, sc.m)
    payload = {
        "as1": rep.as1,
        "as2": rep.as2,
        "hp_main_holds": rep.hp_main_holds,
        "tol": rep.tol,
        "psi_prime0": d1,
        "psi_second0": d2,
    }
    write_json(out / "uniqueness_report.json", payload)
    return ["uniqueness_report.json"], {"hp_main_holds": rep.hp_main_holds}


def _check_pohozaev(sc: Scenario) -> None:
    """params.pohozaev, when given, carries the numbers 'a' and 'b'."""
    poho = sc.params.get("pohozaev")
    if poho is not None:
        for key in ("a", "b"):
            _check_type(poho.get(key), float, f"params.pohozaev.{key}")


def _task_invariants(sc: Scenario, out: Path, cfg: IntegratorConfig):
    state = SpectralState(t=0.0, u=sc.u0, v=sc.u1)
    tr = evolve(state, sc.m, cfg, float(sc.params["t_end"]))
    ham = hamiltonian_series(tr, sc.m)
    hi = higher_order_series(tr)
    header = ["t", "hamiltonian", "higher_order_energy"]
    cols = [tr.t, ham, hi]
    drifts = {"hamiltonian": relative_drift(ham)}
    poho = sc.params.get("pohozaev")
    if poho is None and sc.m is not None and sc.m.kind == "pohozaev":
        poho = {"a": sc.m.params["a"], "b": sc.m.params["b"]}
    if poho is not None:
        series = pohozaev_series(tr, float(poho["a"]), float(poho["b"]))
        header.append("pohozaev")
        cols.append(series)
        drifts["pohozaev"] = relative_drift(series)
    write_csv(out / "invariants.csv", header, cols)
    sigma_hi = hamiltonian_reachable_sigma(sc.u0, sc.u1, sc.m)
    degeneracy = classify_degeneracy(
        sc.m, sc.u0, np.linspace(0.0, sigma_hi, 513)
    )
    payload = {"drifts": drifts, "degeneracy": degeneracy.value,
               "integrator_meta": tr.meta.to_dict()}
    write_json(out / "invariants_report.json", payload)
    return ["invariants.csv", "invariants_report.json"], {
        "status": tr.meta.status,
        "drifts": drifts,
    }


def _task_decompose(sc: Scenario, out: Path, cfg: IntegratorConfig):
    alpha = float(sc.params.get("alpha", 0.25))
    beta = float(sc.params.get("beta", 2.0))
    dec = sum_decompose(
        sc.u0, sc.u1, sc.phi, alpha, beta,
        r_probe=float(sc.params.get("r_probe", DEFAULT_R_PROBE)),
    )
    reports = dec.membership_reports()
    payload = {
        "s_values": list(dec.s_values),
        "bar_bands": [list(b) for b in dec.bar_bands],
        "hat_bands": [list(b) for b in dec.hat_bands],
        "rho_bar": list(dec.rho_bar),
        "rho_hat": list(dec.rho_hat),
        "alpha": alpha,
        "beta": beta,
        "membership": {k: bool(v.member) for k, v in reports.items()},
        "margins": {k: v.margins for k, v in reports.items()},
    }
    write_json(out / "decomposition.json", payload)
    lam = sc.spectrum.lambdas
    write_csv(out / "part_bar.csv", ["lambda", "u0", "u1"],
              [lam, dec.u0_bar.components, dec.u1_bar.components])
    write_csv(out / "part_hat.csv", ["lambda", "u0", "u1"],
              [lam, dec.u0_hat.components, dec.u1_hat.components])
    return ["decomposition.json", "part_bar.csv", "part_hat.csv"], {
        "all_member": all(r.member for r in reports.values())
    }


def _task_reparametrize(sc: Scenario, out: Path, cfg: IntegratorConfig):
    t_end = float(sc.params.get("t_end", 1.0))
    state = SpectralState(t=0.0, u=sc.u0, v=sc.u1)
    tr = evolve(state, sc.m, cfg, t_end)
    pt = psi_trace(tr, sc.u0)
    s_max = sc.params.get("s_max")
    if s_max is None:
        s_max = 0.95 * float(np.max(np.abs(pt.psi)))
    curve = solve_trajectory_system(sc.u0, sc.u1, sc.m, float(s_max), cfg)
    recovered = solve_parametrization(curve, t_end, cfg)
    check = reparametrization_check(tr, curve, sc.u0)
    n = sc.spectrum.n
    write_csv(
        out / "scurve.csv",
        ["s"] + [f"z_{k+1}" for k in range(n)] + [f"w_{k+1}" for k in range(n)],
        [curve.s, *curve.z.T, *curve.w.T],
    )
    write_csv(out / "psi_trace.csv", ["t", "psi", "f"], [pt.t, pt.psi, pt.f])
    write_csv(out / "psi_recovered.csv", ["t", "psi", "f"],
              [recovered.t, recovered.psi, recovered.f])
    payload = {
        "branch": curve.branch,
        "direction": curve.direction,
        "psi_prime0": curve.psi_prime0,
        "psi_second0": curve.psi_second0,
        "max_deviation": check.max_deviation,
        "worst_t": check.worst_t,
        "n_compared": check.n_compared,
    }
    write_json(out / "reparametrization_report.json", payload)
    return [
        "scurve.csv",
        "psi_trace.csv",
        "psi_recovered.csv",
        "reparametrization_report.json",
    ], {"status": tr.meta.status, "max_deviation": check.max_deviation}


def _dependence_family(sc: Scenario) -> tuple[str, list, int]:
    """params.family as (kind, values, mode_index), each checked."""
    family = sc.params.get(
        "family", {"kind": "m_offset", "values": [0.25, 0.125, 0.0625]}
    )
    kind = family.get("kind", "m_offset")
    if kind not in ("m_offset", "data_shift"):
        raise ScenarioError(
            f"must be 'm_offset' or 'data_shift'; got {kind!r}",
            field="params.family.kind",
        )
    values = family.get("values")
    if not isinstance(values, list) or not values:
        raise ScenarioError(
            f"needs a nonempty list; got {values!r}", field="params.family.values"
        )
    for v in values:
        _check_type(v, float, "params.family.values")
    idx = _check_type(family.get("mode_index", 0), int, "params.family.mode_index")
    if not 0 <= idx < sc.spectrum.n:
        raise ScenarioError(
            f"must lie in [0, {sc.spectrum.n}); got {idx}",
            field="params.family.mode_index",
        )
    return kind, [float(v) for v in values], idx


def _task_dependence(sc: Scenario, out: Path, cfg: IntegratorConfig):
    p = sc.params
    kind, values, idx = _dependence_family(sc)
    problems = []
    if kind == "m_offset":
        problems = [(offset(v, sc.m), sc.u0, sc.u1) for v in values]
    else:
        for v in values:
            comp = sc.u0.components.copy()
            comp[idx] += v
            problems.append((sc.m, SpectralVector(sc.spectrum, comp), sc.u1))
    report = continuous_dependence_study(
        problems, (sc.m, sc.u0, sc.u1), cfg, float(p.get("t_end", 1.0)),
        omega=sc.omega,
    )
    payload = {
        "values": values,
        "kind": kind,
        "deviations": report.deviations,
        "data_distances": [e.data_distance for e in report.entries],
        "m_distances": [e.m_distance for e in report.entries],
        "continuity_constants": list(report.continuity_constants),
        "fitted_slope_vs_input": report.fitted_slope_vs_data,
    }
    write_json(out / "dependence_report.json", payload)
    return ["dependence_report.json"], {
        "status": report.status,
        "fitted_slope_vs_input": report.fitted_slope_vs_data,
    }


@dataclass(frozen=True)
class _Task:
    """A task's runner with the inputs it needs and the params it reads.

    ``params`` maps each param to its JSON type (``float`` for any number).
    ``check`` validates the scenario's params beyond their types.
    """

    run: Callable[[Scenario, Path, IntegratorConfig], tuple]
    functions: tuple[str, ...]
    params: dict[str, type]
    required: tuple[str, ...] = ()
    check: Callable[[Scenario], object] | None = None


TASKS = {
    "simulate": _Task(
        _task_simulate, ("m",), {"t_start": float, "t_end": float}, ("t_end",)
    ),
    "norms": _Task(
        _task_norms,
        ("m",),
        {"t_end": float, "r0": float, "R": float, "alpha": float},
        ("t_end",),
    ),
    "conditions": _Task(
        _task_conditions,
        ("omega", "phi"),
        {"mode": str, "grid_lo": float, "grid_hi": float, "per_decade": int,
         "slope_tol": float},
        check=_conditions_mode,
    ),
    "uniqueness": _Task(_task_uniqueness, ("m",), {"tol": float}),
    "invariants": _Task(
        _task_invariants,
        ("m",),
        {"t_end": float, "pohozaev": dict},
        ("t_end",),
        check=_check_pohozaev,
    ),
    "decompose": _Task(
        _task_decompose, ("phi",), {"alpha": float, "beta": float, "r_probe": float}
    ),
    "reparametrize": _Task(
        _task_reparametrize, ("m",), {"t_end": float, "s_max": float}
    ),
    "dependence": _Task(
        _task_dependence, ("m",), {"t_end": float, "family": dict},
        check=_dependence_family,
    ),
}


# ---------------------------------------------------------------------------
# runner


def run_scenario(
    config,
    out_dir=None,
    tolerance_scale: float = 1.0,
    seed: int | None = None,
) -> RunManifest:
    """Execute one scenario and write its artifacts plus manifest.json.

    ``config`` is a path or an already-parsed dict.  Task failures write a
    machine-readable error.json into the output directory before the
    exception propagates; an invalid config or ``tolerance_scale`` is
    refused before the directory is made.
    """
    if not 0.0 < tolerance_scale < math.inf:
        raise ScenarioError(
            f"must be positive and finite; got {tolerance_scale!r}",
            field="tolerance_scale",
        )
    cfg_dict = load_config(config) if not isinstance(config, dict) else dict(config)
    if seed is not None:
        cfg_dict["seed"] = int(seed)
    sc = validate_scenario(cfg_dict)
    icfg = _integrator_config(sc.params, tolerance_scale)

    out = Path(out_dir) if out_dir is not None else Path(
        sc.raw.get("output_dir", Path("runs") / sc.name)
    )
    out.mkdir(parents=True, exist_ok=True)
    # a rerun must not leave the last run's outcome beside its own
    for stale in ("manifest.json", "error.json"):
        (out / stale).unlink(missing_ok=True)
    scenario_hash = sha256_text(dump_json(cfg_dict))

    started = time.perf_counter()
    try:
        files, summary = TASKS[sc.task].run(sc, out, icfg)
    except Exception as exc:
        write_json(
            out / "error.json",
            {
                "error": type(exc).__name__,
                "message": str(exc),
                "task": sc.task,
                "scenario": sc.name,
            },
        )
        raise
    wall = time.perf_counter() - started

    from .artifacts import sha256_file

    entries = []
    for name in files:
        path = out / name
        entries.append(
            {
                "name": name,
                "sha256": sha256_file(path),
                "bytes": path.stat().st_size,
            }
        )
    # ok unless the task reports an integrator status other than completed
    ok = summary.get("status", "completed") == "completed"
    manifest = RunManifest(
        scenario_hash=scenario_hash,
        tool_version=__version__,
        wall_time_s=wall,
        artifacts=tuple(entries),
        summary={"ok": ok, "task": sc.task, "name": sc.name, **summary},
    )
    write_json(out / "manifest.json", manifest.to_dict())
    return manifest


def preset_catalog() -> list[dict]:
    return [b.to_dict() for b in list_presets()]
