"""Scenario configs and the batch task runner.

A scenario is a JSON document with an explicit version field: a spectrum
spec, a data spec, the (m, omega, phi) functions (inline or by preset
name), exactly one task and its parameters.  Running a scenario executes
the task, which returns plot-ready CSV/JSON artifacts; the runner alone
writes them plus a manifest with content hashes.  Identical config and tool
version reproduce identical artifact bytes; the manifest additionally
records the wall time, which is the one non-reproducible field.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    classify_degeneracy,
    continuous_dependence_study,
    scale_norm_trace,
    uniqueness_condition,
)
from .artifacts import blas_core, dump_json, sha256_text, write_csv, write_json
from .conditions import check_phi_condition, default_sigma_grid
from .dynamics import (
    IntegratorConfig,
    SpectralState,
    coefficient_trace,
    evolve,
    hamiltonian_series,
    higher_order_series,
    pohozaev_series,
    relative_drift,
    sample_grid,
    sample_intervals,
)
from .errors import DomainError, PreconditionError, ScenarioError
from .functions import RULES, FunctionSpec, antiderivative, constant, offset, weight_values
from .presets import get_preset
from .reparametrize import (
    _monotone_prefix,
    curve_branch,
    psi_initial_derivatives,
    psi_trace,
    reparametrization_check,
    solve_parametrization,
    solve_trajectory_system,
)
from .spectrum import (
    SpectralVector, Spectrum, a_half_norm_sq, basis_vector, power_spectrum, zero_vector,
)
from .spectral_gap import sum_decompose

CONFIG_VERSION = 1
REQUIRED = object()  # the default of a key that the config must give
S_MAX_SHARE = 0.95  # the curve lands on the shift's first rise up to this share of its top
# the most floats a config may ask the sample tables to hold, 128 MiB of
# float64: samples x (2n + 1) (times, u and v) per trajectory; a generated
# spectrum's count must leave room for one sample row
MAX_SAMPLE_FLOATS = 1 << 24
# the forms of a spectrum or vector spec, each with the keys of its object as
# in _Task.params (None: its value is not an object); the random form draws
# u0 from the scenario's seed and u1 from seed + 1
_SPECTRUM_FORMS = {
    "explicit": None,
    "generator": {"count": (64, int, "positive"), "p": (1.0, float, None)},
}
_VECTOR_FORMS = {
    "explicit": None,
    "basis": {"index": (0, int, None), "amplitude": (1.0, float, None)},
    "profile": {"amplitude": (1.0, float, None), "gamma": (1.0, float, None),
                "exponent": (1.0, float, None)},
    "random": {"scale": (1.0, float, None), "decay": (1.5, float, None)},
}

# params that set Scenario.integrator, accepted by each task that integrates
# (has t_end), declared as in _Task.params; a None default keeps IntegratorConfig's
_INTEGRATOR_PARAMS = {
    "rel_tol": (None, float, "positive"),
    "abs_tol": (None, float, "positive"),
    "dense_output_dt": (None, float, "positive_or_inf"),
}
# the object that _check_family resolves, declared alike
_FAMILY = {
    "kind": ("m_offset", str, (("m_offset", "data_shift").__contains__,
                               "must be 'm_offset' or 'data_shift'")),
    "values": (REQUIRED, list, (bool, "needs a nonempty list")),
    "mode_index": (0, int, None),
}


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
    config: dict = field(repr=False)  # the parsed config validated, as scenario_hash hashes it
    integrator: IntegratorConfig | None = field(init=False, repr=False)  # None: no t_end

    def __post_init__(self):  # IntegratorConfig's defaults, overridden by the params given
        given = {k: self.params[k] for k in _INTEGRATOR_PARAMS if self.params.get(k) is not None}
        object.__setattr__(self, "integrator",
                           IntegratorConfig(**given) if "t_end" in self.params else None)


@dataclass(frozen=True)
class RunManifest:
    scenario_hash: str
    tool_version: str
    numpy_version: str  # with blas_core, what the artifact bytes also depend on
    blas_core: str
    wall_time_s: float
    artifacts: tuple
    summary: dict

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# parsing and validation


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
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

    AttributeError covers a nested entry that is not an object, OverflowError
    a number too large for a float.
    """
    try:
        yield
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ScenarioError(str(exc), field=field) from exc


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "an object",
               list: "a list"}


def _check_value(value, kind: type, field: str, rule=None):
    """``value``, checked for JSON type ``kind`` and ``rule``; a failure names ``field``.

    ``rule`` names an entry of ``RULES`` or is a (holds, text) pair of its
    own.  A float may be written as an integer and comes back as a float;
    true and false are not numbers, though Python counts them as ints.
    """
    types = (int, float) if kind is float else kind
    _require(not isinstance(value, bool) and isinstance(value, types), field, value,
             f"must be {_TYPE_NAMES[kind]}")
    if kind is float and type(value) is not float:
        with _field_errors(field):
            value = float(value)
    if rule is not None:
        holds, text = RULES[rule] if isinstance(rule, str) else rule
        _require(holds(value), field, value, text)
    return value


def _require(ok: bool, field: str, value, text: str) -> None:
    """Unless ``ok``, raise a ScenarioError that names ``field`` and ``value``."""
    if not ok:
        raise ScenarioError(f"{text}; got {value!r}", field=field)


def _check_keys(obj: dict, known, field: str) -> None:
    """Refuse a key of ``obj`` outside ``known``, naming it as ``field.key``."""
    for key in obj:
        if key not in known:
            raise ScenarioError(f"unknown key; the known keys are {', '.join(known)}",
                                field=f"{field}.{key}" if field else str(key))


def _fields(obj, table: dict, field: str) -> dict:
    """Object ``obj`` with no keys but ``table``'s, each checked against its
    (default or REQUIRED, JSON type, rule) there and absent ones filled with
    the default; a failure names ``field.key``."""
    _require(isinstance(obj, dict), field, obj, "must be an object")
    _check_keys(obj, table, field)
    filled = {}
    for key, (default, kind, rule) in table.items():
        name = f"{field}.{key}" if field else key
        if key not in obj and default is REQUIRED:
            raise ScenarioError("is required", field=name)
        filled[key] = _check_value(obj[key], kind, name, rule) if key in obj else default
    return filled


def _form(spec: dict, forms: dict, field: str):
    """The one form ``spec`` gives, as (key, value); an object value comes back
    with its keys and values checked and its defaults filled in."""
    _check_keys(spec, forms, field)
    given = [key for key in forms if key in spec]
    if len(given) != 1:
        raise ScenarioError(f"needs exactly one of {', '.join(map(repr, forms))}; "
                            f"got {len(given)}", field=field)
    key, value = given[0], spec[given[0]]
    if forms[key] is None:
        return key, value
    _require(isinstance(value, dict), field, value, f"{key!r} must be an object")
    return key, _fields(value, forms[key], f"{field}.{key}")


def _numbers(values, field: str) -> np.ndarray:
    """A JSON list of numbers as a float array; a failure names ``field``."""
    _require(isinstance(values, (list, tuple)), field, values, "must be a list of numbers")
    return np.array([_check_value(v, float, field) for v in values], dtype=float)


def _build_spectrum(spec: dict, field: str) -> Spectrum:
    form, body = _form(spec, _SPECTRUM_FORMS, field)
    if form == "explicit":
        body = _numbers(body, f"{field}.explicit")
    else:
        row = 2 * body["count"] + 1
        _require(row <= MAX_SAMPLE_FLOATS, f"{field}.generator.count", body["count"],
                 f"asks for a sample row of {row} floats, more than {MAX_SAMPLE_FLOATS}")
    with _field_errors(field):
        if form == "explicit":
            return Spectrum(body)
        return power_spectrum(body["count"], body["p"])


def _build_vector(spec, spectrum: Spectrum, seed: int, field: str) -> SpectralVector:
    if spec is None or spec == "zero":
        return zero_vector(spectrum)
    if not isinstance(spec, dict):
        raise ScenarioError("must be an object or 'zero'", field=field)
    form, body = _form(spec, _VECTOR_FORMS, field)
    if form == "explicit":
        body = _numbers(body, f"{field}.explicit")
    lam = spectrum.lambdas
    # an overflow leaves a non-finite component, which SpectralVector refuses
    with _field_errors(field), np.errstate(over="ignore", divide="ignore",
                                           invalid="ignore"):
        if form == "explicit":
            return SpectralVector(spectrum, body)
        if form == "basis":
            return basis_vector(spectrum, body["index"], body["amplitude"])
        if form == "profile":
            return SpectralVector(
                spectrum, body["amplitude"] * np.exp(-body["gamma"] * lam ** body["exponent"]))
        rng = np.random.default_rng(seed)
        comp = (body["scale"] * rng.standard_normal(spectrum.n)
                / np.maximum(lam, 1.0) ** body["decay"])
        return SpectralVector(spectrum, comp)


def _build_function(spec, field: str) -> FunctionSpec:
    if not isinstance(spec, dict):
        raise ScenarioError("must be a function object", field=field)
    try:
        return FunctionSpec.from_dict(spec)
    except Exception as exc:
        raise ScenarioError(str(exc), field=field) from exc


def validate_scenario(cfg: dict) -> Scenario:
    """Turn a parsed config into a validated scenario or raise ScenarioError."""
    top = _fields(cfg, _TOP, "")
    spectrum = _build_spectrum(top["spectrum"], "spectrum")
    data = top["data"]
    _check_keys(data, ("u0", "u1"), "data")
    u0 = _build_vector(data.get("u0"), spectrum, top["seed"], "data.u0")
    u1 = _build_vector(data.get("u1"), spectrum, top["seed"] + 1, "data.u1")

    functions = top["functions"]
    slots = {"m": None, "omega": None, "phi": None}
    _check_keys(functions, ("preset", *slots), "functions")
    preset = functions.get("preset")
    if preset is not None:
        try:
            bundle = get_preset(str(preset))
        except KeyError as exc:
            raise ScenarioError(exc.args[0], field="functions.preset") from exc
        slots = {slot: getattr(bundle, slot) for slot in slots}
    for slot in slots:
        if slot in functions:
            slots[slot] = _build_function(functions[slot], f"functions.{slot}")
    if slots["m"] is not None:
        with _field_errors("functions.m"):
            antiderivative(slots["m"])  # a weight kind has none, so it cannot be m

    entry = TASKS[top["task"]]
    for slot in entry.functions:
        if slots[slot] is None:
            raise ScenarioError("task needs this function, inline or from a preset",
                                field=f"functions.{slot}")
    _check_data_finite(u0, u1, slots["m"] if "m" in entry.functions else None)
    table = {**entry.params, **(_INTEGRATOR_PARAMS if "t_end" in entry.params else {})}
    params = _fields(top["params"], table, "params")
    sc = Scenario(top["name"], spectrum, u0, u1, **slots, task=top["task"], params=params,
                  preset=str(preset) if preset is not None else None, config=cfg)
    if entry.check is not None:
        entry.check(sc)
    if sc.integrator is not None:
        _check_sample_count(sc)
    return sc


def _check_data_finite(u0: SpectralVector, u1: SpectralVector, m: FunctionSpec | None) -> None:
    """sigma(u0), |u1|^2, |A^(1/2)u1|^2 and, given m, M(sigma(u0)) and H must be
    finite, and m must be defined on all of [0, inf)."""
    with np.errstate(all="ignore"):  # each non-finite result is refused below
        sigma0 = a_half_norm_sq(u0)
        u1_sq = float(u1.components @ u1.components)
        for field, text, value in (("data.u0", "sigma(u0) = |A^(1/2)u0|^2", sigma0),
                                   ("data.u1", "|u1|^2", u1_sq),
                                   ("data.u1", "|A^(1/2)u1|^2", a_half_norm_sq(u1))):
            _require(math.isfinite(value), field, value, f"{text} must be finite")
        if m is not None:
            try:  # a kind with a smaller domain raises at one of the ends
                m(np.array([0.0, math.inf]))
            except DomainError as exc:
                raise ScenarioError(f"must be defined on [0, inf): {exc}",
                                    field="functions.m") from exc
            with _field_errors("data.u0"):
                big_m = float(antiderivative(m)(sigma0))
            _require(math.isfinite(big_m), "data.u0", big_m, "M(sigma(u0)) must be finite")
            _require(math.isfinite(u1_sq + big_m), "data", u1_sq + big_m,
                     "H(u0, u1) = |u1|^2 + M(sigma(u0)) must be finite")


def _check_sample_count(sc: Scenario) -> None:
    """The sample tables must fit in MAX_SAMPLE_FLOATS, and their times increase."""
    p = sc.params
    with _field_errors("params.dense_output_dt"):
        samples = sample_intervals(p["t_end"], p["dense_output_dt"]) + 1
    width = 2 * sc.spectrum.n + 1
    # dependence integrates its family and the limit as one ensemble
    tables = len(p["family"]["values"]) + 1 if "family" in p else 1
    _require(samples * width * tables <= MAX_SAMPLE_FLOATS, "params.dense_output_dt",
             p["dense_output_dt"], f"asks for {float(samples):.4g} samples x {width} floats "
             f"x {tables} trajectories, more than {MAX_SAMPLE_FLOATS} floats (128 MiB)")
    # the grid the run builds; it holds a (2n + 1)th of the run's floats at most
    grid = sample_grid(0.0, p["t_end"], p["dense_output_dt"])
    _require(bool(np.all(np.diff(grid) > 0.0)), "params.t_end", p["t_end"],
             f"lies too close to 0 for {samples - 1} strictly increasing "
             f"sample intervals in float64")


# ---------------------------------------------------------------------------
# task implementations; each writes nothing and returns (artifacts, summary):
# each file name, in manifest order, to a CSV's (header, columns) or a JSON dict


def _mode_table(x: str, a: str, b: str, xs, ua, ub) -> tuple:
    """The CSV (header, columns) of ``xs`` then each mode's ``a`` and ``b`` columns."""
    n = ua.shape[1]
    header = [x] + [f"{a}_{k+1}" for k in range(n)] + [f"{b}_{k+1}" for k in range(n)]
    return header, [xs, *ua.T, *ub.T]


def _time_run(sc: Scenario):
    """The trajectory from (u0, u1) under m up to t_end, at the scenario's settings."""
    return evolve(SpectralState(t=0.0, u=sc.u0, v=sc.u1), sc.m, sc.integrator, sc.params["t_end"])


def _task_simulate(sc: Scenario):
    tr = _time_run(sc)
    ham = hamiltonian_series(tr, sc.m)
    hi = higher_order_series(tr)
    trace = coefficient_trace(tr)
    drift = tr.meta.hamiltonian_drift
    summary = {
        "task": "simulate",
        "samples": tr.n_samples,
        "hamiltonian": ham,
        "higher_order_energy": hi,
        "hamiltonian_drift": drift,
        "coefficient_modulus_profile": {
            "delta": trace.modulus_deltas,
            "max_increment": trace.modulus_values,
        },
        "integrator_meta": tr.meta.to_dict(),
    }
    artifacts = {"trajectory.csv": _mode_table("t", "u", "v", tr.t, tr.u, tr.v),
                 "trajectory_summary.json": summary}
    return artifacts, {"status": tr.meta.status, "hamiltonian_drift": drift}


def _task_norms(sc: Scenario):
    p = sc.params
    tr = _time_run(sc)
    phi = sc.phi if sc.phi is not None else constant(1.0)
    trace = scale_norm_trace(tr, phi, p["r0"], p["R"], p["alpha"])
    table = (["t", "radius", "u_norm", "v_norm"],
             [trace.t, trace.radii, trace.u_norms, trace.v_norms])
    return {"norm_trace.csv": table}, {
        "status": tr.meta.status,
        "max_u_norm": float(np.max(trace.u_norms)),
        "max_v_norm": float(np.max(trace.v_norms)),
    }


def _check_norms(sc: Scenario) -> None:
    """The radius r0 - R*t must stay positive up to t_end; phi passes ``_check_phi``."""
    p = sc.params
    radius = p["r0"] - p["R"] * p["t_end"]
    _require(radius > 0.0, "params.R", p["R"],
             f"leaves the radius r0 - R*t_end = {radius:.6g} <= 0")
    _check_phi(sc)


def _check_phi(sc: Scenario) -> None:
    """phi, if given, must be a weight at every eigenvalue; one that overflows
    to inf is left to the norm's own error."""
    if sc.phi is not None:  # without one, norms weighs by constant(1)
        with _field_errors("functions.phi"):
            weight_values(sc.phi, sc.spectrum.lambdas)


def _check_conditions(sc: Scenario) -> None:
    """Resolve params.mode, else the preset's, to 'strict' or 'weak'; phi must
    be a weight on the sigma grid."""
    p = sc.params
    if p["mode"] is None and sc.preset is not None:
        p["mode"] = get_preset(sc.preset).mode
    _require(p["mode"] in ("strict", "weak"), "params.mode", p["mode"],
             "needs 'strict' or 'weak', given here or by a preset")
    with _field_errors("functions.phi"):
        weight_values(sc.phi, default_sigma_grid())


def _task_conditions(sc: Scenario):
    report = check_phi_condition(sc.omega, sc.phi, sc.params["mode"])
    payload = {**asdict(report), "omega": sc.omega.to_dict(), "phi": sc.phi.to_dict(),
               "preset": sc.preset}
    return {"condition_report.json": payload}, {"passed": report.passed,
                                                "lambda_estimate": report.lambda_estimate}


def _task_uniqueness(sc: Scenario):
    rep = uniqueness_condition(sc.u0, sc.u1, sc.m)
    d1, d2 = psi_initial_derivatives(sc.u0, sc.u1, sc.m)
    payload = {**asdict(rep), "psi_prime0": d1, "psi_second0": d2}
    summary = {"hp_main_holds": rep.hp_main_holds}
    if not np.isfinite([rep.as1, rep.as2]).all():  # the condition cannot be read
        summary["status"] = "not_finite"
    return {"uniqueness_report.json": payload}, summary


def _task_invariants(sc: Scenario):
    tr = _time_run(sc)
    ham = hamiltonian_series(tr, sc.m)
    hi = higher_order_series(tr)
    header = ["t", "hamiltonian", "higher_order_energy"]
    cols = [tr.t, ham, hi]
    drifts = {"hamiltonian": tr.meta.hamiltonian_drift}
    if sc.m.kind == "pohozaev":  # the second invariant holds for this m alone
        series = pohozaev_series(tr, sc.m.params["a"], sc.m.params["b"])
        header.append("pohozaev")
        cols.append(series)
        drifts["pohozaev"] = relative_drift(series)
    degeneracy = classify_degeneracy(sc.m, sc.u0, sc.u1)
    payload = {"drifts": drifts, "degeneracy": degeneracy.value,
               "integrator_meta": tr.meta.to_dict()}
    artifacts = {"invariants.csv": (header, cols), "invariants_report.json": payload}
    return artifacts, {"status": tr.meta.status, "drifts": drifts}


def _task_decompose(sc: Scenario):
    p = sc.params
    dec = sum_decompose(sc.u0, sc.u1, sc.phi, p["alpha"], p["beta"])
    reports = dec.membership_reports()
    payload = {
        "s_values": list(dec.s_values),
        "bar_bands": [list(b) for b in dec.bar_bands],
        "hat_bands": [list(b) for b in dec.hat_bands],
        "rho_bar": list(dec.rho_bar),
        "rho_hat": list(dec.rho_hat),
        "alpha": p["alpha"],
        "beta": p["beta"],
        "membership": {k: bool(v.member) for k, v in reports.items()},
        "margins": {k: v.margins for k, v in reports.items()},
    }
    lam = sc.spectrum.lambdas
    artifacts = {
        "decomposition.json": payload,
        "part_bar.csv": (["lambda", "u0", "u1"],
                         [lam, dec.u0_bar.components, dec.u1_bar.components]),
        "part_hat.csv": (["lambda", "u0", "u1"],
                         [lam, dec.u0_hat.components, dec.u1_hat.components]),
    }
    return artifacts, {"all_member": all(r.member for r in reports.values())}


def _check_reparametrize(sc: Scenario) -> None:
    """The time run needs two sample intervals for the curve comparison, and
    the curve solver psi'(0) or psi''(0) away from 0."""
    p = sc.params
    dt = p["dense_output_dt"]
    with _field_errors("params.dense_output_dt"):
        intervals = sample_intervals(p["t_end"], dt)
    _require(intervals >= 2, "params.dense_output_dt", dt,
             f"leaves fewer than two sample intervals up to t_end = {p['t_end']!r}")
    with _field_errors("functions.m"), np.errstate(over="ignore", invalid="ignore"):
        d1, d2 = psi_initial_derivatives(sc.u0, sc.u1, sc.m)
    with _field_errors("data"):
        curve_branch(d1, d2)


def _task_reparametrize(sc: Scenario):
    tr = _time_run(sc)
    pt = psi_trace(tr)
    trace = (["t", "psi", "f"], [pt.t, pt.psi, pt.f])
    # a time run that stops early ends the task on its status
    if tr.meta.status != "completed":
        return {"psi_trace.csv": trace}, {"status": tr.meta.status}
    # past the shift's first turn the flow leaves the curve, so the curve
    # lands on the samples of the first rise up to S_MAX_SHARE of its top
    _, direction = curve_branch(*psi_initial_derivatives(sc.u0, sc.u1, sc.m))
    rise = direction * pt.psi
    rise = rise[:_monotone_prefix(rise)]
    shifts = rise[rise <= S_MAX_SHARE * float(rise[-1]) + 1e-15]
    if shifts.size < 2:
        raise ScenarioError(f"no sample of the shift's first rise lies past t = 0 and below "
                            f"{S_MAX_SHARE} of its top; decrease dense_output_dt",
                            field="params.dense_output_dt")
    try:
        curve = solve_trajectory_system(sc.u0, sc.u1, sc.m, shifts, sc.integrator)
    except PreconditionError as exc:  # the shifts end inside the bootstrap leg
        raise ScenarioError(f"{exc}; increase t_end, up to which the shift's first rise "
                            f"sets the curve's range", field="params.t_end") from exc
    recovered = solve_parametrization(curve, sc.m)
    check = reparametrization_check(tr, curve)
    lag = np.abs(recovered.t - check.t)
    late = int(np.argmax(lag))
    payload = {
        "branch": curve.branch,
        "direction": curve.direction,
        "psi_prime0": curve.psi_prime0,
        "psi_second0": curve.psi_second0,
        "max_deviation": check.max_deviation,
        "worst_t": check.worst_t,
        "n_compared": check.n_compared,
        "pace_deviation": float(lag[late]),
        "pace_worst_t": float(check.t[late]),
    }
    artifacts = {
        "scurve.csv": _mode_table("s", "z", "w", curve.s, curve.z, curve.w),
        "psi_trace.csv": trace,
        "psi_recovered.csv": (["t", "psi", "f"], [recovered.t, recovered.psi, recovered.f]),
        "reparametrization_report.json": payload,
    }
    return artifacts, {"status": tr.meta.status, "max_deviation": check.max_deviation}


def _check_family(sc: Scenario) -> None:
    """Resolve params.family to its kind, finite values and data_shift's mode_index."""
    family = _fields(sc.params["family"], _FAMILY, "params.family")
    family["values"] = [_check_value(v, float, "params.family.values", "finite")
                        for v in family["values"]]
    idx = family["mode_index"]
    _require(family["kind"] == "data_shift" or "mode_index" not in sc.params["family"],
             "params.family.mode_index", idx, "is taken only with kind 'data_shift'")
    _require(0 <= idx < sc.spectrum.n, "params.family.mode_index", idx,
             f"must lie in [0, {sc.spectrum.n})")
    sc.params["family"] = family


def _task_dependence(sc: Scenario):
    family = sc.params["family"]
    kind, values = family["kind"], family["values"]
    problems = []
    if kind == "m_offset":
        problems = [(offset(v, sc.m), sc.u0, sc.u1) for v in values]
    else:
        for v in values:
            comp = sc.u0.components.copy()
            comp[family["mode_index"]] += v
            problems.append((sc.m, SpectralVector(sc.spectrum, comp), sc.u1))
    report = continuous_dependence_study(
        problems, (sc.m, sc.u0, sc.u1), sc.integrator, sc.params["t_end"], omega=sc.omega,
    )
    payload = {
        "values": values,
        "kind": kind,
        "deviations": report.deviations,
        "data_distances": report.data_distances,
        "m_distances": report.m_distances,
        "continuity_constants": list(report.continuity_constants),
        "fitted_slope_vs_input": report.fitted_slope_vs_data,
    }
    return {"dependence_report.json": payload}, {
        "status": report.status,
        "fitted_slope_vs_input": report.fitted_slope_vs_data,
    }


@dataclass(frozen=True)
class _Task:
    """A task's runner with the inputs it needs and the params it reads.

    ``params`` maps each param to (default or REQUIRED, JSON type, rule), as
    _fields reads them: ``float`` stands for any number.  ``check`` validates
    what no single-param rule can, and may replace a param by its parsed form.
    """

    run: Callable[[Scenario], tuple]
    functions: tuple[str, ...]
    params: dict[str, tuple]
    check: Callable[[Scenario], None] | None = None


TASKS = {
    "simulate": _Task(_task_simulate, ("m",), {
        "t_end": (REQUIRED, float, "positive"),
    }),
    "norms": _Task(_task_norms, ("m",), {
        "t_end": (REQUIRED, float, "positive"),
        "r0": (1.0, float, "positive"),
        "R": (0.0, float, "nonnegative"),
        "alpha": (0.25, float, "nonnegative"),
    }, _check_norms),
    "conditions": _Task(_task_conditions, ("omega", "phi"), {
        "mode": (None, str, None),
    }, _check_conditions),
    "uniqueness": _Task(_task_uniqueness, ("m",), {}),
    "invariants": _Task(_task_invariants, ("m",), {
        "t_end": (REQUIRED, float, "positive"),
    }),
    "decompose": _Task(_task_decompose, ("phi",), {
        "alpha": (0.25, float, "nonnegative"),
        "beta": (2.0, float, "nonnegative"),
    }, _check_phi),
    "reparametrize": _Task(_task_reparametrize, ("m",), {
        "t_end": (1.0, float, "positive"),
    }, _check_reparametrize),
    "dependence": _Task(_task_dependence, ("m",), {
        "t_end": (1.0, float, "positive"),
        "family": ({"kind": "m_offset", "values": [0.25, 0.125, 0.0625]}, dict, None),
    }, _check_family),
}


# the top level of a config, declared as in _Task.params; the name is one plain
# path component, so that runs/<name>, the default output directory, stays in runs/
_TOP = {
    "version": (REQUIRED, int, (CONFIG_VERSION.__eq__, f"expected {CONFIG_VERSION}")),
    "name": (REQUIRED, str, (lambda s: s not in ("", "..") and Path(s).name == s
                             and not set("\\\0") & set(s),
                             "must be a single nonempty plain path component")),
    "task": (REQUIRED, str, (TASKS.__contains__, f"must be one of {', '.join(TASKS)}")),
    "seed": (0, int, "nonnegative"),
    "spectrum": ({"generator": {}}, dict, None),
    "data": ({}, dict, None),
    "functions": ({}, dict, None),
    "params": ({}, dict, None),
}


# ---------------------------------------------------------------------------
# runner


def run_directory(sc: Scenario, out_dir=None) -> Path:
    """The directory a run of ``sc`` writes: ``out_dir`` if given, else runs/<name>."""
    return Path(out_dir) if out_dir is not None else Path("runs") / sc.name


def run_scenario(config, out_dir=None) -> RunManifest:
    """Execute one scenario and write its artifacts plus manifest.json.

    ``config`` is a validated Scenario, or a path or a parsed dict that is
    validated here; with the tool version its config is the run's only input,
    and ``scenario_hash`` hashes it as read.  A failure of the task or of a
    write leaves a machine-readable error.json in the output directory before
    the exception propagates; an invalid config is refused before the
    directory is made.
    """
    sc = config if isinstance(config, Scenario) else validate_scenario(
        config if isinstance(config, dict) else load_config(config))

    out = run_directory(sc, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a rerun must not leave the last run's outcome beside its own
    for stale in ("manifest.json", "error.json"):
        (out / stale).unlink(missing_ok=True)
    scenario_hash = sha256_text(dump_json(sc.config))

    from .artifacts import sha256_file  # looked up per run, so a rebinding is seen

    started = time.perf_counter()
    entries = []
    try:
        artifacts, summary = TASKS[sc.task].run(sc)
        for name in list(artifacts):
            # popped and deleted, so a trajectory table is freed before its hash
            path, body = out / name, artifacts.pop(name)
            if isinstance(body, dict):
                write_json(path, body)
            else:
                write_csv(path, *body)
            del body
            entries.append({"name": name, "sha256": sha256_file(path),
                            "bytes": path.stat().st_size})
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
    # ok unless the task reports an integrator status other than completed
    ok = summary.get("status", "completed") == "completed"
    manifest = RunManifest(
        scenario_hash=scenario_hash,
        tool_version=__version__,
        numpy_version=np.__version__,
        blas_core=blas_core(),
        wall_time_s=wall,
        artifacts=tuple(entries),
        summary={"ok": ok, "task": sc.task, "name": sc.name, **summary},
    )
    write_json(out / "manifest.json", manifest.to_dict())
    return manifest

