"""The benchmark's traced run rebinds package names from outside.

Only the benchmark self-test exercises the tracer, so a renamed import in
the package would go unnoticed by the test suite.  This guard loads the
tracer module without installing it and checks that every name it rebinds
exists and is callable.
"""

import importlib.util
from pathlib import Path

import numpy as np

from kirchhoff_spectral import (
    SpectralState,
    SpectralVector,
    Spectrum,
    affine,
    constant,
    dynamics,
    power,
    power_spectrum,
    reparametrize,
)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebinding_target_exists():
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, _ in tracing.SPANS]
    targets += [(layer, "solve_to_samples") for layer in tracing.SOLVERS]
    targets += [(module, attr) for module, attr, _ in tracing.COUNTS]
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(tracing.MODULES[module], attr, None))
    ]
    assert missing == []


def test_traced_counters_match_the_solver(monkeypatch, tight_cfg):
    # the tracer wraps the solver from outside and adds up its outcome
    # counters and its RHS calls; both must count the same evaluations, for
    # vector states and ensembles alike
    tracing = load_tracing()
    solves = []  # (sample count, outcome) of every solver call

    def spy_on(solve):
        def spy(rhs, y0, samples, *args, **kwargs):
            res = solve(rhs, y0, samples, *args, **kwargs)
            solves.append((len(samples), res))
            return res

        return spy

    for layer in tracing.SOLVERS:
        module = tracing.MODULES[layer]
        monkeypatch.setattr(module, "solve_to_samples", spy_on(module.solve_to_samples))
    targets = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTS]
    targets += [(layer, "solve_to_samples") for layer in tracing.SOLVERS]
    before = {t: getattr(tracing.MODULES[t[0]], t[1]) for t in targets}

    spec = power_spectrum(4)
    states = [
        SpectralState(0.0, SpectralVector(spec, [1.0, 0.5, 0.25, 0.125]),
                      SpectralVector(spec, [0.0, 0.1 * s, 0.0, 0.1 * s]))
        for s in (1.0, 0.5, 2.0)
    ]
    unit = Spectrum([1.0])
    tracer = tracing.Tracer()
    tracer.count_grid_forced = True
    tracer.install()
    try:
        dynamics.evolve(states[0], affine(1.0, 1.0), tight_cfg, 1.0)
        dynamics.evolve(states, [affine(1.0, 1.0), power(1.0), constant(2.0)],
                        tight_cfg, 1.0)
        curve = reparametrize.solve_trajectory_system(
            SpectralVector(unit, [1.0]), SpectralVector(unit, [0.0]), constant(1.0),
            np.linspace(0.0, 0.8, 9), tight_cfg,
        )
    finally:
        tracer.uninstall()
    assert curve.branch == "bootstrap"
    assert {t: getattr(tracing.MODULES[t[0]], t[1]) for t in targets} == before

    # with count_grid_forced each solve runs again on its two end points only
    traced = [res for n, res in solves if n > 2]
    metrics = tracer.pass_metrics(0)
    assert metrics["integrate.calls"] == len(traced) == len(solves) - len(traced)
    assert metrics["integrate.n_rhs"] == sum(res.n_rhs for res in traced)
    assert metrics["integrate.n_rhs"] == (
        metrics["dynamics.rhs_calls"] + tracer.counters["reparametrize.rhs_calls"]
    )
    assert metrics["integrate.n_accepted"] == sum(res.n_accepted for res in traced)
    assert metrics["integrate.grid_forced_steps"] >= 0
