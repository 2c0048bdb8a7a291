"""The benchmark's traced run rebinds package names from outside.

Only the benchmark self-test exercises the tracer, so a renamed import in
the package would go unnoticed by the test suite.  This guard loads the
tracer module without installing it and checks that every name it rebinds
exists and is callable.
"""

import importlib.util
from pathlib import Path

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
