import math

import numpy as np
import pytest

from kirchhoff_spectral.errors import DomainError
from kirchhoff_spectral.functions import (
    KINDS,
    FunctionSpec,
    affine,
    antiderivative,
    constant,
    load_table_csv,
    modulus_inv_log,
    modulus_power,
    modulus_sigma_log,
    offset,
    pohozaev,
    power,
    scalar_callable,
    table,
    weight_power_log,
    weight_scaled_modulus,
)


# one example spec per registered kind; a kind added without an example
# fails test_examples_cover_every_kind
EXAMPLES = {
    "constant": constant(1.5),
    "affine": affine(1.0, -0.5),
    "power": power(0.75),
    "pohozaev": pohozaev(2.0, 3.0),
    "table": table([0.0, 1.0], [1.0, 2.0]),
    "offset": offset(1.0, modulus_sigma_log(3.0)),
    "modulus_power": modulus_power(0.5),
    "modulus_sigma_log": modulus_sigma_log(1.0),
    "modulus_inv_log": modulus_inv_log(0.5),
    "weight_power_log": weight_power_log(2.0 / 3.0, -1.0),
    "weight_scaled_modulus": weight_scaled_modulus(modulus_power(1.0)),
}


def test_examples_cover_every_kind():
    assert set(EXAMPLES) == set(KINDS)
    for kind, spec in EXAMPLES.items():
        assert spec.kind == kind


def quad_oracle(f, hi, n=20000):
    """Composite-Simpson reference integral over [0, hi].

    Integrates in the substituted variable v = sqrt(sigma), which smooths the
    endpoint behaviour of fractional powers at 0.
    """
    v = np.linspace(0.0, math.sqrt(hi), 2 * n + 1)
    y = np.asarray(f(v**2), dtype=float) * 2.0 * v
    h = v[1] - v[0]
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())


def test_basic_kinds_evaluate():
    assert constant(2.5)(7.0) == 2.5
    assert affine(1.0, 2.0)(3.0) == 7.0
    assert power(0.5)(4.0) == 2.0
    assert power(0.0)(0.0) == 1.0
    assert pohozaev(1.0, 1.0)(1.0) == 0.25
    assert offset(1.0, power(2.0))(3.0) == 10.0


def test_negative_sigma_rejected():
    with pytest.raises(DomainError):
        power(1.0)(-0.5)


def test_pohozaev_guard():
    with pytest.raises(DomainError):
        pohozaev(1.0, -2.0)(1.0)
    with pytest.raises(DomainError):
        pohozaev(-1.0, 2.0)


def test_vectorized_matches_scalar():
    spec = weight_power_log(0.5, -1.0)
    sig = np.array([0.0, 0.5, 3.0, 100.0])
    vec = spec(sig)
    assert vec.shape == sig.shape
    for s, v in zip(sig, vec):
        assert spec(float(s)) == v


def test_table_interpolation_and_clamping():
    t = table([0.0, 1.0, 2.0], [1.0, 3.0, 3.5])
    assert t(0.5) == 2.0
    assert t(1.5) == 3.25
    assert t(10.0) == 3.5  # clamped above
    assert t(0.0) == 1.0


def test_table_requires_increasing_sigmas():
    with pytest.raises(DomainError):
        table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_table_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("sigma,value\n0.0,1.0\n1.0,2.0\n4.0,2.5\n")
    spec = load_table_csv(path)
    assert spec(2.0) == pytest.approx(2.0 + 0.5 / 3.0)


def test_modulus_power_extension_is_continuous_and_monotone():
    om = modulus_power(0.5)
    assert om(0.0) == 0.0
    assert om(1.0) == 1.0
    # tangent-line extension: value 1 + beta*(sigma - 1)
    assert om(3.0) == pytest.approx(2.0)
    grid = np.linspace(0.0, 10.0, 2001)
    vals = om(grid)
    assert np.all(np.diff(vals) >= 0.0)


def test_modulus_sigma_log_peak_freeze():
    om = modulus_sigma_log(1.0)
    peak = math.exp(-1.0)
    assert om(peak / 2.0) == pytest.approx((peak / 2.0) * abs(math.log(peak / 2.0)))
    assert om(peak) == pytest.approx(peak)
    assert om(5.0) == pytest.approx(peak)  # frozen beyond the peak
    assert om(0.0) == 0.0


def test_modulus_inv_log_values():
    om = modulus_inv_log(0.5)
    s = math.exp(-4.0)
    assert om(s) == pytest.approx(0.5)
    assert om(0.0) == 0.0
    grid = np.linspace(0.0, 2.0, 4001)
    assert np.all(np.diff(om(grid)) >= 0.0)


def test_weight_power_log_clamps():
    phi = weight_power_log(1.0, -1.0)  # sigma / log sigma
    assert phi(0.0) == pytest.approx(math.e)  # log guard at sigma = e
    assert phi(math.e**2) == pytest.approx(math.e**2 / 2.0)
    assert float(np.min(phi(np.logspace(-8, 8, 1000)))) >= 1.0
    plain = weight_power_log(0.5)
    assert plain(0.25) == 1.0  # max(1, .) clamp
    assert plain(4.0) == 2.0


def test_weight_scaled_modulus():
    phi = weight_scaled_modulus(modulus_power(0.5))
    # large sigma: sigma * (1/sigma)^(1/2) = sigma^(1/2)
    assert phi(1e6) == pytest.approx(1e3)
    assert phi(0.0) >= 1.0


def test_serialization_roundtrip():
    for spec in EXAMPLES.values():
        back = FunctionSpec.from_dict(spec.to_dict())
        assert back == spec
        sig = np.array([0.0, 0.3, 1.7, 42.0])
        assert np.array_equal(back(sig), spec(sig))


def test_scalar_callable_agrees():
    for spec in EXAMPLES.values():
        fast = scalar_callable(spec)
        for s in (0.0, 0.1, 1.0, 7.5):
            assert fast(s) == pytest.approx(float(spec(s)), rel=1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        constant(3.0),
        affine(1.0, 2.0),
        power(1.0),
        power(0.5),
        pohozaev(1.0, 1.0),
        offset(1.0, power(2.0)),
    ],
)
def test_closed_form_antiderivatives_match_quadrature(spec):
    big_m = antiderivative(spec)
    assert float(big_m(0.0)) == 0.0
    for hi in (0.5, 2.0, 7.0):
        assert float(big_m(hi)) == pytest.approx(quad_oracle(spec, hi), rel=1e-9)


def test_pohozaev_antiderivative_closed_form():
    # M(sigma) = sigma / (a (a + b sigma)); at a = b = 1, M(1) = 1/2
    big_m = antiderivative(pohozaev(1.0, 1.0))
    assert float(big_m(1.0)) == pytest.approx(0.5)


def test_table_antiderivative_is_exact():
    t = table([0.5, 1.0, 2.0], [1.0, 2.0, 2.0])
    big_m = antiderivative(t)
    # below the table: constant 1.0 from the clamp
    assert float(big_m(0.5)) == pytest.approx(0.5)
    # across the ramp: 0.5 + integral of 1+2(s-0.5)... piecewise linear
    assert float(big_m(1.0)) == pytest.approx(0.5 + 0.75)
    assert float(big_m(3.0)) == pytest.approx(0.5 + 0.75 + 2.0 + 2.0)
    for hi in (0.3, 0.9, 1.7, 5.0):
        assert float(big_m(hi)) == pytest.approx(quad_oracle(t, hi), rel=1e-7)


# 20 geometric sigma up to 0.04 and 60 linear from 0.05 to 3: both sides of every knee
SIGMAS = np.concatenate([np.geomspace(1e-12, 0.04, 20), np.linspace(0.05, 3.0, 60)])
# each modulus kind's knee and its formula below it, written out independently
KNEES = {"modulus_power": lambda b: 1.0, "modulus_sigma_log": lambda q: math.exp(-q),
         "modulus_inv_log": lambda q: math.exp(-(q + 1.0))}
CORES = {"modulus_power": lambda b, x: x**b,
         "modulus_sigma_log": lambda q, x: x * (-math.log(x)) ** q,
         "modulus_inv_log": lambda q, x: (-math.log(x)) ** -q}
def split_quad(spec, sigma):
    """The integral of ``spec`` over [0, sigma] by ``quad``, split at the knee."""
    from scipy.integrate import quad

    (p,) = spec.params.values()
    knee = KNEES[spec.kind](p)
    total = quad(lambda x: CORES[spec.kind](p, x), 0.0, min(sigma, knee),
                 epsabs=0.0, epsrel=1e-13, limit=200)[0]
    if sigma > knee:
        total += quad(lambda x: float(spec(x)), knee, sigma, epsabs=0.0, epsrel=1e-13)[0]
    return total


@pytest.mark.parametrize("spec", [
    *[modulus_sigma_log(q) for q in (0.0, 1.0, 3.0)],
    # gammaincc takes only q < 1, and scipy's hyperu, the textbook form for q >= 1,
    # is off by 7e-7 at q = 1.1 and by 1e17 at a q one ulp from 2
    *[modulus_inv_log(q) for q in (0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0 + 2.0**-51, 3.5)],
    *[modulus_power(b) for b in (0.5, 1.0)],
], ids=lambda spec: "%s(%r)" % (spec.kind, *spec.params.values()))
def test_modulus_antiderivative_matches_split_quad(spec):
    big_m = antiderivative(spec)
    assert float(big_m(0.0)) == 0.0
    values = big_m(SIGMAS)
    reference = np.array([split_quad(spec, s) for s in SIGMAS])
    np.testing.assert_allclose(values, reference, rtol=1e-12, atol=0.0)
    # a scalar sigma takes the same path
    assert float(big_m(SIGMAS[-1])) == values[-1]


def test_modulus_without_a_finite_knee_line_refused():
    # q**q overflows at q = 200; the knee e**-801 of q = 800 underflows to 0, and
    # at q = 200 so does the value (q+1)**-q there
    for make in (lambda: modulus_sigma_log(200.0), lambda: modulus_inv_log(800.0),
                 lambda: modulus_inv_log(200.0)):
        with pytest.raises(DomainError, match="parameter 'q' = .* out of float range"):
            make()


def test_weight_kind_has_no_antiderivative():
    weights = (EXAMPLES["weight_power_log"], EXAMPLES["weight_scaled_modulus"])
    for spec in (*weights, offset(1.0, weights[0])):
        with pytest.raises(DomainError, match="cannot be the nonlinearity m"):
            antiderivative(spec)


def test_nonfinite_params_rejected():
    for make in (lambda: constant(math.nan), lambda: affine(math.inf, 1.0),
                 lambda: FunctionSpec.from_dict({"kind": "power", "beta": "-inf"})):
        with pytest.raises(DomainError, match="must be finite"):
            make()


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        FunctionSpec("mystery", {})
    with pytest.raises(DomainError):
        FunctionSpec.from_dict({"p": 1.0})


def test_repr_follows_the_declaration():
    assert repr(affine(1.0, 1.0)) == "affine(a=1, b=1)"
    assert repr(offset(0.5, power(2.0))) == "offset(c=0.5, base=power(beta=2))"
    assert repr(weight_scaled_modulus(modulus_power(1.0))) == (
        "weight_scaled_modulus(base=modulus_power(beta=1))")
    assert repr(table([0.0, 1.0, 2.0], [1.0, 2.0, 2.0])) == "table(knots=3)"


def test_constructed_spec_checked_against_its_declaration():
    # config dicts go through from_dict; direct construction takes the same check
    with pytest.raises(DomainError, match="'c' must be finite; got True, not a number"):
        FunctionSpec("constant", {"c": True})
    with pytest.raises(DomainError, match="takes no 'base'"):
        FunctionSpec("constant", {"c": 1.0}, base=power(1.0))
    with pytest.raises(DomainError, match="needs 'base'"):
        FunctionSpec("offset", {"c": 1.0})
    with pytest.raises(DomainError, match=r"'beta' must lie in \(0, 1\]"):
        modulus_power(1.5)
