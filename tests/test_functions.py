import hashlib
import math
import warnings

import numpy as np
import pytest

from kirchhoff_spectral.errors import DomainError
from kirchhoff_spectral.functions import (
    KINDS,
    FunctionSpec,
    affine,
    antiderivative,
    constant,
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
    # an interval wider than 1
    assert table([0.0, 1.0, 4.0], [1.0, 2.0, 2.5])(2.0) == pytest.approx(2.0 + 0.5 / 3.0)


def test_table_requires_increasing_sigmas():
    with pytest.raises(DomainError):
        table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


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


# every kind's values on a fixed grid, pinned by the sha256 of their raw
# bytes: the array evaluation, then scalar_callable one float at a time (the
# right-hand side's path).  The two paths may differ in the last bit (numpy's
# power is not libm's); each must keep its own.  Recorded with numpy 2.4.6 on
# an x86-64 Xeon.
PINNED_SPECS = {
    "constant": constant(1.5),
    "affine": affine(1.0, -0.5),
    "power_0": power(0.0),
    "power_half": power(0.5),
    "power_third": power(1.0 / 3.0),
    "power_2": power(2.0),
    "power_neg": power(-0.5),
    "pohozaev": pohozaev(1.0, 1.0),
    "pohozaev_neg": pohozaev(2.0, -0.5),
    "table": table([0.0, 0.25, 0.5, 1.0], [1.0, 1.5, 1.25, 2.0]),
    "table_clamped": table([0.5, 2.0], [3.0, 1.0]),
    "offset_power": offset(1.0, power(0.5)),
    "offset_sigma_log": offset(1.0, modulus_sigma_log(1.0)),
    "offset_inv_log": offset(0.5, modulus_inv_log(0.5)),
    "modulus_power_half": modulus_power(0.5),
    "modulus_power_1": modulus_power(1.0),
    "sigma_log_0": modulus_sigma_log(0.0),
    "sigma_log_3": modulus_sigma_log(3.0),
    "sigma_log_140": modulus_sigma_log(140.0),
    "inv_log_1": modulus_inv_log(1.0),
    "inv_log_3.5": modulus_inv_log(3.5),
    "inv_log_147.9": modulus_inv_log(147.9),
    "weight_log": weight_power_log(0.0, 1.0),
    "weight_power": weight_power_log(2.0 / 3.0),
    "weight_power_log": weight_power_log(0.5, -1.0),
    "weight_scaled_modulus": weight_scaled_modulus(modulus_sigma_log(1.0)),
    "weight_scaled_power": weight_scaled_modulus(power(0.5)),
}
PINNED_SHA256 = {
    "constant": ["6298d55befc00c93eb2cca868f50fb7aed8de3c5b1a4cec308aa1a962f02f67d",
                 "6298d55befc00c93eb2cca868f50fb7aed8de3c5b1a4cec308aa1a962f02f67d"],
    "affine": ["6fa6b4aee8c6e525c3020be4ca81549dffa16802272ee60e6b5171b0bc0d4616",
               "6fa6b4aee8c6e525c3020be4ca81549dffa16802272ee60e6b5171b0bc0d4616"],
    "power_0": ["983b93b2b964246062ea5b405a8d4080fa14f22fc55736a8a841b820c684719b",
                "983b93b2b964246062ea5b405a8d4080fa14f22fc55736a8a841b820c684719b"],
    "power_half": ["05dfc6c6ac1db3f69c2def72328319dd4f13785057ad2929e01303c390835dc2",
                   "74583fd93f2bc01805e71bb3c22e95269ac812bf67cad817e006f4492e85e5b3"],
    "power_third": ["0fa5615d3ff7488993f584ff36f5c7ce128c1862c2b262bb0fc1a65993a12b14",
                    "3b0de88c7c3a41b69b3635a74a048b8e2fce5282f3de8ff76729fa05241cc824"],
    "power_2": ["802db6a983f2398af1f3a06f899708d8e1ccec4e9d5678340aaf2c05cbda0f96",
                "802db6a983f2398af1f3a06f899708d8e1ccec4e9d5678340aaf2c05cbda0f96"],
    "power_neg": ["b0a6cf4a3cc580304f4989088cbe97a5cda3d9231ebf8de76393d05df8b410cb",
                  "07186ede8d05a4346279513992bfb1438b4d5456d3ac629ed4b02132cd107f85"],
    "pohozaev": ["da8db6ec3b181beea09142d9b1b38fabf704e2325b3c7d12ced0b87860fc5d22",
                 "e9d7a50f669f06aa56ee27633e0a6502f6cba3712d55737ff1d058c0cfb46b2a"],
    "pohozaev_neg": ["30075fe15b59d38eccf3f6270801b8de8a96fa84aeb8e8f891b32914e356666a",
                     "6cf01fab0fe06635852993229b4bee2e7d468a5180a4971d708a9a1816c13130"],
    "table": ["76d35e4d1109e5ba27dfe04a7d906822ede3e21752b3c7a6074c72bd9ff10ffb",
              "76d35e4d1109e5ba27dfe04a7d906822ede3e21752b3c7a6074c72bd9ff10ffb"],
    "table_clamped": ["e66e60575f10e1e19f89d58c434c79957ab806e84280c7f1e56cfeae553c5b8f",
                      "e66e60575f10e1e19f89d58c434c79957ab806e84280c7f1e56cfeae553c5b8f"],
    "offset_power": ["38aa02c07c93d22f9023d985c4c3e855fef3db74bf7bbd67ceb9381a7c2cb200",
                     "38aa02c07c93d22f9023d985c4c3e855fef3db74bf7bbd67ceb9381a7c2cb200"],
    "offset_sigma_log": ["379113a29b5932c34e7b95e3dd8c7384d7863a9e96b2e04a6e0d524591cae17c",
                         "379113a29b5932c34e7b95e3dd8c7384d7863a9e96b2e04a6e0d524591cae17c"],
    "offset_inv_log": ["0eb155c4960e695a4db61199dc84eb3f21ae5e4e64817ac0536bc503ec1ffd61",
                       "4a8ee7278c38e57ec764da12dd6aab6a5c08dbc7ed24a52a007ffb2f6a4d05ca"],
    "modulus_power_half": ["b460910aad414f67dd0694db40d33a1114d40b36c70735b170cdee1d262e9e6f",
                           "7b8aea788c8d480a16ce8983097fded47cacfdc4fd399646133c1b3accf062d9"],
    "modulus_power_1": ["45b6805d918be8863c9d64bd54772c7a1135971c369fc8ecf221a84367015583",
                        "45b6805d918be8863c9d64bd54772c7a1135971c369fc8ecf221a84367015583"],
    "sigma_log_0": ["65e0ae8627a38c95521c121c9b27bca15a256184157cce7c1b9398c4a8019c7a",
                    "65e0ae8627a38c95521c121c9b27bca15a256184157cce7c1b9398c4a8019c7a"],
    "sigma_log_3": ["10622530c1b93bc7a650ea5ac07ff688ed6aacf24e8648cc9f2bb60df6ebd947",
                    "12631c4d800d6968f641b98e6706e9cc4b9360e62c12ed386af282990429f07e"],
    "sigma_log_140": ["65540ca4f306b23e2d99ca975dbfc4fb894c7954a2bb87fe604665e10691bf02",
                      "8cde2393d85cf69044f2aaa9360d4f1ee832b135ce5b8e829c0ecf62150a4b02"],
    "inv_log_1": ["e1b95f844b19eeababa18812b0990b92e2101812ca2aacb21a854f5f2494243f",
                  "4e07c0cfc8f24ffe6d6a27939cb98450b3cb605d205ee29c43c79bb6fe765152"],
    "inv_log_3.5": ["603a65633050f7c1ec645f4220bcd97343622d8775897f7acdbf0cd312980467",
                    "4928a43959cc39e3d06a0374a6bf45fcc99047668991f92932373732809f2d59"],
    "inv_log_147.9": ["8938bc90bd204e95b75ee506cc3bb3baf5405436c4b71591bd57c138900b3532",
                      "8938bc90bd204e95b75ee506cc3bb3baf5405436c4b71591bd57c138900b3532"],
    "weight_log": ["6a531646d68106b09ab1da8d1949ac14fda7597b9030b8ef536722f7ea1881fd",
                   "6a531646d68106b09ab1da8d1949ac14fda7597b9030b8ef536722f7ea1881fd"],
    "weight_power": ["77b1e0adec0f97f88c9c7da5e73a82214b50fc463be2c099776bba41149779f6",
                     "77b1e0adec0f97f88c9c7da5e73a82214b50fc463be2c099776bba41149779f6"],
    "weight_power_log": ["ec661a746c5ecbba4e90bb17d2525153b80d1541c8cd1929cf51f71ba1dd3f57",
                         "ec661a746c5ecbba4e90bb17d2525153b80d1541c8cd1929cf51f71ba1dd3f57"],
    "weight_scaled_modulus": ["4a2c06611815689fad07b5c94d6a1a0d4fcdee4a9637d71d367d81c63e84f623",
                              "4a2c06611815689fad07b5c94d6a1a0d4fcdee4a9637d71d367d81c63e84f623"],
    "weight_scaled_power": ["43245aff6bf631b58f09e4c368d70694e2b23d145bca30965ff1234d8a1bc42b",
                            "43245aff6bf631b58f09e4c368d70694e2b23d145bca30965ff1234d8a1bc42b"],
}


def pinned_grid(spec):
    """0, the subnormals, each knee with its float neighbours, a spread to 1e6, inf."""
    knees = [1.0, 0.25, 0.5, 2.0, 4.0, *(math.exp(-q) for q in (1.0, 3.0, 140.0)),
             *(math.exp(-(q + 1.0)) for q in (0.5, 1.0, 3.5, 147.9))]
    grid = np.unique(np.concatenate([
        [0.0, 5e-324, 1e-320, math.inf], knees, np.nextafter(knees, 0.0),
        np.nextafter(knees, math.inf), np.geomspace(1e-300, 1e6, 1500),
        np.linspace(0.0, 3.0, 301), np.linspace(0.0, 1e6, 101)]))
    if spec.kind == "power" and spec.params["beta"] < 0.0:
        return grid[grid > 0.0]  # refused at 0, below
    if spec.kind == "pohozaev":
        return grid[spec.params["a"] + spec.params["b"] * grid > 0.0]
    return grid


# the weights meet inf * 0 at sigma = inf; their values there are pinned like
# any other
@pytest.mark.filterwarnings("ignore:.* encountered in .*:RuntimeWarning")
@pytest.mark.parametrize("name", PINNED_SPECS)
def test_every_kind_keeps_its_bits_on_both_paths(name):
    spec = PINNED_SPECS[name]
    grid = pinned_grid(spec)
    f = scalar_callable(spec)
    values = spec(grid), np.array([f(s) for s in grid.tolist()])
    got = [hashlib.sha256(np.ascontiguousarray(v, dtype="<f8").tobytes()).hexdigest()
           for v in values]
    assert got == PINNED_SHA256[name]


@pytest.mark.parametrize("kind", [k for k, row in KINDS.items() if row.antiderivative])
def test_evaluator_of_m_returns_a_float_for_a_float(kind):
    # the one-mode right-hand sides build Python float pairs from m's value;
    # a numpy scalar or 0-d array would leak into the step loop's state
    specs = [spec for spec in (EXAMPLES[kind], *PINNED_SPECS.values()) if spec.kind == kind]
    for spec in specs:
        f = scalar_callable(spec)
        assert {type(f(s)) for s in pinned_grid(spec).tolist()} == {float}, spec


# (sigma, true value to 20 digits) where |ln sigma|**q overflows
SIGMA_LOG_TRUE = {110.0: (1e-300, 2123556283144.6616661),
                  140.0: (1e-70, 1.0566277685692815889e239)}


@pytest.mark.parametrize("q", [107.0, 108.0, 110.0, 140.0, 143.0])
def test_sigma_log_past_the_overflow_of_its_power(q):
    # |ln s|**q overflows below some s for q above about 107.3; there the value
    # is exp(ln s + q ln|ln s|), and wherever s |ln s|**q is finite it keeps
    # those bits; no overflow warning escapes (warnings are errors here)
    spec = modulus_sigma_log(q)
    f = scalar_callable(spec)
    s = np.unique(np.concatenate([[5e-324, 1e-320, 1e-300, 1e-70, math.exp(-q)],
                                  np.geomspace(1e-323, math.exp(-q), 400)]))
    with np.errstate(over="ignore"):
        # numpy's loops on an array and on one float can differ in the last bit
        direct = [s * np.abs(np.log(s)) ** q,
                  np.array([x * np.abs(np.log(x)) ** q for x in s])]
    big = np.isinf(direct[0])
    assert big.any() == (q > 107.3) and np.array_equal(big, np.isinf(direct[1]))
    log_domain = np.exp(np.log(s[big]) + q * np.log(-np.log(s[big])))
    for values, want in zip((spec(s), np.array([f(x) for x in s.tolist()])), direct):
        assert values[~big].tobytes() == want[~big].tobytes()
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values[big], log_domain, rtol=1e-13, atol=0.0)
    if q in SIGMA_LOG_TRUE:
        at, true = SIGMA_LOG_TRUE[q]
        assert f(at) == pytest.approx(true, rel=1e-13)


@pytest.mark.parametrize("spec, s", [(power(1e6), 2.0), (power(-2.0), 1e-200),
                                     (pohozaev(1e-300, 1.0), 0.0)],
                         ids=["power_large_beta", "power_negative_beta", "pohozaev"])
def test_float_power_that_overflows_reads_inf(spec, s):
    # a float's ** raises OverflowError where an array's reads inf; the float
    # path, the right-hand sides', reads inf too
    f = scalar_callable(spec)
    assert f(s) == math.inf and type(f(s)) is float
    with np.errstate(over="ignore"):
        assert spec(np.array([s]))[0] == math.inf


@pytest.mark.parametrize("s", [5e-324, 1e-322, 9.9e-321])
def test_moduli_take_the_log_of_subnormal_sigma(s):
    # ln s unclamped below 1e-320 (it once read ln 1e-320 there); a subnormal
    # result is rounded to a multiple of 5e-324, so allow that one step
    cases = [(modulus_sigma_log(q), s * abs(math.log(s)) ** q) for q in (1.0, 3.0, 100.0)]
    cases += [(modulus_inv_log(q), abs(math.log(s)) ** -q) for q in (1.0, 3.5)]
    for spec, want in cases:
        got = float(spec(np.array([s]))[0]), float(scalar_callable(spec)(s))
        assert got == pytest.approx((want, want), rel=1e-13, abs=5e-324)


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
    # the continued fraction both log kinds share must hold at q >= 1, where
    # scipy's hyperu, the textbook form, is off by 7e-7 at q = 1.1 and by 1e17
    # at a q one ulp from 2
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


def test_sigma_log_antiderivative_is_representable_far_below_the_knee():
    # Gamma(101, 2 ln 1e250) / 2**101 by mpmath; m there is 1.04e26, and the
    # scipy product gamma * gammaincc once read 0.0, its gammaincc underflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(antiderivative(modulus_sigma_log(100.0))(1e-250))
    assert got == pytest.approx(5.6749578153323063e-225, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [1e-9, 0.5, 1.0, 3.0, 10.0, 50.0, 100.0, 140.0])
def test_sigma_log_antiderivative_matches_scipy_where_gammaincc_is_normal(q):
    # the series and the fraction against scipy's regularized gamma product,
    # on 401 sigma from 1e-300 to the knee, wherever gammaincc keeps its bits
    from scipy.special import gamma, gammaincc

    sigma = np.geomspace(1e-300, math.exp(-q), 401)
    upper = gammaincc(q + 1.0, -2.0 * np.log(sigma))
    keep = upper >= 1e-290
    assert keep.sum() > 50
    want = gamma(q + 1.0) * upper[keep] / 2.0 ** (q + 1.0)
    np.testing.assert_allclose(antiderivative(modulus_sigma_log(q))(sigma[keep]), want,
                               rtol=5e-13, atol=0.0)


# modulus_inv_log's M at 0, on 401 geometric sigma up to the knee and at three
# sigma past it, pinned by the sha256 of its raw bytes (the array path, then
# one float at a time): modulus_sigma_log's M shares its continued fraction,
# which must keep these bits.  Recorded with numpy 2.4.6 on an x86-64 Xeon.
INV_LOG_M_SHA256 = {
    0.25: ["fbbd323c3b8f2556b3ac821da7f33cf671fe541125f696fa4b5bd660bb086263",
           "f96ab97503e05744b118af8c0d12d1d9cb072eb467fa1d45519fc2d7d2a4e7ca"],
    1.0: ["971afa8363c903b1bbe552f291e39aedac4876cd3981c1c56f90cdc0eea92f0c",
          "971afa8363c903b1bbe552f291e39aedac4876cd3981c1c56f90cdc0eea92f0c"],
    1.1: ["0fd5e3e49ab0a406b5f5cdcc493129564bbe1f9d4b6357b2692e79303bbf092f",
          "89244c93197f91a1e67b91461c2f9a217b7ebb08a41f34fb5344297b67ecf06a"],
    2.0 + 2.0**-51: ["b4dba78d4f2ad5af99a74ee31f956dd856b70cfd131d04d7f6e7db5921d495c6",
                     "302b3f4b30db8908400e6ce5c25efc3f788dff0c0f9557ede63371f07e9d81f7"],
    3.5: ["fcd03cc4e921bb43fa7af1724b179c678fdd54b912a5b47d8d8e5cc085e7c6e6",
          "67dc1dfd1da4c0f6f3fb11e58a462b5e89b3f67650505ce8524d601a55e8180e"],
}


@pytest.mark.parametrize("q", INV_LOG_M_SHA256)
def test_inv_log_antiderivative_keeps_its_bits(q):
    knee = math.exp(-(q + 1.0))
    grid = np.concatenate([[0.0], np.geomspace(1e-300, knee, 401),
                           knee * np.array([1.5, 4.0, 100.0])])
    big_m = antiderivative(modulus_inv_log(q))
    values = big_m(grid), np.array([float(big_m(s)) for s in grid.tolist()])
    got = [hashlib.sha256(np.ascontiguousarray(v, dtype="<f8").tobytes()).hexdigest()
           for v in values]
    assert got == INV_LOG_M_SHA256[q]


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
