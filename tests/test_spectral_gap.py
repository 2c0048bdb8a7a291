import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff_spectral import (
    SpectralVector,
    Spectrum,
    constant,
    gm_membership,
    power,
    power_spectrum,
    sobolev_norm,
    sum_decompose,
    weight_power_log,
    zero_vector,
)
from kirchhoff_spectral.errors import (
    InsufficientDecayError,
    InvalidWeightError,
    PreconditionError,
)
from tests.conftest import deadline


def tail_oracle(lam, comp, phi, rho, alpha, beta):
    """Direct tail evaluation, independent of the log-domain path."""
    total = 0.0
    for lk, ck in zip(lam, comp):
        if lk > rho and ck != 0.0:
            total += lk ** (4 * alpha) * ck * ck * math.exp(rho**beta * phi(lk))
    return total


def test_member_when_spectrum_below_first_threshold():
    spec = power_spectrum(5)
    rng = np.random.default_rng(0)
    u = SpectralVector(spec, rng.standard_normal(5))
    rep = gm_membership(u, constant(1.0), (5.0, 10.0), 0.25, 2.0)
    assert rep.member
    assert np.array_equal(rep.tails, [0.0, 0.0])
    assert np.array_equal(rep.margins, [5.0, 10.0])


def test_zero_vector_member():
    spec = power_spectrum(5)
    rep = gm_membership(zero_vector(spec), constant(1.0), (1.0,), 0.0, 2.0)
    assert rep.member
    assert rep.margins[0] == 1.0


def test_flat_components_fail_first_tail():
    # u_k = 1 on lam = 1..10, phi = 1, alpha = 0, beta = 2, rho = (1, 5):
    # tail_1 = 9 e > 1
    spec = power_spectrum(10)
    u = SpectralVector(spec, np.ones(10))
    rep = gm_membership(u, constant(1.0), (1.0, 5.0), 0.0, 2.0)
    assert not rep.member
    assert rep.tails[0] == pytest.approx(9.0 * math.e, rel=1e-12)
    oracle = tail_oracle(spec.lambdas, u.components, lambda s: 1.0, 1.0, 0.0, 2.0)
    assert rep.tails[0] == pytest.approx(oracle, rel=1e-12)


def test_overflowing_tail_is_nonmember_not_error():
    # exponent 4^3 * 30 = 1920 passes the cap, so the tail collapses to inf
    spec = Spectrum([1.0, 30.0])
    u = SpectralVector(spec, [1.0, 1.0])
    rep = gm_membership(u, power(1.0), (4.0, 40.0), 0.0, 3.0)
    assert not rep.member
    assert math.isinf(rep.tails[0])
    assert rep.margins[0] == -math.inf


def test_membership_monotone_under_scaling():
    spec = power_spectrum(12)
    rng = np.random.default_rng(1)
    base = np.exp(-spec.lambdas) * rng.uniform(0.5, 1.5, 12)
    params = (power(1.0), (2.0, 8.0, 16.0), 0.25, 2.0)
    u = SpectralVector(spec, base)
    if gm_membership(u, *params).member:
        for c in (0.75, 0.5, 0.25, 0.0):
            assert gm_membership(SpectralVector(spec, c * base), *params).member


def test_rho_validation():
    u = zero_vector(power_spectrum(5))
    with pytest.raises(PreconditionError):
        gm_membership(u, constant(1.0), (), 0.0, 2.0)
    with pytest.raises(PreconditionError):
        gm_membership(u, constant(1.0), (1.0, 1.0), 0.0, 2.0)
    with pytest.raises(PreconditionError):
        gm_membership(u, constant(1.0), (-1.0, 2.0), 0.0, 2.0)


@pytest.mark.parametrize("rhos, alpha, beta", [
    ((1.0, 2.0), math.nan, 2.0), ((1.0, 2.0), 0.0, math.nan), ((math.nan,), 0.0, 2.0),
    ((1.0, math.nan), 0.0, 2.0), ((math.nan, 2.0), 0.0, 2.0), ((1.0, math.inf), 0.0, 2.0),
    ((math.inf,), 0.0, 2.0),
], ids=["alpha_nan", "beta_nan", "rho_nan", "last_rho_nan", "first_rho_nan",
        "last_rho_inf", "rho_inf"])
def test_nan_or_infinite_membership_params_refused(rhos, alpha, beta):
    # each made gm_membership answer member=False with NaN margins
    with pytest.raises(PreconditionError):
        gm_membership(zero_vector(power_spectrum(5)), constant(1.0), rhos, alpha, beta)


def decompose_u0(lams, u0):
    """u0 on ``lams`` with u1 zero, phi = 1, alpha = 0 and beta = 2."""
    spec = Spectrum(lams)
    return sum_decompose(SpectralVector(spec, u0), zero_vector(spec), constant(1.0), 0.0, 2.0)


def test_band_edges_are_half_open():
    # lambda = sqrt(2) is the first ladder edge above 1: it closes the bar
    # band [1, sqrt(2)) and opens the hat band, which holds it
    root2 = math.sqrt(2.0)
    dec = decompose_u0([1.0, root2], [1e-3, 1e-3])
    assert dec.bar_bands == ((1.0, root2),)
    assert dec.hat_bands == ((root2, 2.0000000000000004),)
    assert np.array_equal(dec.u0_bar.components, [1e-3, 0.0])
    assert np.array_equal(dec.u0_hat.components, [0.0, 1e-3])


def test_empty_bands_are_gap_and_the_nonempty_ones_alternate():
    # the bands between 2 and 2.83 and between 4 and 16 hold no data: they
    # belong to neither part, and the three that hold data go bar, hat, bar
    dec = decompose_u0([1.0, 1.2, 3.0, 40.0], [0.3, 0.0, 1e-3, 1e-30])
    assert dec.bar_bands == ((1.0, 1.4142135623730951),
                             (16.000000000000004, 45.25483399593905))
    assert dec.hat_bands == ((2.8284271247461907, 4.000000000000001),)
    assert len(dec.s_values) == 11
    assert np.array_equal(dec.u0_bar.components, [0.3, 0.0, 0.0, 1e-30])
    assert np.array_equal(dec.u0_hat.components, [0.0, 0.0, 1e-3, 0.0])
    assert dec.rho_bar == (1.4142135623730951, 45.25483399593905)
    assert dec.rho_hat == (4.000000000000001,)
    assert dec.all_member()


def test_decompose_zero_datum():
    # no edges and no bands; the thresholds start at max(lambda_max, 1)
    for spec, base in [(power_spectrum(8), 8.0), (Spectrum([0.5]), 1.0)]:
        dec = sum_decompose(
            zero_vector(spec), zero_vector(spec), weight_power_log(1.0), 0.25, 2.0
        )
        assert np.all(dec.u0_bar.components == 0.0)
        assert np.all(dec.u0_hat.components == 0.0)
        assert dec.all_member()
        assert dec.s_values == () and dec.bar_bands == () and dec.hat_bands == ()
        assert dec.rho_bar == (base,)
        assert dec.rho_hat == (base * math.sqrt(2.0),)


@pytest.mark.parametrize("gamma,q", [(1.0, 1.0), (1.0, 2.0), (0.1, 2.0)])
@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_decompose_decaying_data(gamma, q, beta):
    spec = power_spectrum(64)
    lam = spec.lambdas
    u0 = SpectralVector(spec, np.exp(-gamma * lam**q))
    u1 = SpectralVector(spec, 0.5 * np.exp(-gamma * lam**q))
    dec = sum_decompose(u0, u1, power(1.0), 0.25, beta)

    # exact reconstruction, bitwise
    assert np.array_equal(dec.u0_bar.components + dec.u0_hat.components,
                          u0.components)
    assert np.array_equal(dec.u1_bar.components + dec.u1_hat.components,
                          u1.components)
    # disjoint supports and exact orthogonality
    overlap = (dec.u0_bar.components != 0.0) & (dec.u0_hat.components != 0.0)
    assert not np.any(overlap)
    assert float(dec.u0_bar.components @ dec.u0_hat.components) == 0.0
    assert float(dec.u1_bar.components @ dec.u1_hat.components) == 0.0

    # membership at the data exponents, checked by the membership oracle
    assert dec.all_member()

    # the two threshold sequences interleave
    rb, rh = dec.rho_bar, dec.rho_hat
    for i in range(min(len(rb), len(rh))):
        assert rb[i] < rh[i]
        if i + 1 < len(rb):
            assert rh[i] < rb[i + 1]


def test_decompose_zero_eigenvalue_band_closes_at_the_first_positive_one():
    # u0 carries data at lambda = 0, where no tail condition can be read;
    # its band closes at the first positive eigenvalue, then the ladder runs
    spec = Spectrum([0.0, 4.0, 9.0])
    u0 = SpectralVector(spec, [0.5, 0.1, 0.0])
    u1 = SpectralVector(spec, [0.0, 0.1, 0.01])
    dec = sum_decompose(u0, u1, weight_power_log(1.0), 0.25, 2.0)
    assert dec.s_values[:2] == (0.0, 4.0)
    assert dec.bar_bands[0] == (0.0, 4.0)
    assert np.array_equal(dec.u0_bar.components, [0.5, 0.0, 0.0])
    assert np.array_equal(dec.u0_bar.components + dec.u0_hat.components, u0.components)
    assert np.array_equal(dec.u1_bar.components + dec.u1_hat.components, u1.components)
    assert dec.all_member()


def test_decompose_band_search_that_passes_the_float_range_is_refused():
    # phi = 1 at alpha = 0 leaves the tail at lambda = 1.7e308 at about
    # e^(rho^2) > rho for every threshold rho; the sqrt(2) ladder overflows
    # before it passes that eigenvalue
    spec = Spectrum([1.0, 1.7e308])
    u1 = SpectralVector(spec, [0.1, 1.0])
    with pytest.raises(InsufficientDecayError, match="band search diverged above threshold 1 "):
        sum_decompose(zero_vector(spec), u1, constant(1.0), 0.0, 2.0)


@pytest.mark.parametrize("lams, u1, threshold", [
    # the ladder's first step above 1 that clears 1e308 is 1.27e308; the
    # trailing edge above it is inf
    ([1.0, 1e308], [0.1, 1.0], "1.27116e+308"),
    # the first candidate above the one supported eigenvalue is inf
    ([1.0, 1.7e308], [0.0, 1.0], "1.7e+308"),
    # the smallest subnormal times sqrt(2) rounds back to itself: the ladder
    # cannot climb from it
    ([5e-324], [1.0], "4.94066e-324"),
], ids=["trailing_edge", "first_candidate", "smallest_subnormal"])
def test_every_band_edge_must_stay_in_the_float_range(lams, u1, threshold):
    spec = Spectrum(lams)
    with deadline(10), pytest.raises(
            InsufficientDecayError,
            match=f"band search diverged above threshold {re.escape(threshold)} "):
        sum_decompose(zero_vector(spec), SpectralVector(spec, u1), constant(1.0), 0.0, 2.0)


def test_zero_datum_whose_fallback_threshold_leaves_the_float_range_is_refused():
    # a zero datum has no bands to search; hat's fallback threshold
    # max(lambda_max, 1) * sqrt(2) overflows, and the error names it
    spec = Spectrum([1.0, 1.5e308])
    with pytest.raises(InsufficientDecayError) as info:
        sum_decompose(zero_vector(spec), zero_vector(spec), constant(1.0), 0.0, 2.0)
    assert str(info.value) == ("the fallback threshold max(lambda_max, 1) * sqrt(2) = "
                               "1.5e+308 * sqrt(2) leaves the float range")


def test_decompose_norm_pythagoras():
    spec = power_spectrum(32)
    lam = spec.lambdas
    u0 = SpectralVector(spec, np.exp(-0.5 * lam))
    u1 = SpectralVector(spec, np.exp(-0.5 * lam))
    dec = sum_decompose(u0, u1, power(1.0), 0.25, 2.0)
    total = sobolev_norm(u0, 0.75) ** 2
    parts = sobolev_norm(dec.u0_bar, 0.75) ** 2 + sobolev_norm(dec.u0_hat, 0.75) ** 2
    assert parts == pytest.approx(total, rel=1e-13)


def test_member_parts_have_finite_probe_norms():
    # consistency check at finite truncation: a member stays in the weighted
    # class at radii built from its threshold list
    from kirchhoff_spectral import gevrey_norm

    spec = power_spectrum(64)
    lam = spec.lambdas
    u0 = SpectralVector(spec, np.exp(-lam**2))
    u1 = SpectralVector(spec, np.exp(-lam**2))
    dec = sum_decompose(u0, u1, power(1.0), 0.25, 2.0)
    assert dec.all_member()
    r = dec.rho_bar[0] ** dec.beta
    for vec, alpha in ((dec.u0_bar, 0.75), (dec.u1_bar, 0.25)):
        value = gevrey_norm(vec, power(1.0), r, alpha)
        assert math.isfinite(value)


def test_decompose_rejects_nondecaying_weighted_data():
    # flat components overflow the probe norm at the analytic weight, whose
    # exponent r*lambda passes 700 at the probe radius 1 on lambda_k = k**2
    spec = power_spectrum(64, 2.0)
    u = SpectralVector(spec, np.ones(64))
    with pytest.raises(InsufficientDecayError):
        sum_decompose(u, u, power(1.0), 0.25, 2.0)


def test_greedy_bound_certifies_tails():
    # every consecutive edge pair (s_n, s_{n+1}) satisfies the bound the
    # construction promises: full tail at or beyond s_{n+1}, weighted at
    # threshold s_n, stays below s_n
    spec = power_spectrum(64)
    lam = spec.lambdas
    u0 = SpectralVector(spec, np.exp(-lam**2))
    u1 = SpectralVector(spec, np.exp(-lam**2))
    dec = sum_decompose(u0, u1, power(1.0), 0.25, 2.0)
    for rho, cut in zip(dec.s_values[1:], dec.s_values[2:]):
        for comp, alpha in ((u0.components, 0.75), (u1.components, 0.25)):
            exponents = [
                4.0 * alpha * math.log(lk) + 2.0 * math.log(abs(ck))
                + rho**2 * lk
                for lk, ck in zip(lam, comp)
                if lk >= cut and ck != 0.0
            ]
            assert all(e < 700.0 for e in exponents)
            tail = math.fsum(math.exp(e) for e in exponents)
            assert tail <= rho + 1e-12


def test_threshold_power_past_float_range_is_an_infinite_weight():
    # rho^beta = 1e320 overflows a double: the one mode above rho gets an
    # infinite weight, and its zero component drops out of the tail
    u = SpectralVector(Spectrum([1.0, 1e200]), [1.0, 0.0])
    rep = gm_membership(u, constant(1.0), (1e160,), 0.25, 2.0)
    assert rep.member
    assert np.array_equal(rep.tails, [0.0])


def test_decomposition_band_search_past_float_range():
    # the band search at rho = 1e160 forms rho^2 = 1e320; no mode lies at or
    # above the candidate cut, so the tail is empty and the band closes
    spec = Spectrum([1e160])
    dec = sum_decompose(
        SpectralVector(spec, [1e-200]), SpectralVector(spec, [0.0]),
        constant(1.0), 0.0, 2.0,
    )
    assert dec.s_values[:2] == (1e160, 1e160 * math.sqrt(2.0))
    assert dec.all_member()


@st.composite
def decomposition_inputs(draw):
    """A spectrum with zero eigenvalues allowed, sparse data and one weight."""
    n = draw(st.integers(1, 12))
    lam = sorted(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 60.0) | st.floats(0.0, 1e4),
        min_size=n, max_size=n)))
    component = st.sampled_from([0.0, 0.0, 0.0, 0.0, 1e-30, -1e-8, 1e-3]) | st.floats(-1.0, 1.0)
    u0 = draw(st.lists(component, min_size=n, max_size=n))
    u1 = draw(st.lists(component, min_size=n, max_size=n))
    phi = draw(st.sampled_from([
        constant(1.0), constant(2.0), power(0.5), power(1.0), weight_power_log(1.0),
        weight_power_log(0.5, 1.0)]))
    alpha = draw(st.sampled_from([0.0, 0.25, 1.0]))
    beta = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
    return Spectrum(lam), u0, u1, phi, alpha, beta


@settings(max_examples=40, deadline=None)
@given(decomposition_inputs())
def test_decomposition_splits_the_datum_into_alternating_member_bands(inputs):
    spec, c0, c1, phi, alpha, beta = inputs
    u0, u1 = SpectralVector(spec, c0), SpectralVector(spec, c1)
    try:
        dec = sum_decompose(u0, u1, phi, alpha, beta)
    except (InsufficientDecayError, InvalidWeightError):
        return
    for whole, bar, hat in ((u0, dec.u0_bar, dec.u0_hat), (u1, dec.u1_bar, dec.u1_hat)):
        assert np.array_equal(bar.components + hat.components, whole.components)
        assert not np.any((bar.components != 0.0) & (hat.components != 0.0))
    lam = spec.lambdas
    support = (u0.components != 0.0) | (u1.components != 0.0)
    bands = sorted([(band, 0) for band in dec.bar_bands] + [(band, 1) for band in dec.hat_bands])
    for k in np.flatnonzero(support):
        holding = [side for (lo, hi), side in bands if lo <= lam[k] < hi]
        assert len(holding) == 1
        bar_owns = dec.u0_bar.components[k] != 0.0 or dec.u1_bar.components[k] != 0.0
        assert holding[0] == (0 if bar_owns else 1)
    assert [side for _, side in bands] == [i % 2 for i in range(len(bands))]
    assert dec.all_member()
