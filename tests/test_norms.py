import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff_spectral import (
    GevreyParams,
    GMParams,
    ScaleTraceConfig,
    SpectralVector,
    Spectrum,
    analysis,
    constant,
    gevrey_norm,
    gm_membership,
    norms,
    power,
    scale_norm_trace,
    sobolev_norm,
    weight_power_log,
    zero_vector,
)
from kirchhoff_spectral.errors import (
    InvalidWeightError,
    NormOverflowError,
    PreconditionError,
)
from kirchhoff_spectral.functions import scalar_callable
from tests.conftest import hand_trajectory

# independent direct-summation oracle, frozen from a 40-digit computation
GEVREY_THREE_MODE = 1.4032002079447654941


def direct_norm_oracle(lams, comps, phi, r, alpha):
    """Plain product-form summation, independent of the log-domain path.

    Each term is squared last: c * c alone turns subnormal for |c| below
    about 1e-154, which left the oracle 6e-11 off a term of 8.7e-290 from
    c = 2e-157 where the kernel was within 2e-14.
    """
    total = math.fsum(
        (lam ** (2.0 * alpha) * c * math.exp(0.5 * r * phi(lam))) ** 2
        for lam, c in zip(lams, comps)
        if c != 0.0
    )
    return math.sqrt(total)


def test_single_term_example(unit_spectrum):
    u = SpectralVector(unit_spectrum, [1.0])
    value = gevrey_norm(u, GevreyParams(constant(1.0), 1.0, 0.0))
    assert value == pytest.approx(1.6487212707001282, rel=1e-12)


def test_zero_vector_is_zero(small_spectrum):
    u = zero_vector(small_spectrum)
    assert gevrey_norm(u, GevreyParams(power(1.0), 1.0, 0.5)) == 0.0


def test_three_mode_derived_value(small_spectrum):
    u = SpectralVector(small_spectrum, [1.0, 0.5, 0.25])
    p = GevreyParams(power(1.0), 0.1, 0.25)
    value = gevrey_norm(u, p)
    assert value == pytest.approx(GEVREY_THREE_MODE, rel=1e-13)
    oracle = direct_norm_oracle([1.0, 2.0, 3.0], [1.0, 0.5, 0.25],
                                lambda s: s, 0.1, 0.25)
    assert value == pytest.approx(oracle, rel=1e-13)


def test_sobolev_examples():
    assert sobolev_norm(
        SpectralVector(Spectrum([1.0, 2.0, 3.0]), [3.0, 4.0, 0.0]), 0.0
    ) == pytest.approx(5.0, rel=1e-14)
    assert sobolev_norm(
        SpectralVector(Spectrum([2.0]), [1.0]), 0.5
    ) == pytest.approx(2.0, rel=1e-14)
    assert sobolev_norm(
        SpectralVector(Spectrum([1.0, 2.0]), [1.0, 1.0]), 0.25
    ) == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_r_zero_reduces_to_sobolev_exactly(small_spectrum):
    rng = np.random.default_rng(7)
    for alpha in (0.0, 0.25, 1.0):
        u = SpectralVector(small_spectrum, rng.standard_normal(3))
        assert gevrey_norm(u, GevreyParams(power(1.0), 0.0, alpha)) == sobolev_norm(
            u, alpha
        )


def test_zero_eigenvalue_handling():
    spec = Spectrum([0.0, 1.0])
    u = SpectralVector(spec, [1.0, 1.0])
    # at alpha = 0 the zero mode contributes its full weight
    assert sobolev_norm(u, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # at alpha > 0 the zero mode vanishes
    assert sobolev_norm(u, 0.5) == pytest.approx(1.0, rel=1e-14)


def test_overflow_reports_offending_mode():
    spec = Spectrum([1.0, 50.0])
    u = SpectralVector(spec, [1.0, 1.0])
    with pytest.raises(NormOverflowError) as exc:
        gevrey_norm(u, GevreyParams(power(1.0), 20.0, 0.0))
    assert exc.value.k == 1
    assert "norm overflow" in str(exc.value)


def test_overflow_delayed_by_log_form():
    # a tiny component cancels a huge weight before exponentiation; the
    # naive product form exp(1000) would overflow here
    spec = Spectrum([1.0, 50.0])
    u = SpectralVector(spec, [1.0, 1e-300])
    value = gevrey_norm(u, GevreyParams(power(1.0), 20.0, 0.0))
    assert math.isfinite(value)
    oracle = math.sqrt(math.exp(20.0) + math.exp(2.0 * math.log(1e-300) + 1000.0))
    assert value == pytest.approx(oracle, rel=1e-12)


def test_zero_component_under_infinite_weight_contributes_nothing():
    # r * phi(1e308) overflows to +inf; the zero component there must not
    # turn the norm into NaN, while a nonzero one overflows
    spec = Spectrum([1.0, 2.0, 1e308])
    p = GevreyParams(power(1.0), 2.0, 0.0)
    value = gevrey_norm(SpectralVector(spec, [1.0, 0.5, 0.0]), p)
    oracle = direct_norm_oracle([1.0, 2.0], [1.0, 0.5], lambda s: s, 2.0, 0.0)
    assert value == pytest.approx(oracle, rel=1e-14)
    with pytest.raises(NormOverflowError) as exc:
        gevrey_norm(SpectralVector(spec, [1.0, 0.5, 1e-300]), p)
    assert exc.value.k == 2
    assert exc.value.exponent == math.inf


# the kernel walks its rows in blocks; this is the whole-table formula it
# must reproduce bit for bit, first overflow included


def whole_table_sums(c, lam, alpha, weight=0.0):
    with np.errstate(divide="ignore", invalid="ignore"):
        e = 2.0 * np.log(np.abs(c))
        if alpha != 0.0:
            e = e + 4.0 * alpha * np.log(lam)
        e = np.atleast_2d(e + weight)
    nonzero = c != 0.0
    over = (e > norms.EXP_CAP) & nonzero
    terms = np.exp(np.where(nonzero & ~over, e, -math.inf))
    sums = np.array([math.fsum(row.tolist()) for row in terms])
    if not over.any():
        return sums, None
    sums[over.any(axis=1)] = math.inf
    i, k = np.argwhere(over)[0]
    return sums, (int(k), float(e[i, k]))


@pytest.mark.parametrize("budget", [1, 7, norms.BLOCK_VALUES])
@pytest.mark.parametrize("alpha", [0.0, 0.75])
def test_row_blocks_keep_every_sum_and_the_first_overflow(monkeypatch, budget, alpha):
    monkeypatch.setattr(norms, "BLOCK_VALUES", budget)
    # lambda = 0 takes the weight lam^(4 alpha) = 0 or 1; at lambda = 1e308
    # the weight r*(1 + lambda) is +inf, on zero components except in row 9,
    # whose overflow at mode 5 comes before the later rows' at mode 4
    lam = np.array([0.0, 0.5, 1.0, 2.0, 50.0, 1e308])
    c = np.random.default_rng(3).standard_normal((23, lam.size))
    c[:, 5] = 0.0
    c[9, 5] = 1e-300
    c[::4, 2] = 0.0
    radii = np.linspace(0.0, 20.0, len(c))
    with np.errstate(over="ignore"):
        weight = radii[:, None] * (1.0 + lam)
    cases = [(c, weight), (c[3], weight), (c, 1.0 + lam), (c[3], 0.0), (c[:11], weight[:11])]
    for cc, w in cases:
        sums, first = norms._weighted_sums(cc, lam, alpha, w)
        ref_sums, ref_first = whole_table_sums(cc, lam, alpha, w)
        assert np.array_equal(sums, ref_sums)
        assert first == ref_first
    assert norms._weighted_sums(c, lam, alpha, weight)[1] == (5, math.inf)
    assert whole_table_sums(c[10:], lam, alpha, weight[10:])[1][0] == 4


def test_weighted_sums_stay_in_row_blocks():
    # the whole-table kernel built its exponent and term tables at full
    # size, 16 MB each at 1,001 samples of 2,048 modes, and peaked at 53 MB;
    # the row blocks keep a few temporaries of 256 KB
    lam = np.arange(1.0, 2049.0)
    u = np.random.default_rng(5).standard_normal((1001, lam.size)) * np.exp(-lam / 50.0)
    weight = np.linspace(0.1, 0.08, 1001)[:, None] * np.log(1.0 + lam)
    tracemalloc.start()
    try:
        norms._weighted_sums(u, lam, 0.5, weight)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def whole_table_trace(tr, cfg):
    """The trace's norms from whole (samples, modes) weight tables, a reference."""
    lam = tr.spectrum.lambdas
    with np.errstate(over="ignore"):
        weight = (cfg.r0 - cfg.big_r * tr.t)[:, None] * np.asarray(cfg.phi(lam), dtype=float)
    return (norms._norms(tr.u, lam, cfg.alpha + 0.5, weight),
            norms._norms(tr.v, lam, cfg.alpha, weight))


def test_norm_trace_stays_in_row_blocks():
    # the whole weight table alone was 16 MB at 1,001 samples of 2,048 modes;
    # the trace forms its weights a row block at a time, with the same bits
    lam = np.arange(1.0, 2049.0)
    rng = np.random.default_rng(12)
    u = rng.standard_normal((1001, lam.size)) * np.exp(-lam / 50.0)
    v = rng.standard_normal((1001, lam.size)) * np.exp(-lam / 40.0)
    tr = hand_trajectory(Spectrum(lam), u, v, np.linspace(0.0, 1.0, 1001))
    cfg = ScaleTraceConfig(weight_power_log(1.0, 0.0), 0.1, 0.02, 0.25)
    tracemalloc.start()
    try:
        trace = scale_norm_trace(tr, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    u_ref, v_ref = whole_table_trace(tr, cfg)
    assert trace.u_norms.tobytes() == u_ref.tobytes()
    assert trace.v_norms.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("budget", [1, 7, analysis.BLOCK_VALUES])
def test_norm_trace_raises_the_whole_tables_first_overflow(monkeypatch, budget):
    # u overflows only in its last row, v in its first: every u row goes
    # before any v row, so the error names u's mode, as the whole table does
    monkeypatch.setattr(analysis, "BLOCK_VALUES", budget)
    spec = Spectrum([1.0, 2.0, 1000.0, 5000.0])
    u = np.zeros((9, 4))
    u[:, 0] = 1.0
    u[8, 2] = 1e-3
    v = np.zeros((9, 4))
    v[0, 3] = 1.0
    tr = hand_trajectory(spec, u, v, np.arange(9) * 0.01)
    cfg = ScaleTraceConfig(power(1.0), 1.0, 0.5, 0.0)
    with pytest.raises(NormOverflowError) as ref:
        whole_table_trace(tr, cfg)
    with pytest.raises(NormOverflowError) as got:
        scale_norm_trace(tr, cfg)
    assert got.value.k == ref.value.k == 2
    assert got.value.exponent == ref.value.exponent


def test_invalid_weight_rejected(small_spectrum):
    u = SpectralVector(small_spectrum, [1.0, 1.0, 1.0])
    with pytest.raises(InvalidWeightError):
        gevrey_norm(u, GevreyParams(constant(0.5), 1.0, 0.0))


def test_params_validation():
    with pytest.raises(PreconditionError):
        GevreyParams(constant(1.0), -0.1, 0.0)
    with pytest.raises(PreconditionError):
        GevreyParams(constant(1.0), 0.0, -1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda u: GevreyParams(constant(1.0), math.nan, 0.0),
        lambda u: GevreyParams(constant(1.0), 0.0, math.nan),
        lambda u: sobolev_norm(u, math.nan),
        lambda u: ScaleTraceConfig(constant(1.0), math.nan, 0.0, 0.0),
        lambda u: ScaleTraceConfig(constant(1.0), 1.0, math.nan, 0.0),
        lambda u: ScaleTraceConfig(constant(1.0), 1.0, 0.0, math.nan),
    ],
    ids=["gevrey_r", "gevrey_alpha", "sobolev_alpha", "trace_r0", "trace_big_r",
         "trace_alpha"],
)
def test_nan_parameter_refused(small_spectrum, make):
    with pytest.raises(PreconditionError):
        make(SpectralVector(small_spectrum, [1.0, 1.0, 1.0]))


@st.composite
def vector_and_spectrum(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    lams = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=20.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    comps = draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return Spectrum(lams), comps


@settings(max_examples=60, deadline=None)
@given(vector_and_spectrum(), st.floats(min_value=-4.0, max_value=4.0))
def test_homogeneity(pair, c):
    spec, comps = pair
    u = SpectralVector(spec, comps)
    cu = SpectralVector(spec, [c * x for x in comps])
    p = GevreyParams(weight_power_log(1.0), 0.5, 0.25)
    assert gevrey_norm(cu, p) == pytest.approx(
        abs(c) * gevrey_norm(u, p), rel=1e-9, abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(vector_and_spectrum())
def test_triangle_inequality(pair):
    spec, comps = pair
    rng = np.random.default_rng(0)
    other = rng.standard_normal(spec.n)
    u = SpectralVector(spec, comps)
    w = SpectralVector(spec, other)
    s = SpectralVector(spec, np.asarray(comps) + other)
    p = GevreyParams(weight_power_log(1.0), 0.3, 0.5)
    assert gevrey_norm(s, p) <= gevrey_norm(u, p) + gevrey_norm(w, p) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    vector_and_spectrum(),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_monotone_in_radius(pair, r1, dr):
    spec, comps = pair
    u = SpectralVector(spec, comps)
    lo = gevrey_norm(u, GevreyParams(weight_power_log(1.0), r1, 0.25))
    hi = gevrey_norm(u, GevreyParams(weight_power_log(1.0), r1 + dr, 0.25))
    assert hi >= lo * (1.0 - 1e-12)


def test_monotone_in_alpha_when_lambdas_above_one():
    spec = Spectrum([1.0, 2.0, 5.0])
    rng = np.random.default_rng(3)
    u = SpectralVector(spec, rng.standard_normal(3))
    norms = [sobolev_norm(u, a) for a in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(norms, norms[1:]))


@st.composite
def component_rows(draw):
    """A spectrum with lambda >= 1 and a (rows, modes) matrix with zeros."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=5))
    lams = sorted(
        draw(st.lists(st.floats(1.0, 20.0), min_size=n, max_size=n))
    )
    value = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    comps = draw(
        st.lists(
            st.lists(value, min_size=n, max_size=n), min_size=rows, max_size=rows
        )
    )
    return Spectrum(lams), np.array(comps)


WEIGHTS = [constant(1.0), power(1.0), weight_power_log(1.0)]


@settings(max_examples=80, deadline=None)
@given(
    component_rows(),
    st.sampled_from(WEIGHTS),
    st.floats(0.0, 1.0),
    st.floats(0.05, 2.0),
    st.floats(0.0, 1.0),
)
def test_batched_rows_match_single_vector_and_oracle(pair, phi, alpha, r0, beta):
    # each row of a whole-trajectory call is bit-identical to that row alone
    spec, comps = pair
    rows = comps.shape[0]
    lam = spec.lambdas
    t = np.arange(rows) * 0.01
    tr = hand_trajectory(spec, comps, comps[::-1].copy(), t)
    trace = scale_norm_trace(tr, ScaleTraceConfig(phi, r0, 1.0, alpha))
    for i in range(rows):
        p_u = GevreyParams(phi, float(trace.radii[i]), alpha + 0.5)
        p_v = GevreyParams(phi, float(trace.radii[i]), alpha)
        assert np.array_equal(
            trace.u_norms[i], gevrey_norm(SpectralVector(spec, tr.u[i]), p_u)
        )
        assert np.array_equal(
            trace.v_norms[i], gevrey_norm(SpectralVector(spec, tr.v[i]), p_v)
        )

    # the tails of the same kernel match the product form over the modes
    # above each threshold
    rhos = (1.0, 2.5, 4.0)
    u = SpectralVector(spec, comps[0])
    rep = gm_membership(u, GMParams(phi, rhos, alpha, beta))
    for rho, tail in zip(rhos, rep.tails):
        keep = lam > rho
        oracle = direct_norm_oracle(
            lam[keep], comps[0][keep], scalar_callable(phi), rho**beta, alpha
        )
        assert tail == pytest.approx(oracle**2, rel=1e-12, abs=1e-300)
