import tracemalloc

import numpy as np
import pytest

from kirchhoff_spectral import conditions
from kirchhoff_spectral.conditions import (
    check_phi_condition,
    default_sigma_grid,
    estimate_continuity_constant,
    log_log_slope,
)
from kirchhoff_spectral.errors import (
    InvalidWeightError,
    NotOmegaContinuousError,
    PreconditionError,
)
from kirchhoff_spectral.functions import (
    constant,
    modulus_power,
    modulus_sigma_log,
    power,
    table,
    weight_power_log,
)


@pytest.fixture(scope="module")
def grid():
    return default_sigma_grid()


def test_default_grid_density(grid):
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(1e6)
    # 512 points per decade over 12 decades
    assert grid.size == 512 * 12 + 1


def test_continuity_constant_identity():
    grid = np.linspace(0.0, 3.0, 64)
    L = estimate_continuity_constant(power(1.0), modulus_power(1.0), grid)
    assert L == pytest.approx(1.0, rel=1e-12)


def test_continuity_constant_constant_m():
    grid = np.linspace(0.0, 3.0, 64)
    assert estimate_continuity_constant(constant(4.0), modulus_power(1.0), grid) == 0.0


def test_continuity_constant_sqrt_pair_dense_grid():
    # oracle: with b = 0 in the grid the ratio |sqrt(a)| / sqrt(a) = 1 exactly,
    # and no pair exceeds it; a dense-grid search confirms the supremum
    dense = np.concatenate([[0.0], np.logspace(-8, 0.5, 400)])
    L = estimate_continuity_constant(power(0.5), modulus_power(0.5), dense)
    assert L == pytest.approx(1.0, rel=1e-10)
    coarse = np.linspace(0.0, 1.0, 40)
    assert estimate_continuity_constant(power(0.5), modulus_power(0.5), coarse) <= L + 1e-12


def test_continuity_division_guard():
    # omega frozen at its peak: gaps beyond the peak have omega > 0, so build
    # a modulus that is exactly zero on a gap instead
    omega = table([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    with pytest.raises(NotOmegaContinuousError):
        estimate_continuity_constant(power(1.0), omega, np.array([0.0, 0.5, 2.0]))


# ---------------------------------------------------------------------------
# the pairwise check runs in row blocks; this is the whole-table formula it
# must reproduce


def whole_table_constant(m, omega, g):
    mv = np.asarray(m(g), dtype=float)
    num = np.abs(mv[:, None] - mv[None, :])
    gaps = np.abs(g[:, None] - g[None, :])
    den = np.asarray(omega(gaps), dtype=float)
    off = gaps > 0.0
    ratio = np.where(off & (den > 0.0), num / np.where(den > 0.0, den, 1.0), 0.0)
    return float(np.max(ratio))


@pytest.mark.parametrize("block", [1, 7, 50, conditions.BLOCK_VALUES])
def test_row_blocks_match_whole_table(monkeypatch, block):
    monkeypatch.setattr(conditions, "BLOCK_VALUES", block)
    grids = [np.linspace(0.0, 2.0, 51), np.concatenate([[0.0], np.logspace(-4, 1, 73)])]
    for g in grids:
        for m, omega in ((power(0.5), modulus_power(0.5)), (power(2.0), modulus_power(1.0)),
                         (weight_power_log(1.0, 1.0), modulus_sigma_log(1.0))):
            assert estimate_continuity_constant(m, omega, g) == whole_table_constant(
                m, omega, g
            )


@pytest.mark.parametrize("block", [1, 6, conditions.BLOCK_VALUES])
def test_row_blocks_name_the_first_bad_pair(monkeypatch, block):
    # omega vanishes on gaps up to 1; row 0 has only gaps of 3 and more, so
    # the first bad pair in row-major order is (3, 3.5) in row 1
    monkeypatch.setattr(conditions, "BLOCK_VALUES", block)
    omega = table([0.0, 1.0, 2.0, 10.0], [0.0, 0.0, 1.0, 1.0])
    g = np.array([0.0, 3.0, 3.5])
    with pytest.raises(NotOmegaContinuousError) as exc:
        estimate_continuity_constant(power(1.0), omega, g)
    assert str(exc.value) == (
        "not omega-continuous on grid: omega(0.5) = 0 while |m(3) - m(3.5)| = 0.5"
    )


def test_pairwise_checks_stay_in_row_blocks():
    # a whole 2,001 x 2,001 float table is 32 MB, and the whole-table
    # formula peaks at 187 MB; the row blocks keep the check's peak below
    # one such table, whatever the grid size
    g = np.linspace(0.0, 10.0, 2001)
    tracemalloc.start()
    try:
        estimate_continuity_constant(power(0.5), modulus_power(0.5), g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_strict_lipschitz_constant_weight(grid):
    rep = check_phi_condition(modulus_power(1.0), weight_power_log(0.0), "strict")
    assert rep.passed
    assert rep.lambda_estimate == pytest.approx(1.0, rel=1e-9)
    assert rep.mode == "strict"
    assert rep.samples == grid.size
    # the log-Lipschitz pair levels off at the same constant
    rep = check_phi_condition(modulus_sigma_log(1.0), weight_power_log(0.0, 1.0), "strict")
    assert rep.passed
    assert rep.lambda_estimate == pytest.approx(1.0, rel=1e-9)


def test_strict_holder_pair():
    beta = 0.5
    rep = check_phi_condition(modulus_power(beta), weight_power_log(1.0 - beta), "strict")
    assert rep.passed
    assert rep.lambda_estimate == pytest.approx(1.0, rel=1e-9)


def test_weak_lipschitz_pair():
    rep = check_phi_condition(modulus_power(1.0), weight_power_log(2.0 / 3.0), "weak")
    assert rep.passed
    assert rep.lambda_estimate == pytest.approx(1.0, rel=1e-9)


def test_loss_pair_fails_on_large_grid():
    # log-thinned Hoelder weight: ratio grows like log(sigma)
    beta = 0.5
    rep = check_phi_condition(modulus_power(beta), weight_power_log(1.0 - beta, -1.0), "strict")
    assert not rep.passed
    assert rep.trend_slope > 0.01
    assert np.isfinite(rep.lambda_estimate)


def test_invalid_weight_detected():
    with pytest.raises(InvalidWeightError):
        check_phi_condition(modulus_power(1.0), power(1.0), "strict")


# NaN on the grid above e (inf * 0), and from 1.46e6 on only (s**50 overflows
# there, and log(s)**-300 underflows to 0 above 1.6e5), which the weak mode
# reaches at its arguments g**1.5 alone
@pytest.mark.parametrize("phi, mode", [
    (weight_power_log(1e6, -1e6), "strict"),
    (weight_power_log(1e6, -1e6), "weak"),
    (weight_power_log(50.0, -300.0), "weak"),
], ids=["strict", "weak", "weak_arguments_only"])
def test_nan_weight_detected(phi, mode):
    with pytest.raises(InvalidWeightError, match="= nan is not >= 1"):
        check_phi_condition(modulus_power(1.0), phi, mode)


def test_bad_mode_rejected():
    with pytest.raises(PreconditionError):
        check_phi_condition(modulus_power(1.0), weight_power_log(0.0), "medium")


def test_log_log_slope_recovers_power():
    x = np.logspace(0, 3, 50)
    assert log_log_slope(x, 5.0 * x**1.7) == pytest.approx(1.7, rel=1e-10)
