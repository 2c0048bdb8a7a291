import hashlib

import numpy as np
import pytest

from kirchhoff_spectral import FunctionSpec, PresetBundle, constant, get_preset, list_presets
from kirchhoff_spectral.cli import main
from kirchhoff_spectral.conditions import check_phi_condition


def test_catalog_is_nonempty_sorted_and_stable():
    a = list_presets()
    b = list_presets()
    assert a
    assert [x.name for x in a] == sorted(x.name for x in a)
    assert [x.name for x in a] == [x.name for x in b]


def test_catalog_contains_required_entries():
    names = {b.name for b in list_presets()}
    assert "table1_lipschitz" in names
    assert "table2_holder_beta" in names
    assert "table3_loglog" in names

    holder = get_preset("table2_holder_beta")
    # phi(sigma) = sigma^(2/(beta+2)) with beta = 1/2
    assert holder.phi.params["p"] == pytest.approx(2.0 / 2.5)
    assert not holder.loss_regime

    loglog = get_preset("table3_loglog")
    assert loglog.loss_regime
    assert loglog.mode == "strict"
    # m(sigma) built from |log sigma|^(-1/2), phi from sigma/log(sigma)
    assert loglog.omega.kind == "modulus_inv_log"
    assert loglog.phi.params == {"p": 1.0, "ell": -1.0}


# (mode, loss_regime, family) of every preset, recorded when each bundle still
# stated all three by hand
RECORDED_CLASSES = {
    "table1_analytic": ("strict", False, "table1"),
    "table1_holder": ("strict", False, "table1"),
    "table1_lipschitz": ("strict", False, "table1"),
    "table1_loglipschitz": ("strict", False, "table1"),
    "table1_optimal_scaled": ("strict", False, "table1"),
    "table2_analytic": ("weak", False, "table2"),
    "table2_holder_beta": ("weak", False, "table2"),
    "table2_lipschitz": ("weak", False, "table2"),
    "table3_holder_log": ("strict", True, "table3"),
    "table3_loglipschitz_cubed": ("strict", True, "table3"),
    "table3_loglog": ("strict", True, "table3"),
    "table4_holder_log": ("weak", True, "table4"),
    "table4_lipschitz_log": ("weak", True, "table4"),
}


def test_table_fixes_mode_regime_and_family():
    got = {b.name: (b.mode, b.loss_regime, b.family) for b in list_presets()}
    assert got == RECORDED_CLASSES


@pytest.mark.parametrize("argv, digest", [
    (["presets", "--json"], "18caa39ae7b1dfebf7d8a83e89c89df1aa332e1a7f2457ffbb03f42b65f4faa3"),
    (["presets"], "31b77f23eddbcbb3bdea1616e31638bc11eb09a00dfe21ba969aad0102e88975"),
], ids=["json", "text"])
def test_cli_catalog_keeps_its_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["table5_holder", "holder", "tables1_holder"])
def test_bundle_naming_no_table_is_refused(name):
    one = constant(1.0)
    with pytest.raises(ValueError, match="names no table"):
        PresetBundle(name=name, omega=one, phi=one, m=one, row="")


def test_unknown_preset_raises():
    with pytest.raises(KeyError, match="unknown preset"):
        get_preset("table9_mystery")


def test_preset_functions_roundtrip_serialization():
    for bundle in list_presets():
        for spec in (bundle.omega, bundle.phi, bundle.m):
            back = FunctionSpec.from_dict(spec.to_dict())
            assert back == spec
            sig = np.array([0.0, 0.5, 3.0, 1e5])
            assert np.array_equal(back(sig), spec(sig))


def test_every_preset_m_is_nonnegative():
    sig = np.logspace(-9, 9, 200)
    for bundle in list_presets():
        assert np.all(bundle.m(sig) >= 0.0)
        assert float(bundle.m(0.0)) >= 0.0


@pytest.mark.parametrize("bundle", list_presets(), ids=lambda b: b.name)
def test_preset_condition_outcome(bundle):
    grid = np.logspace(-6, 6, 12 * 128 + 1)  # 128 points a decade
    rep = check_phi_condition(bundle.omega, bundle.phi, bundle.mode, grid)
    if bundle.loss_regime:
        assert not rep.passed
        assert rep.trend_slope > 0.01
    else:
        assert rep.passed
        assert np.isfinite(rep.lambda_estimate)
