import copy
import dataclasses
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kirchhoff_spectral import scenario
from kirchhoff_spectral.artifacts import blas_core, dump_json, sha256_text
from kirchhoff_spectral.cli import main
from kirchhoff_spectral.dynamics import IntegratorConfig
from kirchhoff_spectral.errors import (
    DomainError,
    InsufficientDecayError,
    NormOverflowError,
    ScenarioError,
)
from kirchhoff_spectral.functions import KINDS, RULES, antiderivative, modulus_inv_log
from kirchhoff_spectral.scenario import load_config, run_scenario, validate_scenario
from tests.conftest import deadline, pin_note


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def simulate_config(**overrides):
    cfg = {
        "version": 1,
        "name": "single_mode_cubic",
        "spectrum": {"explicit": [1.0]},
        "data": {
            "u0": {"basis": {"index": 0, "amplitude": 1.0}},
            "u1": "zero",
        },
        "functions": {"m": {"kind": "power", "beta": 1.0}},
        "task": "simulate",
        "params": {"t_end": 5.0},
    }
    cfg.update(overrides)
    return cfg


def test_validate_rejects_missing_task(tmp_path):
    cfg = simulate_config()
    del cfg["task"]
    with pytest.raises(ScenarioError, match="task"):
        validate_scenario(cfg)


def test_validate_rejects_bad_version():
    with pytest.raises(ScenarioError, match="version"):
        validate_scenario(simulate_config(version=99))


def test_validate_rejects_unresolvable_function():
    cfg = simulate_config()
    cfg["functions"] = {"m": {"kind": "warp", "p": 1.0}}
    with pytest.raises(ScenarioError, match="functions.m"):
        validate_scenario(cfg)
    for m in ({"kind": "constant", "c": math.nan}, {"kind": "affine", "a": math.inf, "b": 1.0}):
        cfg["functions"] = {"m": m}
        with pytest.raises(ScenarioError, match="functions.m: .* must be finite"):
            validate_scenario(cfg)


def test_parse_error_is_position_annotated(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(ScenarioError, match="line 1"):
        load_config(path)


def test_simulate_task_artifacts(tmp_path):
    path = write_config(tmp_path, simulate_config())
    manifest = run_scenario(path, out_dir=tmp_path / "out")
    names = {a["name"] for a in manifest.to_dict()["artifacts"]}
    assert names == {"trajectory.csv", "trajectory_summary.json"}
    assert manifest.summary["ok"]
    assert manifest.summary["hamiltonian_drift"] < 1e-7

    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,u_1,v_1"
    assert (tmp_path / "out" / "manifest.json").exists()


def test_preset_conditions_scenario(tmp_path):
    cfg = {
        "version": 1,
        "name": "table1_lipschitz",
        "spectrum": {"explicit": [1.0]},
        "data": {"u0": "zero", "u1": "zero"},
        "functions": {"preset": "table1_lipschitz"},
        "task": "conditions",
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    names = [a["name"] for a in manifest.to_dict()["artifacts"]]
    assert "condition_report.json" in names
    report = json.loads((tmp_path / "out" / "condition_report.json").read_text())
    assert report["passed"] is True
    assert report["lambda_estimate"] == pytest.approx(1.0, rel=1e-9)


def test_determinism_byte_identical(tmp_path):
    cfg = simulate_config()
    path = write_config(tmp_path, cfg)
    run_scenario(path, out_dir=tmp_path / "a")
    run_scenario(path, out_dir=tmp_path / "b")
    for name in ("trajectory.csv", "trajectory_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert ma["artifacts"] == mb["artifacts"]
    assert ma["scenario_hash"] == mb["scenario_hash"]


@pytest.mark.byte_pin
def test_bundled_scenarios_match_golden_hashes(tmp_path):
    # the bytes of every bundled scenario's artifacts are pinned, not only
    # reproducible within one run
    root = Path(__file__).resolve().parents[1]
    golden = json.loads((root / "benchmarks" / "golden.json").read_text())
    hashes = {}
    for path in sorted((root / "scenarios").glob("*.json")):
        manifest = run_scenario(path, out_dir=tmp_path / path.stem)
        hashes[path.stem] = {a["name"]: a["sha256"] for a in manifest.to_dict()["artifacts"]}
    assert hashes == golden, pin_note()


def test_random_data_is_seeded(tmp_path):
    cfg = simulate_config(
        spectrum={"generator": {"count": 8}},
        data={"u0": {"random": {"scale": 0.5}}, "u1": "zero"},
        seed=42,
    )
    path = write_config(tmp_path, cfg)
    m1 = run_scenario(path, out_dir=tmp_path / "a")
    m2 = run_scenario(path, out_dir=tmp_path / "b")
    assert [a["sha256"] for a in m1.to_dict()["artifacts"]] == [
        a["sha256"] for a in m2.to_dict()["artifacts"]
    ]
    # a different seed changes the data, or the run is not seeded at all
    m3 = run_scenario({**cfg, "seed": 43}, out_dir=tmp_path / "c")
    assert [a["sha256"] for a in m1.to_dict()["artifacts"]] != [
        a["sha256"] for a in m3.to_dict()["artifacts"]
    ]
    assert m3.scenario_hash != m1.scenario_hash


def test_scenario_hash_tells_tolerances_apart(tmp_path):
    # the config is the run's input, so a tolerance that changes the bytes
    # changes the hash as well
    tight = simulate_config(params={"t_end": 5.0, "rel_tol": 1e-10})
    loose = simulate_config(params={"t_end": 5.0, "rel_tol": 1e-6})
    m1 = run_scenario(tight, out_dir=tmp_path / "a")
    m2 = run_scenario(loose, out_dir=tmp_path / "b")
    assert m1.scenario_hash != m2.scenario_hash
    assert m1.artifacts != m2.artifacts


def test_scenario_hash_is_the_hash_of_the_config_as_read(tmp_path):
    path = write_config(tmp_path, simulate_config())
    manifest = run_scenario(path, out_dir=tmp_path / "out")
    assert manifest.scenario_hash == sha256_text(dump_json(load_config(path)))


def test_manifest_records_numpy_and_the_blas_core(tmp_path):
    run_scenario(simulate_config(), out_dir=tmp_path)
    saved = json.loads((tmp_path / "manifest.json").read_text())
    assert saved["numpy_version"] == np.__version__
    assert saved["blas_core"] == blas_core() != ""


def test_error_record_written(tmp_path):
    cfg = simulate_config()
    cfg["functions"] = {"m": {"kind": "affine", "a": -2.0, "b": 0.0}}
    path = write_config(tmp_path, cfg)
    with pytest.raises(Exception):
        run_scenario(path, out_dir=tmp_path / "out")
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "NegativeNonlinearityError"
    assert record["task"] == "simulate"


def test_negative_power_at_zero_sigma_records_a_domain_error(tmp_path):
    # sigma**-0.5 is singular at sigma = 0, so m is refused before the run
    cfg = simulate_config(data={"u0": "zero", "u1": {"basis": {"index": 0}}})
    cfg["functions"] = {"m": {"kind": "power", "beta": -0.5}}
    with pytest.raises(ScenarioError, match="negative power is singular") as info:
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert info.value.field == "functions.m"
    assert isinstance(info.value.__cause__, DomainError)
    assert not (tmp_path / "out").exists()


# sigma**-0.5 is singular at 0, and 1/(1 - sigma)**2 is undefined from sigma = 1 on
@pytest.mark.parametrize("m", [{"kind": "power", "beta": -0.5},
                               {"kind": "pohozaev", "a": 1.0, "b": -1.0}],
                         ids=["power", "pohozaev"])
@pytest.mark.parametrize("task", [t for t, e in scenario.TASKS.items() if "m" in e.functions])
def test_m_undefined_on_part_of_the_half_line_refused_before_run(tmp_path, monkeypatch,
                                                                 task, m):
    # the datum's sigma(u0) = 0.11 lies inside both domains
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    cfg = task_config(task)
    cfg["data"] = {"u0": {"explicit": [0.3, 0.1]}, "u1": {"explicit": [0.1, 0.0]}}
    cfg["functions"] = {"preset": "table1_lipschitz", "m": m}
    with pytest.raises(ScenarioError, match=r"must be defined on \[0, inf\)") as info:
        validate_scenario(cfg)
    assert info.value.field == "functions.m"
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# phi below 1, NaN (3**1e6 * log(3)**-1e6 = inf * 0 at lambda = 3) and
# undefined (a negative power at lambda = 0) at one eigenvalue
@pytest.mark.parametrize("phi, spectrum, text", [
    ({"kind": "constant", "c": 0.5}, [1.0, 2.0], r"weight phi\(1\) = 0.5 is not >= 1"),
    ({"kind": "weight_power_log", "p": 1e6, "ell": -1e6}, [1.0, 3.0],
     r"weight phi\(3\) = nan is not >= 1"),
    ({"kind": "power", "beta": -0.5}, [0.0, 1.0], "negative power is singular"),
], ids=["below_one", "nan", "undefined"])
@pytest.mark.parametrize("task", ["norms", "decompose"])
def test_phi_that_is_no_weight_on_the_spectrum_refused_before_run(
        tmp_path, capsys, monkeypatch, task, phi, spectrum, text):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    cfg = task_config(task)
    cfg["spectrum"] = {"explicit": spectrum}
    cfg["data"] = {"u0": {"explicit": [0.3, 0.0]}, "u1": "zero"}
    cfg["functions"] = {"preset": "table1_lipschitz", "phi": phi}
    with pytest.raises(ScenarioError, match=text) as info:
        validate_scenario(cfg)
    assert info.value.field == "functions.phi"
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 1
    assert "invalid: functions.phi:" in capsys.readouterr().err
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# power(1) is below 1 up to sigma = 1, and weight_power_log(1e6, -1e6) NaN above e
@pytest.mark.parametrize("phi, text", [
    ({"kind": "power", "beta": 1.0}, r"weight phi\(1e-06\) = 1e-06 is not >= 1"),
    ({"kind": "weight_power_log", "p": 1e6, "ell": -1e6}, "= nan is not >= 1"),
], ids=["below_one", "nan"])
def test_conditions_phi_that_is_no_weight_on_the_grid_refused_before_run(
        tmp_path, capsys, phi, text):
    cfg = conditions_config()
    cfg["functions"] = {"preset": "table1_lipschitz", "phi": phi}
    with pytest.raises(ScenarioError, match=text) as info:
        validate_scenario(cfg)
    assert info.value.field == "functions.phi"
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 1
    assert "invalid: functions.phi:" in capsys.readouterr().err
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_decompose_task(tmp_path):
    cfg = {
        "version": 1,
        "name": "gap_split",
        "spectrum": {"generator": {"count": 32}},
        "data": {
            "u0": {"profile": {"amplitude": 1.0, "gamma": 1.0, "exponent": 1.0}},
            "u1": {"profile": {"amplitude": 0.5, "gamma": 1.0, "exponent": 1.0}},
        },
        "functions": {"phi": {"kind": "power", "beta": 1.0}},
        "task": "decompose",
        "params": {"alpha": 0.25, "beta": 2.0},
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    assert manifest.summary["all_member"] is True
    dec = json.loads((tmp_path / "out" / "decomposition.json").read_text())
    assert all(dec["membership"].values())
    bar = (tmp_path / "out" / "part_bar.csv").read_text().splitlines()
    assert bar[0] == "lambda,u0,u1"
    assert len(bar) == 33


def test_reparametrize_task(tmp_path):
    cfg = {
        "version": 1,
        "name": "roundtrip",
        "spectrum": {"explicit": [1.0]},
        "data": {
            "u0": {"basis": {"index": 0, "amplitude": 1.0}},
            "u1": {"basis": {"index": 0, "amplitude": 1.0}},
        },
        "functions": {"m": {"kind": "constant", "c": 1.0}},
        "task": "reparametrize",
        "params": {"t_end": 0.7},
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    assert manifest.summary["max_deviation"] < 1e-5


def test_uniqueness_task(tmp_path):
    cfg = {
        "version": 1,
        "name": "uniq",
        "spectrum": {"explicit": [1.0, 2.0]},
        "data": {
            "u0": {"basis": {"index": 0, "amplitude": 1.0}},
            "u1": {"explicit": [0.0, 0.5]},
        },
        "functions": {"m": {"kind": "constant", "c": 1.0}},
        "task": "uniqueness",
        "params": {},
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    rep = json.loads((tmp_path / "out" / "uniqueness_report.json").read_text())
    assert rep["as1"] == 0.0 and rep["as2"] == 0.0
    assert rep["hp_main_holds"] is False
    assert rep["psi_prime0"] == 0.0 and rep["psi_second0"] == 0.0


def test_norms_task(tmp_path):
    cfg = {
        "version": 1,
        "name": "norm_trace",
        "spectrum": {"explicit": [1.0, 2.0]},
        "data": {"u0": {"explicit": [1.0, 0.25]}, "u1": "zero"},
        "functions": {
            "m": {"kind": "constant", "c": 1.0},
            "phi": {"kind": "weight_power_log", "p": 1.0, "ell": 0.0},
        },
        "task": "norms",
        "params": {"t_end": 0.5, "r0": 1.0, "R": 0.5, "alpha": 0.25},
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "norm_trace.csv").read_text().splitlines()
    assert lines[0] == "t,radius,u_norm,v_norm"
    assert len(lines) == 1002
    assert manifest.summary["max_u_norm"] > 0.0


def test_invariants_task(tmp_path):
    cfg = {
        "version": 1,
        "name": "invariants",
        "spectrum": {"generator": {"count": 4}},
        "data": {"u0": {"random": {"scale": 0.3}}, "u1": {"random": {}}},
        "functions": {"m": {"kind": "pohozaev", "a": 1.0, "b": 1.0}},
        "task": "invariants",
        "params": {"t_end": 3.0},
        "seed": 5,
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    drifts = manifest.summary["drifts"]
    assert drifts["hamiltonian"] < 1e-7
    # m is the matching special nonlinearity: the second invariant holds too
    assert drifts["pohozaev"] < 1e-7
    header = (tmp_path / "out" / "invariants.csv").read_text().splitlines()[0]
    assert header == "t,hamiltonian,higher_order_energy,pohozaev"
    rep = json.loads((tmp_path / "out" / "invariants_report.json").read_text())
    assert rep["degeneracy"] == "strictly_hyperbolic"
    # any other m has no second invariant, and the run writes no column for it
    cfg["functions"] = {"m": {"kind": "affine", "a": 1.0, "b": 1.0}}
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "affine")
    assert list(manifest.summary["drifts"]) == ["hamiltonian"]
    header = (tmp_path / "affine" / "invariants.csv").read_text().splitlines()[0]
    assert header == "t,hamiltonian,higher_order_energy"


def test_dependence_task(tmp_path):
    cfg = {
        "version": 1,
        "name": "dependence",
        "spectrum": {"explicit": [1.0]},
        "data": {"u0": {"basis": {"index": 0, "amplitude": 1.0}}, "u1": "zero"},
        "functions": {"m": {"kind": "constant", "c": 1.0}},
        "task": "dependence",
        "params": {
            "t_end": 1.0,
            "family": {"kind": "m_offset", "values": [0.25, 0.125, 0.0625, 0.03125]},
        },
    }
    manifest = run_scenario(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    rep = json.loads((tmp_path / "out" / "dependence_report.json").read_text())
    assert len(rep["deviations"]) == 4
    assert rep["deviations"][0] > rep["deviations"][-1]
    assert 0.8 <= rep["fitted_slope_vs_input"] <= 1.2


def test_cli_run_parallel_jobs(tmp_path):
    p1 = write_config(tmp_path, simulate_config(), "one.json")
    p2 = write_config(
        tmp_path, simulate_config(name="second", params={"t_end": 2.0}), "two.json"
    )
    code = main(
        ["run", str(p1), str(p2), "--out-dir", str(tmp_path / "par"), "--jobs", "2"]
    )
    assert code == 0
    assert (tmp_path / "par" / "one" / "trajectory.csv").exists()
    assert (tmp_path / "par" / "two" / "trajectory.csv").exists()


def test_cli_validate_and_run(tmp_path, capsys):
    path = write_config(tmp_path, simulate_config())
    assert main(["validate", str(path)]) == 0
    assert "single_mode_cubic" in capsys.readouterr().out

    assert main(["run", str(path), "--out-dir", str(tmp_path / "cli_out")]) == 0
    assert (tmp_path / "cli_out" / "trajectory.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 1


@pytest.mark.parametrize("flag", ["--seed", "--tolerance-scale"])
def test_cli_run_takes_no_override(tmp_path, capsys, flag):
    # a run's inputs are its config and the tool; no flag changes what it computes
    path = write_config(tmp_path, simulate_config())
    with pytest.raises(SystemExit) as info:
        main(["run", str(path), flag, "3", "--out-dir", str(tmp_path / "out")])
    assert info.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "table1_lipschitz" in out
    assert "table3_loglog" in out

    assert main(["presets", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert any(e["name"] == "table2_holder_beta" for e in catalog)


def test_cli_run_reports_failure(tmp_path, capsys):
    cfg = simulate_config()
    cfg["functions"] = {"m": {"kind": "affine", "a": -1.0, "b": 0.0}}
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1


def four_mode_config(**overrides):
    return simulate_config(spectrum={"explicit": [1.0, 2.0, 3.0, 4.0]}, **overrides)


@pytest.mark.parametrize(
    "cfg, field",
    [
        (four_mode_config(data={"u0": {"basis": {"index": -1}}, "u1": "zero"}),
         "data.u0"),
        (four_mode_config(data={"u0": {"basis": {"index": 9}}, "u1": "zero"}),
         "data.u0"),
        (four_mode_config(data={"u0": "zero", "u1": {"explicit": [1.0]}}),
         "data.u1"),
        (four_mode_config(data={"u0": {"basis": 3}, "u1": "zero"}), "data.u0"),
        (simulate_config(spectrum={"explicit": []}), "spectrum"),
        (simulate_config(spectrum={"generator": {"count": 0}}), "spectrum.generator.count"),
        (simulate_config(functions={"m": {"kind": "constant", "c": math.nan}}),
         "functions.m"),
        (simulate_config(spectrum={"generator": {"cout": 8}}), "spectrum.generator.cout"),
        (simulate_config(spectrum={"explicit": [1.0], "generator": {}}), "spectrum"),
        (simulate_config(spectrum={"explicit": [1.0], "count": 2}), "spectrum.count"),
        (four_mode_config(data={"u0": {"profile": {"gama": 2.0}}, "u1": "zero"}),
         "data.u0.profile.gama"),
        (four_mode_config(data={"u0": {"basis": {"index": 0}, "explicit": [1.0] * 4},
                                "u1": "zero"}), "data.u0"),
        (four_mode_config(data={"u0": {"basis": {"index": 0}, "seed": 3}, "u1": "zero"}),
         "data.u0.seed"),
        (four_mode_config(data={"u0": {"random": {"sede": 3}}, "u1": "zero"}),
         "data.u0.random.sede"),
        (four_mode_config(data={"u0": {"zero": 1}, "u1": "zero"}), "data.u0.zero"),
        (four_mode_config(data={"u0": "zero", "u2": "zero"}), "data.u2"),
        (simulate_config(functions={"m": {"kind": "power", "beta": 1.0}, "mm": {}}),
         "functions.mm"),
        (simulate_config(output="runs/x"), "output"),
        (simulate_config(spectrum={"generator": {"count": 4.7}}), "spectrum.generator.count"),
        (simulate_config(spectrum={"generator": {"p": "1"}}), "spectrum.generator.p"),
        (simulate_config(spectrum={"explicit": [1.0, "2"]}), "spectrum.explicit"),
        (four_mode_config(data={"u0": {"basis": {"index": True}}, "u1": "zero"}),
         "data.u0.basis.index"),
        (four_mode_config(data={"u0": {"basis": {"amplitude": "2"}}, "u1": "zero"}),
         "data.u0.basis.amplitude"),
        (four_mode_config(data={"u0": {"profile": {"gamma": None}}, "u1": "zero"}),
         "data.u0.profile.gamma"),
        (four_mode_config(data={"u0": {"random": {"seed": 1.9}}, "u1": "zero"}),
         "data.u0.random.seed"),
        (four_mode_config(data={"u0": {"random": {"decay": False}}, "u1": "zero"}),
         "data.u0.random.decay"),
        (four_mode_config(data={"u0": "zero", "u1": {"explicit": ["1", True, 1.0, 1.0]}}),
         "data.u1.explicit"),
        (four_mode_config(data={"u0": {"explicit": "1234"}, "u1": "zero"}), "data.u0.explicit"),
        (simulate_config(functions={"m": {"kind": "table", "sigma": ["0", True],
                                          "value": [1.0, 2.0]}}), "functions.m"),
        (simulate_config(functions={"m": {"kind": "table", "sigma": "01",
                                          "value": [1.0, 2.0]}}), "functions.m"),
        (simulate_config(spectrum={"generator": {"count": 4, "p": 1e300}}), "spectrum"),
    ],
    ids=["index_negative", "index_past_end", "wrong_length", "basis_not_object",
         "explicit_empty", "generator_empty", "m_not_finite", "generator_unknown_key",
         "spectrum_two_forms", "spectrum_unknown_key", "profile_unknown_key",
         "vector_two_forms", "vector_unknown_key", "random_unknown_key", "zero_not_true",
         "data_unknown_key", "functions_unknown_key", "top_level_unknown_key",
         "count_not_integer", "p_string", "spectrum_explicit_string", "index_bool",
         "amplitude_string", "gamma_null", "random_seed_float", "decay_bool",
         "vector_explicit_not_numbers", "vector_explicit_string", "knots_not_numbers",
         "knots_string", "p_overflows"],
)
def test_malformed_spectrum_or_data_names_the_field(tmp_path, capsys, cfg, field):
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == field
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 1
    assert f"invalid: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a/../../escaped", "../x", "a/b", "..", ".", "{tmp}/abs",
                                  "a\\b", "a\0b"])
def test_name_that_leaves_runs_is_refused(tmp_path, monkeypatch, name):
    # run_scenario writes to runs/<name> by default; nothing may be made
    name = name.format(tmp=tmp_path)  # an absolute name, kept inside tmp_path
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(ScenarioError) as info:
        run_scenario(simulate_config(name=name))
    assert info.value.field == "name"
    assert list(tmp_path.rglob("*")) == [work]


def test_unknown_param_rejected():
    # a misspelt key, and the keys that one setting or the equation already
    # fixes: a step cap (the sample grid and the tolerances), a start time (the
    # equation is autonomous), the random form's own seed (the top-level seed)
    # and {"zero": true} (the string "zero")
    for cfg, field in [
        (simulate_config(params={"t_end": 5.0, "rle_tol": 1e-8}), "params.rle_tol"),
        (simulate_config(params={"t_end": 5.0, "max_step": 0.1}), "params.max_step"),
        (simulate_config(params={"t_start": 1.0, "t_end": 5.0}), "params.t_start"),
        (simulate_config(data={"u0": {"random": {"seed": 3}}, "u1": "zero"}),
         "data.u0.random.seed"),
        (simulate_config(data={"u0": {"zero": True}, "u1": "zero"}), "data.u0.zero"),
    ]:
        with pytest.raises(ScenarioError, match="unknown key") as info:
            validate_scenario(cfg)
        assert info.value.field == field
    # the integrator keys are accepted by a task that integrates, and refused
    # by one that does not
    cfg = simulate_config(params={"t_end": 5.0, "rel_tol": 1e-8})
    assert validate_scenario(cfg).params["rel_tol"] == 1e-8
    with pytest.raises(ScenarioError, match="unknown key") as info:
        validate_scenario(simulate_config(task="uniqueness", params={"rel_tol": 1e-8}))
    assert info.value.field == "params.rel_tol"


@pytest.mark.parametrize("params", [{}, {"mode": "medium"}])
def test_conditions_mode_checked_before_run(tmp_path, params):
    cfg = {
        "version": 1,
        "name": "no_mode",
        "spectrum": {"explicit": [1.0]},
        "data": {"u0": "zero", "u1": "zero"},
        "functions": {
            "omega": {"kind": "modulus_power", "beta": 1.0},
            "phi": {"kind": "weight_power_log", "p": 1.0, "ell": 0.0},
        },
        "task": "conditions",
        "params": params,
    }
    with pytest.raises(ScenarioError) as info:
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert info.value.field == "params.mode"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_bad_config_does_not_stop_batch(tmp_path, capsys, jobs):
    bad = write_config(tmp_path, simulate_config(params={"t_end": "abc"}), "bad.json")
    good = write_config(tmp_path, simulate_config(params={"t_end": 1.0}), "good.json")
    out = tmp_path / "out"
    code = main(["run", str(bad), str(good), "--out-dir", str(out), "--jobs", jobs])
    assert code == 1
    assert (out / "good" / "manifest.json").exists()
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_same_stem_configs_do_not_share_an_output_directory(tmp_path, capsys, jobs):
    # a/cfg.json and b/cfg.json both map to out/cfg: the later one ends as its
    # own error without running, and the rest of the batch runs
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_config(tmp_path / "a", simulate_config(params={"t_end": 1.0}), "cfg.json")
    later = write_config(tmp_path / "b", simulate_config(name="later", params={"t_end": 2.0}),
                         "cfg.json")
    other = write_config(tmp_path, simulate_config(name="other", params={"t_end": 1.0}),
                         "other.json")
    out = tmp_path / "out"
    code = main(["run", str(first), str(later), str(other), "--out-dir", str(out),
                 "--jobs", jobs])
    assert code == 1
    captured = capsys.readouterr()
    assert (f"{later}: error: ScenarioError: output directory {out / 'cfg'} is already "
            f"that of {first}") in captured.err
    assert f"{first}: ok" in captured.out and f"{other}: ok" in captured.out
    manifest = json.loads((out / "cfg" / "manifest.json").read_text())
    assert manifest["summary"]["name"] == "single_mode_cubic"
    assert (out / "other" / "manifest.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_same_name_configs_do_not_share_runs_name(tmp_path, capsys, monkeypatch, jobs):
    # without --out-dir, configs named alike both map to runs/<name>: the later
    # one ends as its own error without running, and one that cannot be read
    # keeps its own error
    from kirchhoff_spectral import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_config(tmp_path / "a", simulate_config(params={"t_end": 1.0}), "x_a.json")
    later = write_config(tmp_path / "b", simulate_config(params={"t_end": 2.0}), "x_b.json")
    missing = tmp_path / "missing.json"
    assert main(["run", str(first), str(missing), str(later), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    runs = Path("runs") / "single_mode_cubic"
    assert (f"{later}: error: ScenarioError: output directory {runs} is already that of "
            f"{first}") in captured.err
    assert f"{missing}: error: ScenarioError: cannot read {missing}" in captured.err
    assert captured.out.startswith(f"{first}: ok")
    last_row = (tmp_path / runs / "trajectory.csv").read_text().splitlines()[-1]
    assert float(last_row.split(",")[0]) == 1.0
    assert SerialPool.sizes == ([2] if jobs == "2" else [])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_invalid_config_claims_no_output_directory(tmp_path, capsys, monkeypatch, jobs):
    # bad.json and good.json are both named "same"; bad.json does not
    # validate, so runs/same stays free for good.json, which runs
    from kirchhoff_spectral import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.chdir(tmp_path)
    bad = write_config(tmp_path, simulate_config(name="same", spectrum={"explicit": [-1.0]}),
                       "bad.json")
    good = write_config(tmp_path, simulate_config(name="same", params={"t_end": 1.0}),
                        "good.json")
    assert main(["run", str(bad), str(good), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert f"{bad}: error: ScenarioError: spectrum: eigenvalues" in captured.err
    assert "already that of" not in captured.err
    assert captured.out.startswith(f"{good}: ok")
    assert json.loads((tmp_path / "runs" / "same" / "manifest.json").read_text())["summary"]["ok"]
    assert SerialPool.sizes == ([2] if jobs == "2" else [])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_validates_each_config_once(tmp_path, monkeypatch, jobs):
    # cli loads and validates each config, and run_scenario runs the
    # validated scenario it is handed
    from kirchhoff_spectral import cli

    validate, names = scenario.validate_scenario, []

    def spy(cfg):
        names.append(cfg["name"])
        return validate(cfg)

    monkeypatch.setattr(scenario, "validate_scenario", spy)
    monkeypatch.setattr(cli, "validate_scenario", spy)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    one = write_config(tmp_path, simulate_config(name="one", params={"t_end": 1.0}), "one.json")
    two = write_config(tmp_path, simulate_config(name="two", params={"t_end": 1.0}), "two.json")
    assert main(["run", str(one), str(two), "--out-dir", str(tmp_path / "out"),
                 "--jobs", jobs]) == 0
    assert names == ["one", "two"]
    assert SerialPool.sizes == ([2] if jobs == "2" else [])


def test_validated_scenario_runs_as_its_config(tmp_path, monkeypatch):
    # a Scenario, also one that went through pickle, runs without a second
    # validation and writes the bytes and scenario_hash of its config
    cfg = task_config("reparametrize", t_end=0.5)
    sc = validate_scenario(cfg)
    assert sc.config is cfg and "config" not in repr(sc)
    by_dict = run_scenario(cfg, out_dir=tmp_path / "dict")
    monkeypatch.setattr(scenario, "validate_scenario", refuse_to_validate)
    for out, given in (("sc", sc), ("pickled", pickle.loads(pickle.dumps(sc)))):
        manifest = run_scenario(given, out_dir=tmp_path / out)
        assert manifest.scenario_hash == by_dict.scenario_hash
        assert manifest.artifacts == by_dict.artifacts


def refuse_to_validate(cfg):
    raise AssertionError("a validated scenario was validated again")


def dependence_config(family):
    return simulate_config(
        spectrum={"explicit": [1.0, 2.0]},
        task="dependence",
        params={"t_end": 0.5, "family": family},
    )


def conditions_config(**params):
    return simulate_config(functions={"preset": "table1_lipschitz"}, task="conditions",
                           params=params)


@pytest.mark.parametrize(
    "cfg, field",
    [
        (simulate_config(seed="abc"), "seed"),
        (simulate_config(params={"t_end": "abc"}), "params.t_end"),
        (simulate_config(params={"t_end": True}), "params.t_end"),
        (simulate_config(params={"t_end": 1.0, "max_step": [1]}), "params.max_step"),
        (dependence_config({"kind": "nope", "values": [0.1]}), "params.family.kind"),
        (dependence_config({"values": []}), "params.family.values"),
        (dependence_config({"values": ["x"]}), "params.family.values"),
        (dependence_config({"kind": "data_shift", "values": [0.1], "mode_index": 2}),
         "params.family.mode_index"),
        # an m_offset family reads no mode, so it takes no mode_index
        (dependence_config({"values": [0.1], "mode_index": 1}), "params.family.mode_index"),
        (dependence_config({"kind": "m_offset", "values": [0.1], "mode_index": 0}),
         "params.family.mode_index"),
        (dependence_config([0.1]), "params.family"),
        (simulate_config(task="invariants", functions={"m": {"kind": "pohozaev", "a": 1.0}},
                         params={"t_end": 1.0}), "functions.m"),
        (simulate_config(params={"t_end": 1.0, "rel_tol": -1}), "params.rel_tol"),
        (simulate_config(params={"t_end": 1.0, "abs_tol": 0}), "params.abs_tol"),
        (simulate_config(params={"t_end": 1.0, "max_step": 0.0}), "params.max_step"),
        (simulate_config(params={"t_end": 1.0, "dense_output_dt": 0}),
         "params.dense_output_dt"),
        (simulate_config(params={"t_end": -1}), "params.t_end"),
        (simulate_config(params={"t_start": 2.0, "t_end": 1.0}), "params.t_start"),
        (simulate_config(task="reparametrize", params={"t_end": 0.0}),
         "params.t_end"),
        (simulate_config(task="reparametrize", params={"s_max": 0.0}),
         "params.s_max"),
        (simulate_config(params={"t_end": 1.0, "rel_tol": math.inf}), "params.rel_tol"),
        (simulate_config(params={"t_end": 1.0, "abs_tol": math.inf}), "params.abs_tol"),
        (simulate_config(task="norms", params={"t_end": 2.0, "r0": 1.0, "R": 0.5}),
         "params.R"),
        # the conditions grid and s_max are no params: refused as unknown keys
        (conditions_config(grid_lo=2e6), "params.grid_lo"),
        (conditions_config(grid_hi=10), "params.grid_hi"),
        (conditions_config(per_decade=1), "params.per_decade"),
        (simulate_config(task="reparametrize", params={"dense_output_dt": math.inf}),
         "params.dense_output_dt"),
        (simulate_config(task="reparametrize",
                         params={"t_end": 1.0, "dense_output_dt": 0.7}),
         "params.dense_output_dt"),
        (dependence_config({"values": [0.1, math.nan]}), "params.family.values"),
        (dependence_config({"kind": "data_shift", "values": [math.inf]}),
         "params.family.values"),
        (simulate_config(task="invariants",
                         functions={"m": {"kind": "pohozaev", "a": 1.0, "b": math.inf}},
                         params={"t_end": 1.0}), "functions.m"),
        (simulate_config(params={"t_end": 1.0, "dense_output_dt": 1e-300}),
         "params.dense_output_dt"),
        (simulate_config(params={"t_end": 1e10, "dense_output_dt": 1e-300}),
         "params.dense_output_dt"),
        (simulate_config(task="dependence", params={"dense_output_dt": 1e-9}),
         "params.dense_output_dt"),
        (conditions_config(per_decade=10**300), "params.per_decade"),
        (conditions_config(per_decade=200_000), "params.per_decade"),
        (dependence_config({"values": [0.1], "mode": 1}), "params.family.mode"),
        # the pohozaev column reads m's own a and b: the param is no key
        (simulate_config(task="invariants", functions={"m": {"kind": "pohozaev", "a": 1.0,
                                                             "b": 1.0}},
                         params={"t_end": 1.0, "pohozaev": {"a": 1.0, "b": 1.0}}),
         "params.pohozaev"),
        # sample grids that float64 cannot keep strictly increasing; a run
        # starts at t = 0
        (simulate_config(params={"t_end": 5e-324}), "params.t_end"),
        (simulate_config(task="norms", params={"t_end": 5e-324, "r0": 1.0}),
         "params.t_end"),
        # a negative seed, whether a random form draws from seed, from
        # seed + 1 = 0 or not at all
        (simulate_config(seed=-1, data={"u0": {"random": {}}, "u1": "zero"}), "seed"),
        (simulate_config(seed=-1, data={"u0": "zero", "u1": {"random": {}}}), "seed"),
        (simulate_config(seed=-1), "seed"),
    ],
    ids=["seed_string", "t_end_string", "t_end_bool", "max_step_list",
         "family_kind", "family_values_empty", "family_values_string",
         "family_mode_index", "family_m_offset_mode_index", "family_m_offset_mode_index_zero",
         "family_not_object", "pohozaev_missing_b",
         "rel_tol_negative", "abs_tol_zero", "max_step_zero", "dense_output_dt_zero",
         "t_end_negative", "t_end_before_t_start", "t_end_zero_default_start",
         "s_max_zero", "rel_tol_inf", "abs_tol_inf", "norms_radius_reaches_zero",
         "grid_lo_above_grid_hi", "grid_hi_short_of_span", "per_decade_too_few_points",
         "dense_output_dt_inf", "dense_output_dt_one_interval", "family_values_nan",
         "family_values_inf", "pohozaev_b_inf", "dense_output_dt_tiny",
         "dense_output_dt_past_any_float", "dense_output_dt_1e9_samples",
         "per_decade_huge", "per_decade_over_cap", "family_unknown_key",
         "pohozaev_unknown_key", "t_end_one_ulp_past_t_start", "t_end_subnormal",
         "seed_negative_random_u0", "seed_negative_random_u1", "seed_negative_no_random"],
)
def test_malformed_param_value_names_the_field(tmp_path, capsys, monkeypatch, cfg, field):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == field
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 1
    assert f"invalid: {field}:" in capsys.readouterr().err
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def refuse_to_evolve(*args, **kwargs):
    raise AssertionError("an invalid config reached the integrator")


# values each range rule refuses: NaN, the infinities it excludes and the
# nearest value past its edge
REFUSED = {
    "finite": [math.nan, math.inf, -math.inf],
    "positive": [math.nan, math.inf, -math.inf, 0.0],
    "nonnegative": [math.nan, math.inf, -math.inf, -5e-324],
    "positive_or_inf": [math.nan, -math.inf, 0.0],
}


def task_config(task, **params):
    """A valid config of ``task``: its required params are 1, the rest added."""
    declared = scenario.TASKS[task].params
    required = {k: 1.0 for k, (default, _, _) in declared.items()
                if default is scenario.REQUIRED}
    return simulate_config(spectrum={"explicit": [1.0, 2.0]},
                           functions={"preset": "table1_lipschitz"}, task=task,
                           params={**required, **params})


# a step cap and a start time, which the sample grid, the tolerances and the
# autonomous equation fix: every task refuses them as unknown keys, whatever
# their value
REMOVED_PARAMS = {"max_step": REFUSED["positive_or_inf"], "t_start": REFUSED["finite"]}
# the integrator params, which only a task that integrates takes
INTEGRATOR_REFUSED = {"rel_tol": REFUSED["positive"], "abs_tol": REFUSED["positive"],
                      "dense_output_dt": REFUSED["positive_or_inf"]}
# the grid, the tolerances and s_max, now constants or derived, and the
# integrator params of a task that does not integrate: the task that once
# took each refuses it as an unknown key too
REMOVED_TASK_PARAMS = {
    "conditions": {"grid_lo": REFUSED["positive"], "grid_hi": REFUSED["positive"],
                   "per_decade": [math.nan, math.inf, -math.inf, 0],
                   "slope_tol": REFUSED["finite"], **INTEGRATOR_REFUSED},
    "uniqueness": {"tol": REFUSED["nonnegative"], **INTEGRATOR_REFUSED},
    "decompose": {"r_probe": REFUSED["nonnegative"], **INTEGRATOR_REFUSED},
    "reparametrize": {"s_max": REFUSED["positive"]},
}
NOT_INTEGRATING = ("conditions", "uniqueness", "decompose")


def refused_values():
    for task, entry in scenario.TASKS.items():
        integrator = scenario._INTEGRATOR_PARAMS if "t_end" in entry.params else {}
        for name, (_, kind, rule) in {**entry.params, **integrator}.items():
            if kind is float:
                for value in REFUSED[rule]:
                    yield pytest.param(task, name, value, id=f"{task}-{name}-{value!r}")
        for name, values in {**REMOVED_PARAMS, **REMOVED_TASK_PARAMS.get(task, {})}.items():
            for value in values:
                yield pytest.param(task, name, value, id=f"{task}-{name}-{value!r}")


# a value each range rule of a function param admits, and the edge values it
# forbids
ADMITTED = 0.5
EDGES = {
    "finite": [math.inf, -math.inf],
    "positive": [0.0, math.inf],
    "nonnegative": [-5e-324, math.inf],
    "positive_or_inf": [0.0, -math.inf],
    "unit_interval": [0.0, math.nextafter(1.0, 2.0)],
}
BASE = {"kind": "power", "beta": 1.0}
KNOTS = {"sigma": [0.0, 1.0], "value": [1.0, 2.0]}


def valid_spec(kind):
    """A valid spec dict of ``kind``, from its declaration alone."""
    decl = KINDS[kind]
    spec = {"kind": kind, **{name: ADMITTED for name in decl.params}}
    if decl.base:
        spec["base"] = dict(BASE)
    if decl.knots is not None:
        spec.update(KNOTS)
    return spec


def malformed_specs():
    """(kind, spec dict, the param its error must name) for each declared rule."""
    for kind, decl in KINDS.items():
        spec = valid_spec(kind)
        yield kind, {**spec, "zz": 1.0}, "zz"
        for name, rule in decl.params.items():
            yield kind, {k: v for k, v in spec.items() if k != name}, name
            for value in (True, math.nan, "1.0", *EDGES[rule]):
                yield kind, {**spec, name: value}, name
        if decl.base:
            yield kind, {k: v for k, v in spec.items() if k != "base"}, "base"
        else:
            yield kind, {**spec, "base": dict(BASE)}, "base"
        if decl.knots is not None:
            yield kind, {k: v for k, v in spec.items() if k not in KNOTS}, "sigma"
        else:
            yield kind, {**spec, **KNOTS}, "sigma"


def test_edges_cover_every_rule():
    assert set(EDGES) == set(RULES)
    for rule, (holds, _) in RULES.items():
        assert holds(ADMITTED) and not any(holds(v) for v in EDGES[rule])


@pytest.mark.parametrize("kind", list(KINDS))
def test_declared_spec_is_valid(kind):
    # a weight kind has no antiderivative and cannot be m; phi is its slot
    slot = "phi" if kind.startswith("weight_") else "m"
    functions = {"m": valid_spec("constant"), slot: valid_spec(kind)}
    validate_scenario(simulate_config(functions=functions))


WEIGHT_AS_M = {"kind": "offset", "c": 1.0, "base": valid_spec("weight_power_log")}


@pytest.mark.parametrize("m", [valid_spec("weight_power_log"),
                               valid_spec("weight_scaled_modulus"), WEIGHT_AS_M])
def test_weight_kind_as_m_refused_before_run(tmp_path, monkeypatch, m):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    cfg = simulate_config(functions={"m": m})
    with pytest.raises(ScenarioError, match="cannot be the nonlinearity m") as info:
        validate_scenario(cfg)
    assert info.value.field == "functions.m"
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("omega", [{"kind": "modulus_sigma_log", "q": 200},
                                   {"kind": "modulus_inv_log", "q": 800},
                                   {"kind": "modulus_inv_log", "q": 200}])
def test_modulus_without_a_finite_knee_line_refused_before_run(tmp_path, omega):
    # q**q overflows at q = 200; the knee e**-801 of q = 800 underflows to 0, and
    # at q = 200 so does the value (q+1)**-q there
    cfg = simulate_config(functions={"preset": "table1_lipschitz", "omega": omega},
                          task="conditions", params={})
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == "functions.omega"
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_table3_loglog_simulate_completes(tmp_path):
    # u0 = 2 e**-k takes sigma past 0.86, where quadrature of m failed to converge
    cfg = simulate_config(name="table3_loglog", spectrum={"generator": {"count": 16}},
                          data={"u0": {"profile": {"amplitude": 2.0}}, "u1": "zero"},
                          functions={"preset": "table3_loglog"}, params={"t_end": 10.0})
    manifest = run_scenario(cfg, out_dir=tmp_path / "out")
    assert manifest.summary["status"] == "completed"
    assert manifest.summary["hamiltonian_drift"] < 1e-7


def test_bundled_scenarios_and_log_moduli_run_with_no_scipy(tmp_path):
    # the runtime needs numpy alone: scipy is blocked before the package is
    # imported, so any import of it raises ImportError.  The preset run is the
    # packaging smoke test's table1_loglipschitz config, which reaches
    # modulus_sigma_log's M; modulus_inv_log's M is evaluated directly.
    root = Path(__file__).resolve().parents[1]
    preset = simulate_config(name="table1_loglipschitz", spectrum={"generator": {"count": 16}},
                             data={"u0": {"profile": {"amplitude": 1.0}}, "u1": "zero"},
                             functions={"preset": "table1_loglipschitz"},
                             params={"t_end": 10.0})
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from kirchhoff_spectral.functions import antiderivative, modulus_inv_log\n"
        "from kirchhoff_spectral.scenario import run_scenario\n"
        "statuses = []\n"
        "for i, config in enumerate(json.loads(sys.argv[2])):\n"
        "    manifest = run_scenario(config, out_dir=f'{sys.argv[1]}/{i}')\n"
        "    statuses.append(manifest.summary.get('status', 'completed'))\n"
        "big_m = antiderivative(modulus_inv_log(1.5))([0.0, 1e-200, 1e-3, 0.05, 1.0])\n"
        "print(json.dumps([statuses, big_m.tolist()]))\n"
    )
    configs = sorted(str(p) for p in (root / "scenarios").glob("*.json"))
    assert len(configs) == 4
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                           json.dumps([*configs, preset])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    statuses, big_m = json.loads(done.stdout.splitlines()[-1])
    assert statuses == ["completed"] * 5
    assert big_m[0] == 0.0 and all(0.0 < a < b for a, b in zip(big_m[1:], big_m[2:]))
    assert big_m[1:] == antiderivative(modulus_inv_log(1.5))([1e-200, 1e-3, 0.05, 1.0]).tolist()


@pytest.mark.parametrize(
    "kind, spec, name",
    [pytest.param(*case, id=f"{case[0]}-{i}") for i, case in enumerate(malformed_specs())],
)
def test_malformed_function_spec_names_the_param(tmp_path, monkeypatch, kind, spec, name):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    for slot in ("m", "phi"):
        cfg = simulate_config(functions={"m": valid_spec("constant"), slot: spec})
        with pytest.raises(ScenarioError) as info:
            validate_scenario(cfg)
        assert info.value.field == f"functions.{slot}"
        assert repr(name) in str(info.value)
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", list(scenario.TASKS))
def test_task_config_is_valid(task):
    validate_scenario(task_config(task))
    # a task that integrates, one with a t_end, takes the integrator params
    assert ("t_end" in scenario.TASKS[task].params) == (task not in NOT_INTEGRATING)
    if task not in NOT_INTEGRATING:
        given = {"rel_tol": 1e-3, "abs_tol": 1e-9, "dense_output_dt": 0.5}
        params = validate_scenario(task_config(task, **given)).params
        assert {k: params[k] for k in given} == given


@pytest.mark.parametrize("task, name, value", list(refused_values()))
def test_refused_param_value_never_integrates(tmp_path, monkeypatch, task, name, value):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    cfg = task_config(task, **{name: value})
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == f"params.{name}"
    with pytest.raises(ScenarioError) as info:
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert info.value.field == f"params.{name}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", NOT_INTEGRATING)
@pytest.mark.parametrize("name, value", [("rel_tol", 1e-3), ("abs_tol", 1e-9),
                                         ("dense_output_dt", 0.5)])
def test_task_that_does_not_integrate_refuses_integrator_param(tmp_path, capsys, task,
                                                               name, value):
    cfg = task_config(task, **{name: value})
    with pytest.raises(ScenarioError, match="unknown key") as info:
        validate_scenario(cfg)
    assert info.value.field == f"params.{name}"
    with pytest.raises(ScenarioError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: params.{name}: unknown key")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def spy_on_settings(monkeypatch, name, at, seen):
    """Rebind scenario's ``name`` to record the integrator settings it is given."""
    original = getattr(scenario, name)

    def spy(*args, **kwargs):
        seen.append(args[at])
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, name, spy)


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a run built integrator settings")


@pytest.mark.parametrize("task", list(scenario.TASKS))
def test_task_reads_the_integrator_settings_its_scenario_resolved(tmp_path, monkeypatch, task):
    # validation resolves the settings once, None for a task that integrates
    # nothing; a runner takes the Scenario alone, and every integration of
    # the run is handed that one IntegratorConfig
    integrates = task not in NOT_INTEGRATING
    sc = validate_scenario(task_config(task, **({"rel_tol": 1e-9} if integrates else {})))
    assert sc.integrator == (IntegratorConfig(rel_tol=1e-9) if integrates else None)
    assert pickle.loads(pickle.dumps(sc)).integrator == sc.integrator
    assert list(inspect.signature(scenario.TASKS[task].run).parameters) == ["sc"]
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(sc, integrator=IntegratorConfig())
    seen = []
    for name, at in (("evolve", 2), ("solve_trajectory_system", 4),
                     ("continuous_dependence_study", 2)):
        spy_on_settings(monkeypatch, name, at, seen)
    monkeypatch.setattr(scenario, "IntegratorConfig", refuse_to_build)
    assert run_scenario(sc, out_dir=tmp_path / "out").summary["ok"]
    assert len(seen) == {"reparametrize": 2}.get(task, int(integrates))
    assert all(cfg is sc.integrator for cfg in seen)


def test_failed_integration_is_not_ok(tmp_path, capsys):
    check_failed_integration_is_not_ok(tmp_path, capsys, "simulate")


# reparametrize: the time run stops first, so the task ends on its status
# before the shift's rise sets s_max or the curve is solved
@pytest.mark.parametrize("task", ["norms", "invariants", "dependence", "reparametrize"])
def test_failed_integration_of_any_task_is_not_ok(tmp_path, capsys, task):
    check_failed_integration_is_not_ok(tmp_path, capsys, task)


def check_failed_integration_is_not_ok(tmp_path, capsys, task):
    # lambda = 1.26e15 with m = sigma oscillates at about 1.6e30, far too fast
    # for any step above the step floor, so the run stops on step_underflow
    cfg = simulate_config(task=task, spectrum={"explicit": [1.26e15]},
                          params={"t_end": 5.0, "rel_tol": 1e-10, "abs_tol": 1e8})
    manifest = run_scenario(cfg, out_dir=tmp_path / "out")
    assert manifest.summary["status"] == "step_underflow"
    assert manifest.summary["ok"] is False
    if task == "reparametrize":
        assert [a["name"] for a in manifest.artifacts] == ["psi_trace.csv"]
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert saved["summary"]["ok"] is False
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "cli")]) == 1
    assert "step_underflow" in capsys.readouterr().err


def test_dependence_data_shift_family(tmp_path):
    cfg = dependence_config(
        {"kind": "data_shift", "values": [0.1, 0.05], "mode_index": 1}
    )
    run_scenario(cfg, out_dir=tmp_path / "out")
    rep = json.loads((tmp_path / "out" / "dependence_report.json").read_text())
    assert rep["kind"] == "data_shift"
    assert rep["data_distances"][0] > rep["data_distances"][1] > 0.0


def test_reparametrize_reports_its_evolve_status(tmp_path, monkeypatch):
    # the s-curve integrations raise when they stop early, so only a failed
    # t-integration can reach the summary; stand one in for it
    real_evolve = scenario.evolve

    def blown_up(*args):
        tr = real_evolve(*args)
        return dataclasses.replace(tr, meta=dataclasses.replace(tr.meta, status="blow_up"))

    cfg = {
        "version": 1,
        "name": "roundtrip",
        "spectrum": {"explicit": [1.0]},
        "data": {
            "u0": {"basis": {"index": 0, "amplitude": 1.0}},
            "u1": {"basis": {"index": 0, "amplitude": 1.0}},
        },
        "functions": {"m": {"kind": "constant", "c": 1.0}},
        "task": "reparametrize",
        "params": {"t_end": 0.7},
    }
    assert run_scenario(cfg, out_dir=tmp_path / "ok").summary["ok"] is True
    monkeypatch.setattr(scenario, "evolve", blown_up)
    manifest = run_scenario(cfg, out_dir=tmp_path / "out")
    assert manifest.summary["status"] == "blow_up"
    assert manifest.summary["ok"] is False


def reparametrize_config(u0, u1, m=None):
    return simulate_config(spectrum={"explicit": [1.0, 2.0]}, data={"u0": u0, "u1": u1},
                           functions={"m": m or {"kind": "constant", "c": 1.0}},
                           task="reparametrize", params={})


@pytest.mark.parametrize("cfg, field", [
    pytest.param(reparametrize_config("zero", "zero"), "data", id="zero_data"),
    # psi'(0) = 2<A u0, u1> = 0 and psi''(0) = 2(|A^(1/2)u1|^2 - |A u0|^2) = 0
    pytest.param(reparametrize_config({"basis": {"index": 0, "amplitude": 1.0}},
                                      {"explicit": [0.0, 0.5]}), "data", id="both_vanish"),
    pytest.param(reparametrize_config("zero", {"basis": {"index": 0, "amplitude": 1.0}},
                                      {"kind": "power", "beta": -1.0}),
                 "functions.m", id="m_singular_at_datum"),
])
def test_reparametrize_data_refused_before_run(tmp_path, monkeypatch, cfg, field):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == field
    with pytest.raises(ScenarioError) as info:
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert info.value.field == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("u0, u1", [
    ({"basis": {"index": 0, "amplitude": 1.0}}, "zero"),  # the bootstrap branch
    # psi''(0) = -2 m(sigma0)|A u0|^2 = -8 sigma0^2 overflows, while sigma0 = 1e154 and
    # M(sigma0) = sigma0^2 / 2 stay finite, as validation requires
    ({"basis": {"index": 1, "amplitude": 5e76}}, "zero"),
])
def test_reparametrize_data_with_a_nonvanishing_derivative_validates(u0, u1):
    validate_scenario(reparametrize_config(u0, u1, {"kind": "power", "beta": 1.0}))


def test_uniqueness_on_quantities_that_overflow_is_not_ok(tmp_path):
    # as2 = |A^(1/2)u1|^2 - m(sigma0)|A u0|^2 overflows to -inf, while sigma0 = 1e154
    # and M(sigma0) stay finite
    cfg = reparametrize_config({"basis": {"index": 1, "amplitude": 5e76}}, "zero",
                               {"kind": "power", "beta": 1.0})
    path = write_config(tmp_path, {**cfg, "task": "uniqueness"})
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["status"] == "not_finite" and summary["ok"] is False
    assert summary["hp_main_holds"] is False
    rep = json.loads((tmp_path / "out" / "uniqueness_report.json").read_text())
    assert rep["as2"] == "-inf" and rep["hp_main_holds"] is False


# lambda = (1, 2), m = 1 + sigma, u0 = (1, 0.5), u1 = (1, 0): the shift rises
# from psi = 0 and turns back before t = 0.1
TWO_MODE_TURN = simulate_config(
    name="two_mode_turn", task="reparametrize", spectrum={"explicit": [1.0, 2.0]},
    data={"u0": {"explicit": [1.0, 0.5]}, "u1": {"explicit": [1.0, 0.0]}},
    functions={"m": {"kind": "affine", "a": 1.0, "b": 1.0}})
GOLDEN_BOOTSTRAP = Path(__file__).resolve().parent / "golden_tasks" / \
    "seeded_reparametrize_bootstrap.json"


@pytest.mark.parametrize("cfg", [
    pytest.param({**TWO_MODE_TURN, "params": {"t_end": 0.1}}, id="two_modes_t0.1"),
    pytest.param({**TWO_MODE_TURN, "params": {"t_end": 0.3}}, id="two_modes_t0.3"),
    pytest.param({**load_config(GOLDEN_BOOTSTRAP), "params": {"t_end": 10.0}},
                 id="bootstrap_t10"),
])
def test_reparametrize_past_the_shifts_first_turn(tmp_path, cfg):
    # the curve lands on the samples of the shift's first rise up to 0.95 of
    # its turning value, and the check compares those alone
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert manifest.summary["ok"] is True
    rep = json.loads((tmp_path / "reparametrization_report.json").read_text())
    psi = np.loadtxt(tmp_path / "psi_trace.csv", delimiter=",", skiprows=1)[:, 1]
    rise = rep["direction"] * psi
    turn = int(np.argmax(np.diff(rise) <= 0.0))
    assert turn > 0 and rise[-1] < rise[turn]  # the run turns back
    assert rep["n_compared"] <= turn + 1 and rep["max_deviation"] < 1e-6
    s = np.loadtxt(tmp_path / "scurve.csv", delimiter=",", skiprows=1)[:, 0]
    landed = rise[:turn + 1]
    landed = landed[(landed > 0.0) & (landed <= 0.95 * rise[turn] + 1e-15)]
    assert np.array_equal(s[-rep["n_compared"]:], landed)


@pytest.mark.parametrize("t_end", [1e-4], ids=["default_s_max"])
def test_s_max_inside_the_bootstrap_leg_names_the_field(tmp_path, t_end):
    # the handoff to the s variable lies near s = 2.1e-8; a short t_end puts
    # s_max (6.97e-9 at t_end = 1e-4) below it
    cfg = {**load_config(GOLDEN_BOOTSTRAP), "params": {"t_end": t_end}}
    validate_scenario(cfg)
    with pytest.raises(ScenarioError, match="inside the bootstrap leg") as info:
        run_scenario(cfg, out_dir=tmp_path)
    assert info.value.field == "params.t_end"
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "ScenarioError"


@pytest.mark.parametrize("dt", [2.0], ids=["default_s_max"])
def test_grid_too_coarse_for_the_shifts_rise_names_dense_output_dt(tmp_path, dt):
    # m = 1 and u0 = u1 = e_1 give psi = sin 2t, so psi(2) < 0: on a grid
    # of step 2 the first rise holds the start alone, with no sample to compare
    unit = {"basis": {"index": 0, "amplitude": 1.0}}
    cfg = simulate_config(task="reparametrize", data={"u0": unit, "u1": unit},
                          functions={"m": {"kind": "constant", "c": 1.0}},
                          params={"t_end": 4.0, "dense_output_dt": dt})
    with pytest.raises(ScenarioError, match="decrease dense_output_dt") as info:
        run_scenario(cfg, out_dir=tmp_path)
    assert info.value.field == "params.dense_output_dt"


def test_rise_with_no_sample_for_the_curve_names_dense_output_dt(tmp_path, monkeypatch):
    # at step 0.75 the shift's first rise holds no sample between 0 and 0.95
    # of its top, so the curve would land nowhere: refused before it integrates
    def no_curve(*args, **kwargs):
        raise AssertionError("the curve integrated")

    monkeypatch.setattr(scenario, "solve_trajectory_system", no_curve)
    cfg = {**load_config(GOLDEN_BOOTSTRAP.with_name("seeded_reparametrize_direct.json")),
           "params": {"t_end": 1.5, "dense_output_dt": 0.75}}
    validate_scenario(cfg)
    with pytest.raises(ScenarioError, match="decrease dense_output_dt") as info:
        run_scenario(cfg, out_dir=tmp_path)
    assert info.value.field == "params.dense_output_dt"


def overflow_config(task, u0=(0.3, 0.1), u1=(0.3, 0.1), **params):
    return simulate_config(spectrum={"explicit": [1.0, 2.0]}, task=task, params=params,
                           data={"u0": {"explicit": list(u0)}, "u1": {"explicit": list(u1)}},
                           functions={"preset": "table1_lipschitz"})


@pytest.mark.parametrize("cfg, field", [
    pytest.param(overflow_config("invariants", u1=(0.3, 1e200), t_end=1.0), "data.u1",
                 id="invariants_u1"),
    pytest.param(overflow_config("norms", u1=(0.3, 1.7e308), t_end=1.0), "data.u1",
                 id="norms_u1"),
    pytest.param(overflow_config("dependence", u0=(1e15, 0.1), u1=(-1e300, 0.2)), "data.u1",
                 id="dependence_u1"),
    pytest.param(overflow_config("uniqueness", u1=(0.3, 1e200)), "data.u1",
                 id="uniqueness_u1"),
    pytest.param(overflow_config("simulate", u0=(0.3, 1e200), t_end=1.0), "data.u0",
                 id="simulate_u0"),
    # M(sigma0) = sigma0^2 / 2 overflows where sigma0 = 4e200 does not
    pytest.param(simulate_config(spectrum={"explicit": [1.0, 2.0]},
                                 data={"u0": {"basis": {"index": 1, "amplitude": 1e100}},
                                       "u1": "zero"}), "data.u0", id="big_m"),
    # |u1|^2 overflows where |A^(1/2)u1|^2 = |u1|^2 / 4 does not
    pytest.param(simulate_config(spectrum={"explicit": [0.5]},
                                 data={"u0": "zero", "u1": {"explicit": [1.5e154]}}),
                 "data.u1", id="u1_norm"),
    # |u1|^2 = 1.21e308 and M(sigma0) = 7.3e307 are finite, the energy H, their sum, is not
    *(pytest.param(simulate_config(task=task, params=params,
                                   data={"u0": {"explicit": [1.1e77]},
                                         "u1": {"explicit": [1.1e154]}},
                                   functions={"m": {"kind": "affine", "a": 1.0, "b": 1.0}}),
                   "data", id=f"{task}_energy")
      for task, params in (("invariants", {"t_end": 1.0}), ("simulate", {"t_end": 1.0}),
                           ("dependence", {}), ("norms", {"t_end": 1.0}), ("uniqueness", {}))),
])
def test_data_that_overflows_is_refused_before_run(tmp_path, monkeypatch, cfg, field):
    monkeypatch.setattr(scenario, "evolve", refuse_to_evolve)
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == field and "must be finite" in str(info.value)
    with pytest.raises(ScenarioError) as info:
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert info.value.field == field
    assert not (tmp_path / "out").exists()


def edited(path, leaves):
    """The config at ``path`` with each leaf named by a dotted path set."""
    cfg = load_config(path)
    for keys, value in leaves.items():
        *head, last = keys.split(".")
        node = cfg
        for key in head:
            node = node[key]
        node[last] = value
    return cfg


BUNDLED = Path(__file__).resolve().parents[1] / "scenarios"
CUBIC = BUNDLED / "single_mode_cubic.json"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg, outcome", [
    # m = sigma**1e6: a float ** overflows at a stage with sigma > 1
    pytest.param(edited(CUBIC, {"functions.m.beta": 1e6}), "completed", id="power_of_sigma"),
    # and with u1 = u0 it overflows at the first step guess's trial state
    pytest.param(edited(CUBIC, {"functions.m.beta": 1e6, "data.u1": {"basis": {"index": 0}}}),
                 "completed", id="power_of_sigma_at_the_first_trial_step"),
    # the stages overflow, in the pair loop and in the array loop
    pytest.param(edited(CUBIC, {"spectrum.explicit": [1.26e15], "params.abs_tol": 1e8}),
                 "step_underflow", id="pair_loop_stage"),
    pytest.param(edited(CUBIC, {"spectrum.explicit": [1.26e15, 2.5e15],
                                "params.abs_tol": 1e8}),
                 "step_underflow", id="array_loop_stage"),
    # a weight phi(lambda) that overflows
    pytest.param(edited(Path(__file__).resolve().parent / "golden_tasks" / "seeded_norms.json",
                        {"functions.phi.p": 1e100}), NormOverflowError, id="norms_weight"),
    pytest.param(edited(BUNDLED / "spectral_gap_split.json", {"functions.phi.beta": 9e14}),
                 InsufficientDecayError, id="decompose_weight"),
])
def test_validated_config_that_overflows_ends_honestly(tmp_path, cfg, outcome):
    # no raw OverflowError and no numpy warning on the way to the status or
    # the library's error
    validate_scenario(cfg)
    if isinstance(outcome, str):
        manifest = run_scenario(cfg, out_dir=tmp_path)
        assert manifest.summary["status"] == outcome
        assert manifest.summary["ok"] is (outcome == "completed")
    else:
        with pytest.raises(outcome):
            run_scenario(cfg, out_dir=tmp_path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_version_must_be_the_integer_one(version):
    # true == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1
    with pytest.raises(ScenarioError) as info:
        validate_scenario(simulate_config(version=version))
    assert info.value.field == "version"


def without(key):
    cfg = simulate_config()
    del cfg[key]
    return cfg


@pytest.mark.parametrize("cfg, field", [
    (without("version"), "version"),
    (without("name"), "name"),
    (without("task"), "task"),
    (simulate_config(params={}), "params.t_end"),
    (dependence_config({"kind": "m_offset"}), "params.family.values"),
], ids=["version", "name", "task", "param", "family"])
def test_missing_required_key_reads_alike_in_every_object(cfg, field):
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert str(info.value) == f"{field}: is required"


def test_sample_table_cap_boundary():
    # one mode: 3 floats a sample, so the cap holds MAX_SAMPLE_FLOATS // 3 samples
    most = scenario.MAX_SAMPLE_FLOATS // 3
    for samples, valid in ((most, True), (most + 1, False)):
        cfg = simulate_config(params={"t_end": float(samples - 1), "dense_output_dt": 1.0})
        if valid:
            validate_scenario(cfg)
        else:
            with pytest.raises(ScenarioError) as info:
                validate_scenario(cfg)
            assert info.value.field == "params.dense_output_dt"
    # a dependence run holds its family and the limit: 4 tables here
    many = {"t_end": 1.0, "dense_output_dt": 1e-6}
    validate_scenario(simulate_config(spectrum={"explicit": [1.0, 2.0]}, params=many))
    with pytest.raises(ScenarioError) as info:
        validate_scenario(simulate_config(spectrum={"explicit": [1.0, 2.0]},
                                          task="dependence", params=many))
    assert info.value.field == "params.dense_output_dt"
    # the wide benchmark's size: 512 modes, 1,001 samples
    wide = simulate_config(spectrum={"generator": {"count": 512}},
                           data={"u0": {"random": {}}, "u1": "zero"})
    assert validate_scenario(wide).spectrum.n == 512


def test_failing_rerun_leaves_no_stale_manifest(tmp_path):
    out = tmp_path / "out"
    run_scenario(simulate_config(), out_dir=out)
    assert (out / "manifest.json").exists()
    bad = simulate_config()
    bad["functions"] = {"m": {"kind": "affine", "a": -2.0, "b": 0.0}}
    with pytest.raises(Exception):
        run_scenario(bad, out_dir=out)
    assert not (out / "manifest.json").exists()
    assert json.loads((out / "error.json").read_text())["task"] == "simulate"
    run_scenario(simulate_config(), out_dir=out)
    assert (out / "manifest.json").exists()
    assert not (out / "error.json").exists()


BUNDLED = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
]


def test_plain_names_validate():
    for cfg in BUNDLED + [simulate_config(name=".hidden"), simulate_config(name="a..b")]:
        assert validate_scenario(cfg).name == cfg["name"]


# replacement values; none of them asks validation for a large allocation
REPLACEMENTS = [None, True, False, 0, -1, 0.5, 3, 1e300, -1e300, "", "abc", "zero",
                "1.0", [], [1.0], {}, {"a": 1}]


def config_paths(node, prefix=()):
    """Key paths of every object entry and of each list's first item."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list) and node:
        items = [(0, node[0])]
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(config_paths(child, prefix + (key,)))
    return paths


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(cfg, p) for cfg in BUNDLED for p in config_paths(cfg)]),
    st.sampled_from(["delete", "insert", *REPLACEMENTS]),
)
def test_mutated_bundled_config_validates_or_names_an_error(target, mutation):
    cfg, path = target
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "insert":
        # an unknown key beside the target: the error names its dotted path,
        # or the function spec holding it and the key
        assume(isinstance(parent, dict))
        parent["unknown_key"] = 1.0
        with pytest.raises(ScenarioError) as info:
            validate_scenario(cfg)
        inserted = ".".join(map(str, (*path[:-1], "unknown_key")))
        assert info.value.field == inserted or (
            info.value.field == ".".join(map(str, path[:-1]))
            and "'unknown_key'" in str(info.value))
        return
    if mutation == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)
    try:
        validate_scenario(cfg)
    except ScenarioError:
        pass


# each task's artifacts in manifest order
ARTIFACTS = {
    "simulate": ["trajectory.csv", "trajectory_summary.json"],
    "norms": ["norm_trace.csv"],
    "conditions": ["condition_report.json"],
    "uniqueness": ["uniqueness_report.json"],
    "invariants": ["invariants.csv", "invariants_report.json"],
    "decompose": ["decomposition.json", "part_bar.csv", "part_hat.csv"],
    "reparametrize": ["scurve.csv", "psi_trace.csv", "psi_recovered.csv",
                      "reparametrization_report.json"],
    "dependence": ["dependence_report.json"],
}


def test_artifact_table_covers_every_task():
    assert set(ARTIFACTS) == set(scenario.TASKS)


@pytest.mark.parametrize("task", list(scenario.TASKS))
def test_manifest_lists_each_tasks_artifacts_in_order(tmp_path, task):
    out = tmp_path / "out"
    manifest = run_scenario(task_config(task), out_dir=out)
    assert [a["name"] for a in manifest.artifacts] == ARTIFACTS[task]
    assert sorted(p.name for p in out.iterdir()) == sorted([*ARTIFACTS[task], "manifest.json"])
    for entry in manifest.artifacts:
        assert entry["bytes"] == (out / entry["name"]).stat().st_size


def refuse_to_write(*args, **kwargs):
    raise AssertionError("a task runner wrote a file")


@pytest.mark.parametrize("task", list(scenario.TASKS))
def test_task_runner_returns_its_artifacts_and_writes_nothing(tmp_path, monkeypatch, task):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(scenario, "write_csv", refuse_to_write)
    monkeypatch.setattr(scenario, "write_json", refuse_to_write)
    sc = validate_scenario(task_config(task))
    artifacts, summary = scenario.TASKS[task].run(sc)
    assert list(artifacts) == ARTIFACTS[task]
    for name, body in artifacts.items():
        if name.endswith(".json"):
            assert isinstance(body, dict)
        else:
            header, columns = body
            assert len(header) == len(columns)
            assert len({len(c) for c in columns}) == 1
    assert isinstance(summary, dict)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_an_error_record(tmp_path, monkeypatch):
    def full_disk(path, header, columns):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(scenario, "write_csv", full_disk)
    with pytest.raises(OSError):
        run_scenario(simulate_config(), out_dir=tmp_path / "out")
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "OSError" and record["task"] == "simulate"
    assert not (tmp_path / "out" / "manifest.json").exists()


def refuse_output_dir(tmp_path, monkeypatch, value):
    # the directory is the caller's: out_dir or --out-dir, else runs/<name>;
    # output_dir is no config key, so any value is refused as unknown
    monkeypatch.chdir(tmp_path)
    cfg = simulate_config(output_dir=value)
    with pytest.raises(ScenarioError, match="unknown key") as info:
        validate_scenario(cfg)
    assert info.value.field == "output_dir"
    with pytest.raises(ScenarioError) as info:
        run_scenario(cfg)
    assert info.value.field == "output_dir"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [5, True, ["x"], None, {"dir": "x"}])
def test_output_dir_must_be_a_string(tmp_path, monkeypatch, value):
    refuse_output_dir(tmp_path, monkeypatch, value)


def test_output_dir_string_is_refused_too(tmp_path, monkeypatch):
    refuse_output_dir(tmp_path, monkeypatch, "here")


def test_run_writes_to_out_dir_else_runs_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_scenario(simulate_config(), out_dir="here")
    assert (tmp_path / "here" / "manifest.json").exists()
    run_scenario(simulate_config())
    assert (tmp_path / "runs" / "single_mode_cubic" / "manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["here", "runs"]


def unreadable_config(tmp_path, case):
    if case == "missing":
        return tmp_path / "missing.json"
    if case == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": 1, "name": "café"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_unreadable_config_is_invalid(tmp_path, capsys, case):
    path = unreadable_config(tmp_path, case)
    with pytest.raises(ScenarioError, match=re.escape(str(path))):
        load_config(path)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and str(path) in err and "Traceback" not in err
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "ScenarioError" in capsys.readouterr().err


def test_unknown_preset_message_is_not_quoted(capsys, tmp_path):
    cfg = simulate_config(functions={"preset": "nope"})
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert str(info.value).startswith("functions.preset: unknown preset 'nope'; available: ")
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err.startswith("invalid: functions.preset: unknown preset 'nope'")


class SerialPool:
    """A stand-in for ProcessPoolExecutor that records max_workers and maps in
    process; each job and each result goes through pickle, as to and from a
    worker."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return (pickle.loads(pickle.dumps(fn(pickle.loads(pickle.dumps(item)))))
                for item in items)


@pytest.mark.parametrize("jobs, workers", [("2", 2), ("3", 2), ("64", 2)])
def test_run_jobs_capped_at_config_count(tmp_path, monkeypatch, jobs, workers):
    from kirchhoff_spectral import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    p1 = write_config(tmp_path, simulate_config(params={"t_end": 1.0}), "one.json")
    p2 = write_config(tmp_path, simulate_config(name="two", params={"t_end": 1.0}), "two.json")
    assert main(["run", str(p1), str(p2), "--out-dir", str(tmp_path / "out"),
                 "--jobs", jobs]) == 0
    assert SerialPool.sizes == [workers]
    assert (tmp_path / "out" / "two" / "manifest.json").exists()


def refuse_to_allocate(*args, **kwargs):
    raise AssertionError("an oversized spectrum reached power_spectrum")


@pytest.mark.parametrize("count", [-3, 10**9, 2**40])
def test_generator_count_refused_by_name(monkeypatch, count):
    monkeypatch.setattr(scenario, "power_spectrum", refuse_to_allocate)
    with pytest.raises(ScenarioError) as info:
        validate_scenario(simulate_config(spectrum={"generator": {"count": count}}))
    assert info.value.field == "spectrum.generator.count"


def test_generator_count_cap_boundary(monkeypatch):
    # one sample row of 2n + 1 floats must fit in MAX_SAMPLE_FLOATS
    monkeypatch.setattr(scenario, "MAX_SAMPLE_FLOATS", 9)
    cfg = simulate_config(spectrum={"generator": {"count": 4}}, task="uniqueness", params={})
    assert validate_scenario(cfg).spectrum.n == 4
    cfg["spectrum"] = {"generator": {"count": 5}}
    with pytest.raises(ScenarioError) as info:
        validate_scenario(cfg)
    assert info.value.field == "spectrum.generator.count"
    assert "11 floats" in str(info.value)
