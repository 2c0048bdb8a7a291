import json
from pathlib import Path

import pytest

from kirchhoff_spectral.cli import main
from kirchhoff_spectral.errors import ScenarioError
from kirchhoff_spectral.scenario import load_config, run_scenario, validate_scenario


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
        "params": {"per_decade": 128},
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


def test_bundled_scenarios_match_golden_hashes(tmp_path):
    # the bytes of every bundled scenario's artifacts are pinned, not only
    # reproducible within one run
    root = Path(__file__).resolve().parents[1]
    golden = json.loads((root / "benchmarks" / "golden.json").read_text())
    hashes = {}
    for path in sorted((root / "scenarios").glob("*.json")):
        manifest = run_scenario(path, out_dir=tmp_path / path.stem)
        hashes[path.stem] = {a["name"]: a["sha256"] for a in manifest.to_dict()["artifacts"]}
    assert hashes == golden


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
    m3 = run_scenario(path, out_dir=tmp_path / "c", seed=43)
    assert [a["sha256"] for a in m1.to_dict()["artifacts"]] != [
        a["sha256"] for a in m3.to_dict()["artifacts"]
    ]


def test_error_record_written(tmp_path):
    cfg = simulate_config()
    cfg["functions"] = {"m": {"kind": "affine", "a": -2.0, "b": 0.0}}
    path = write_config(tmp_path, cfg)
    with pytest.raises(Exception):
        run_scenario(path, out_dir=tmp_path / "out")
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "NegativeNonlinearityError"
    assert record["task"] == "simulate"


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
