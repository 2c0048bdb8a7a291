"""Pinned artifact bytes of the tasks that no bundled scenario covers.

``tests/golden_tasks`` holds the seeded configs of the benchmark's
``scenarios`` workload at seed 31: ``norms``, ``uniqueness``, ``dependence``
(the ensemble path), both ``reparametrize`` branches and the weak mode of
``conditions``.  Together with ``benchmarks/golden.json`` every task path
has its bytes pinned.  The hashes depend on numpy's BLAS kernels, as the
bundled ones do.
"""

from pathlib import Path

import pytest

from kirchhoff_spectral.scenario import run_scenario
from tests.conftest import pin_note

CONFIGS = Path(__file__).resolve().parent / "golden_tasks"

GOLDEN = {
    "seeded_norms": {
        "norm_trace.csv": "aa0d52ee46afe67fdfd4002674f2653d97906c2a8a38e16895b26180b0441677",
    },
    "seeded_uniqueness": {
        "uniqueness_report.json":
            "df92c9009c128a73eaecc3360c15cb6a4662a51bec0dc7cbfa5b7a0346458cce",
    },
    "seeded_dependence": {
        "dependence_report.json":
            "0130b0f70c51451343654014b9b22e085d3b1a25fca12783a8b5866b07aa78a2",
    },
    "seeded_reparametrize_direct": {
        "scurve.csv": "60374c6f684444951eb44e68342b1434007252c20eea6e7b0b6c4d2729723b01",
        "psi_trace.csv": "aec74a59f9ab027c24cf2a88b21c2c347288e3beff86d6048acae62741393208",
        "psi_recovered.csv":
            "cd49deff4aed9970395e3c83d63b40c7860ee6cbab976a661520b66264ad6020",
        "reparametrization_report.json":
            "6b077ce210ec3f3b9936fdc8fe424bfdbc41edad812764ae2f685787e3ee6087",
    },
    "seeded_reparametrize_bootstrap": {
        "scurve.csv": "05a24a8eef4bf7f05b288f7f9a76d4cdc75bc8f0a4179914a51409d9561709e8",
        "psi_trace.csv": "ff3e10e0be92791112315f124de6d7119e7c0ceb10032b6bf76d62567663808b",
        "psi_recovered.csv":
            "2f84fef081347c24d41b717f20a2c8db49d43291ba1ba78bb30e974f14cba3f9",
        "reparametrization_report.json":
            "7eda416dd56eacf8338776aaf84eee6a5c6a9a770eec9bd61c43e6a187b15397",
    },
    "seeded_conditions_weak": {
        "condition_report.json":
            "f1dd1aff96f340ffbc635788b44b1f0585481b2ff24790db58f76e62f34dd85b",
    },
}


def test_every_config_has_golden_hashes():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.byte_pin
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_task_keeps_its_bytes(tmp_path, name):
    manifest = run_scenario(CONFIGS / f"{name}.json", out_dir=tmp_path)
    hashes = {a["name"]: a["sha256"] for a in manifest.to_dict()["artifacts"]}
    assert hashes == GOLDEN[name], pin_note()
