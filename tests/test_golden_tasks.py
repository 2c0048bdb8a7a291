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
        "scurve.csv": "f76d46052e878018b3683bd118ab5a0aad58f8bbb41f062411f0bf34e167dfa7",
        "psi_trace.csv": "aec74a59f9ab027c24cf2a88b21c2c347288e3beff86d6048acae62741393208",
        "psi_recovered.csv":
            "986902e7fe3db8a584a5b22cae616112347433389d8012cb4c7e3a8fa07dce0d",
        "reparametrization_report.json":
            "e0491b94c60a8ac535dcb2985f7bd63cc3a426073de1679e00064a1ee2b59302",
    },
    "seeded_reparametrize_bootstrap": {
        "scurve.csv": "853258dc5eebca0082cf7ab0635f03e7952f0b2579bc0ce6a3862c57d4759fc6",
        "psi_trace.csv": "ff3e10e0be92791112315f124de6d7119e7c0ceb10032b6bf76d62567663808b",
        "psi_recovered.csv":
            "d6f14b0dd4f347e143576a40095718d0c0c5bbe93942f672a97308756f8db26b",
        "reparametrization_report.json":
            "79c1852bcc145430b52bf470a3b7cb5d7a9705bb82aee151a3101cb6f2b6ed0f",
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
