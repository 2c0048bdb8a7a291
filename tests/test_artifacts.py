import math

import numpy as np
import pytest

from kirchhoff_spectral import artifacts
from kirchhoff_spectral.artifacts import write_csv


def reference_csv(header, columns) -> bytes:
    """The per-float writer the streaming one replaced, kept as the byte oracle."""

    def format_float(x: float) -> str:
        if isinstance(x, float) and not math.isfinite(x):
            return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
        return f"{x:.17g}"

    cols = [list(c) for c in columns]
    n = len(cols[0]) if cols else 0
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(format_float(float(c[i])) for c in cols))
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


SPECIALS = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 5e-324, -5e-324,
            1.7e308, -1.7e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e22, 123.0]


def test_special_values_match_reference(tmp_path):
    cols = [SPECIALS, SPECIALS[::-1]]
    out = written(tmp_path, ["a", "b"], cols)
    assert out == reference_csv(["a", "b"], cols)
    lines = out.decode().splitlines()
    assert lines[1:6] == ["inf,123", "-inf,1e+22", "nan,0.33333333333333331",
                          "nan,0.10000000000000001", "-0,2.2250738585072014e-308"]
    assert lines[7] == "4.9406564584124654e-324,1.6999999999999999e+308"


def test_int_bool_and_list_columns_match_reference(tmp_path):
    cols = [[1, -2, 2**60 + 1, 0], [True, False, True, False],
            np.array([3, 4, 5, 6], dtype=np.int64), [0.5, 1.5, -2.5, 1e-300]]
    header = ["i", "b", "n", "f"]
    assert written(tmp_path, header, cols) == reference_csv(header, cols)


def test_zero_rows_and_zero_columns(tmp_path):
    cols = [[], np.array([])]
    assert written(tmp_path, ["a", "b"], cols) == reference_csv(["a", "b"], cols) == b"a,b\n"
    assert written(tmp_path, [], []) == reference_csv([], []) == b"\n"


def test_table_spanning_several_blocks_matches_reference(tmp_path):
    rng = np.random.default_rng(3)
    rows = 3 * artifacts._BLOCK_VALUES // 7 + 5  # several blocks, a short last one
    cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            for _ in range(7)]
    cols[3][::11] = np.nan
    cols[5][::13] = -np.inf
    header = [f"c{k}" for k in range(7)]
    assert written(tmp_path, header, cols) == reference_csv(header, cols)


def test_two_dimensional_blocks_mixed_with_columns(tmp_path):
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 2.0, 9)
    u = rng.standard_normal((9, 3))
    v = rng.standard_normal((9, 2))
    header = ["t", "u1", "u2", "u3", "v1", "v2"]
    per_column = [t, *u.T, *v.T]
    out = written(tmp_path, header, [t, u, v])
    assert out == written(tmp_path, header, per_column)
    assert out == reference_csv(header, per_column)


def test_header_width_mismatch_raises(tmp_path):
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "out.csv", ["a"], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [np.zeros((2, 3))])


def test_unequal_column_lengths_raise(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[1.0, 2.0], [3.0]])
