import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert written(tmp_path, [], [np.zeros((3, 0))]) == b"\n" * 4  # rows of no columns


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


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 7), values=st.lists(st.floats(), max_size=120))
def test_any_floats_match_reference(tmp_path_factory, width, values):
    # st.floats() draws subnormals, both zeros, nan and both infinities
    rows = len(values) // width
    table = np.array(values[:rows * width], dtype=float).reshape(rows, width)
    header = [f"c{k}" for k in range(width)]
    out = written(tmp_path_factory.mktemp("csv"), header, list(table.T))
    assert out == reference_csv(header, list(table.T))


def neighbours(values):
    x = np.asarray(values, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), -x])


def near_ties(rng, count):
    """Decimals of 18 significant digits ending in 5, parsed to the nearest float."""
    lead = rng.integers(10 ** 16, 10 ** 17, count)
    exps = rng.integers(-300, 300, count)
    return [float(f"{d}5e{e}") for d, e in zip(lead.tolist(), exps.tolist())]


@pytest.mark.parametrize("width", [1, 4, 1025])
@pytest.mark.parametrize("family", ["powers_of_ten", "switch_points", "near_ties", "two_53",
                                    "powers_of_two"])
def test_value_families_match_reference(tmp_path, family, width):
    values = {
        "powers_of_ten": lambda: neighbours([float(f"1e{k}") for k in range(-300, 301)]),
        "switch_points": lambda: neighbours([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999999e16,
                                             9.99999999999999995e-5, 0.5, 1.0]),
        "near_ties": lambda: np.array(near_ties(np.random.default_rng(5), 4000)),
        "two_53": lambda: np.concatenate([2.0 ** 53 + np.arange(-64, 65) * s
                                          for s in (1.0, 0.5, 2.0)]),
        # odd multiples of powers of two; 2^-25 and 3 * 2^-24 scale to exact
        # 17-digit ties through a 10^q that is not a double
        "powers_of_two": lambda: np.ldexp(np.arange(1, 16, 2.0)[:, None],
                                          np.arange(-1074, 1021)).ravel(),
    }[family]()
    values = np.resize(values, -(-len(values) // width) * width).reshape(-1, width)
    header = [f"c{k}" for k in range(width)]
    assert written(tmp_path, header, list(values.T)) == reference_csv(header, list(values.T))


def test_all_zero_columns_match_reference(tmp_path):
    rng = np.random.default_rng(6)
    cols = [np.zeros(50), -np.zeros(50), rng.standard_normal(50), np.zeros(50)]
    out = written(tmp_path, ["a", "b", "c", "d"], cols)
    assert out == reference_csv(["a", "b", "c", "d"], cols)
    assert out.decode().splitlines()[1].startswith("0,-0,")


def test_fast_path_formats_nearly_every_value():
    """Fewer than 1 in 10^4 seeded normal or log-uniform values (1e-280 to
    1e280) leave the certified numpy path for the per-value ``%`` fallback."""
    rng = np.random.default_rng(7)
    n = 10 ** 6
    for values in (rng.standard_normal(n),
                   rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-280, 280, n)):
        fallbacks = sum(int(np.count_nonzero(~artifacts._certified(chunk)[0]))
                        for chunk in np.array_split(values, 16))
        assert fallbacks < n // 10 ** 4


def test_writing_a_wide_table_keeps_memory_bounded(tmp_path):
    """The streaming writer holds the stacked table and one block's
    temporaries, under 4 MB for a 1,001 x 1,025 trajectory-shaped table."""
    rng = np.random.default_rng(8)
    table = rng.standard_normal((1001, 1025))
    header = [f"c{k}" for k in range(1025)]
    columns = list(table.T)  # one view per column, as the callers pass them
    write_csv(tmp_path / "warm.csv", header, columns)  # builds the lookup tables
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_csv(tmp_path / "out.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start - table.nbytes < 4 * 2 ** 20


def test_file_hash_reads_in_chunks(tmp_path):
    """A file of several chunks and a partial last one hashes as its bytes
    do, while holding at most two chunks at a time."""
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(9).bytes(5 * artifacts._HASH_CHUNK + 12_345))
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    tracemalloc.start()
    try:
        got = artifacts.sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 3 * artifacts._HASH_CHUNK
    (tmp_path / "empty.bin").write_bytes(b"")
    assert artifacts.sha256_file(tmp_path / "empty.bin") == hashlib.sha256(b"").hexdigest()
