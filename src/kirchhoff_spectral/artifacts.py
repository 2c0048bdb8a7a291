"""Deterministic CSV/JSON artifact writers.

Floats go to CSV with 17 significant digits (lossless for doubles) and to
JSON through the shortest round-trip repr; keys are sorted and the byte
stream carries no timestamps, so identical inputs reproduce identical
artifact bytes.

The CSV writer stacks its columns into one float64 table and streams it in
``blocks.row_blocks`` at its own budget of ``_BLOCK_VALUES`` (8,192) values,
not ``blocks.BLOCK_VALUES``: at some 256 bytes a value, the formatter's
temporaries stay near 2 MB whatever the table size.  The bytes are those of
``f"{x:.17g}"`` per value (``inf``, ``-inf``, ``nan``, ``-0`` included), one
row per line, formatted by numpy with the certified fast path and exact
fallback of Loitsch (PLDI 2010): each |x| in [1e-280, 1e280] is scaled by a
power of ten to a double-double within about 1e-14 of its 17-digit
significand (Dekker's exact product), and the rounding is certified unless
the fraction lies within 2^-30 of a half.  Every other value (a near-tie,
nan, inf, |x| outside that range) goes to ``"%.17g" % x`` itself, which stays
the one definition of the bytes.  Each value is laid out in a 32-byte slot
(sign and "0.000" prefix at bytes 0-5, the body of 17 digits and the point
at 6-23, the exponent at 24-28, the separator at 31) and the zero padding is
dropped.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .blocks import row_blocks

_BLOCK_VALUES = 8192
_X_MAX = 280  # the fast path covers 1e-280 <= |x| <= 1e280
_Q_LO, _Q_HI = 16 - _X_MAX - 1, 16 + _X_MAX + 1  # the scales 10^q it may use
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_TIE = 2.0 ** -30


@functools.cache
def _tables():
    """Read-only lookup tables of the block formatter, built on first use.

    The byte tables hold ASCII bytes that are only copied, never read as
    numbers, so none depends on byte order.
    """
    pows = []
    for q in range(_Q_LO, _Q_HI + 1):  # 10^q = hi + lo, each part correctly rounded
        ten = 10 ** abs(q)
        hi = float(ten) if q >= 0 else 1 / ten
        num, den = hi.as_integer_ratio()
        lo = (ten * den - num) / den if q >= 0 else (den - num * ten) / (den * ten)
        hh = _SPLIT * hi - (_SPLIT * hi - hi)  # Veltkamp's split of hi
        pows.append((hi, lo, hh, hi - hh))
    xs = range(-_X_MAX, _X_MAX + 1)
    affixes = b"".join((s + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")).ljust(24, b"\0")
                       + (b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(8, b"\0")
                       for x in xs for s in (b"", b"-"))
    # the point follows body byte j: 1 in e-notation, x + 1 in fixed notation
    # with x >= 0, and 18 (none; the prefix holds it) for 0.000ddd
    point = [1 if not -4 <= x < 17 else x + 1 if x >= 0 else 18 for x in xs]
    # per (j, k) with k digits kept (and in fixed notation every digit before
    # the point): which body bytes take digit s, which take digit s - 1, and
    # the point
    masks = np.zeros((3, 19, 18, 32), np.uint8)
    for j in range(1, 19):
        for k in range(1, 18):
            keep = k if j == 18 else max(k, j)
            masks[0, j, k, 6:6 + min(j, keep)] = 0xFF
            masks[1, j, k, 7 + j:7 + keep] = 0xFF
            if k > j:
                masks[2, j, k, 6 + j] = ord(".")
    tens = np.array([1000, 100, 10, 1], np.int16)
    digits4 = (np.arange(10000, dtype=np.int16)[:, None] // tens % 10 + ord("0")).astype(np.uint8)
    tables = (np.array(pows).T.copy(),
              digits4.view(np.uint32).ravel(),
              np.cumprod(digits4[:, ::-1] == ord("0"), axis=1, dtype=np.int8).sum(1, np.int8),
              np.frombuffer(affixes, np.uint8).reshape(-1, 32),
              18 * np.array(point, np.intp),
              masks.reshape(3, -1, 32))
    for t in tables:
        t.setflags(write=False)
    return tables


def _certified(x):
    """(ok, digits, exponent): where ok, ``digits`` (int64) holds the 17
    significant digits of ``f"{x:.17g}"`` and ``exponent`` its decimal
    exponent; a zero gives 0 and 0.

    |x|·10^q, with q = 16 - floor(log10|x|), is formed as a double-double from
    Dekker's exact product with a two-double 10^q, within about 1e-14 of its
    true value, and rounded to an integer.  A value is certified when |x| is
    in [1e-280, 1e280], the fraction lies farther than 2^-30 from ½ and the
    digits are in [1e16 + 2, 1e17 - 32], which rules out a mis-picked
    exponent and a carry into an 18th digit.  Where 10^q is a double (lo = 0)
    the product is exact, so a tie is certified too and rounds half to even,
    as ``%`` does; such ties are common just below 1e16."""
    pows = _tables()[0]
    a = np.abs(x)
    fast = (a >= 10.0 ** -_X_MAX) & (a <= 10.0 ** _X_MAX)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo, hh, hl = np.take(pows, 16 - _Q_LO - e, axis=1)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi  # integer-valued wherever the digits are certified (p > 2^53)
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    floor_t = np.floor(t)
    frac = t - floor_t
    digits = p.astype(np.int64) + floor_t.astype(np.int64)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits % 2 == 1))
    ok = fast & ((np.abs(frac - 0.5) > _TIE) | (lo == 0))
    ok &= (digits >= 10 ** 16 + 2) & (digits <= 10 ** 17 - 32)
    return ok | (x == 0), np.where(ok, digits, 0), np.where(ok, e, 0)


def _format_block(block) -> bytes:
    """The CSV rows of a (rows, width) float64 block, as ``%.17g`` writes them."""
    if not block.size:
        return b"\n" * len(block)
    _, digits4, zeros4, affixes, point18, masks = _tables()
    x = block.ravel()
    n = len(x)
    ok, d, e = _certified(x)
    lead, rest = np.divmod(d, 10 ** 16)
    chunks = np.empty((n, 4), np.int64)
    np.divmod(rest // 10 ** 8, 10 ** 4, out=(chunks[:, 0], chunks[:, 1]))
    np.divmod(rest % 10 ** 8, 10 ** 4, out=(chunks[:, 2], chunks[:, 3]))
    # the digits at bytes 7-23 of each slot, so that the slot bytes shifted
    # by one hold digit s at body byte s and the unshifted ones digit s - 1
    staged = np.zeros((n + 1, 8), np.uint32)
    staged[:n, 2:6] = np.take(digits4, chunks)
    s = staged.view(np.uint8).ravel()
    s[7:32 * n:32] = lead + ord("0")
    z, empty = np.take(zeros4, chunks), chunks == 0  # k: the digits up to the last nonzero
    k = 17 - (z[:, 3] + empty[:, 3] * (z[:, 2] + empty[:, 2] * (z[:, 1] + empty[:, 1] * z[:, 0])))
    xi = e + _X_MAX
    mask_rows = np.take(point18, xi) + k
    keep_in_place, keep_shifted, point = np.take(masks, mask_rows, axis=1).reshape(3, -1)
    out = (s[1:32 * n + 1] & keep_in_place) | (s[:32 * n] & keep_shifted)
    out |= point
    out |= np.take(affixes, 2 * xi + np.signbit(x), axis=0).ravel()
    out = out.reshape(n, 32)
    bad = np.flatnonzero(~ok)
    if len(bad):
        text = np.array([b"%.17g" % v for v in x[bad].tolist()], "S31")
        out[bad, :31] = text.view(np.uint8).reshape(len(bad), 31)
    sep = out.reshape(*block.shape, 32)[:, :, 31]
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def write_csv(path, header, columns) -> None:
    """Write named columns of equal length; a 2-D (rows, k) column is k columns."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("csv columns must have equal length")
    table = np.column_stack(cols) if cols else np.empty((0, 0))
    width = table.shape[1]
    if len(header) != width:
        raise ValueError(f"csv header names {len(header)} columns, the data {width}")
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode("utf-8"))
        for rows in row_blocks(len(table), width, _BLOCK_VALUES):
            f.write(_format_block(table[rows]))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


_HASH_CHUNK = 1 << 20  # bytes read at a time, so a hash never loads a file whole


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.cache
def blas_core() -> str:
    """The OpenBLAS core that numpy's BLAS runs on, such as "SkylakeX", or "unknown".

    The artifact bytes of a multi-mode run depend on it: OpenBLAS picks its
    kernels per CPU when it loads, and OPENBLAS_CORETYPE overrides the pick.
    numpy's wheel bundles OpenBLAS in numpy.libs; the core is read once per
    process, on first use.
    """
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
            "*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"
