"""Deterministic CSV/JSON artifact writers.

Floats go to CSV with 17 significant digits (lossless for doubles) and to
JSON through the shortest round-trip repr; keys are sorted and the byte
stream carries no timestamps, so identical inputs reproduce identical
artifact bytes.

The CSV writer stacks its columns into one float64 table and streams it a
row block of about ``_BLOCK_VALUES`` values at a time, each block formatted
by one ``%`` over a repeated ``%.17g`` row template.  The bytes are those of
``f"{x:.17g}"`` per value (``inf``, ``-inf``, ``nan``, ``-0`` included), one
row per line; the whole text is never held at once.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

_BLOCK_VALUES = 1 << 16


def write_csv(path, header, columns) -> None:
    """Write named columns of equal length; a 2-D (rows, k) column is k columns."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("csv columns must have equal length")
    table = np.column_stack(cols) if cols else np.empty((0, 0))
    width = table.shape[1]
    if len(header) != width:
        raise ValueError(f"csv header names {len(header)} columns, the data {width}")
    rows_per_block = max(1, _BLOCK_VALUES // max(width, 1))
    row = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(table), rows_per_block):
            block = table[start:start + rows_per_block]
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


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


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
