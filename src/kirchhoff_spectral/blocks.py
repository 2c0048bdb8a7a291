"""The one row-block budget of every (rows x width) pass.

A pass over a (rows, width) table, such as the norm kernel over (samples,
modes) or the continuity check over (grid, grid), takes a few rows at a time,
so that each temporary holds ``BLOCK_VALUES`` float64 values (256 KB) or one row.
"""

BLOCK_VALUES = 1 << 15


def row_blocks(rows: int, width: int, budget: int):
    """Row slices of a (rows, width) table, ``budget`` values or one row each."""
    step = max(1, budget // max(width, 1))
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))
