"""Naive references that only tests use: each recomputes a fact the library
decides another way, so the two can be compared."""

from math import prod

import numpy as np


def field_rank(field, vectors) -> int:
    """Rank of a list of equal-length column vectors over the field, by
    Gauss-Jordan elimination of their rows."""
    rows = [list(v) for v in zip(*vectors)]  # to row-major
    n_cols = len(vectors)
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def row_weights(levels) -> np.ndarray:
    """Mixed-radix weights encoding a full row over `levels` to an integer in
    [0, product of the levels), column 0 most significant."""
    return np.array([prod(levels[j + 1:]) for j in range(len(levels))], dtype=np.int64)


def colex_combinations(k: int, t: int):
    """All t-subsets of range(k) as ascending tuples, in colexicographic
    order: for each top column, the (t - 1)-subsets below it, recursively."""
    if t == 0:
        yield ()
        return
    for top in range(t - 1, k):
        for rest in colex_combinations(top, t - 1):
            yield rest + (top,)
