"""Naive references that only tests use: each recomputes a fact the library
decides another way, so the two can be compared."""

import itertools
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


def field_det(field, matrix) -> int:
    """Determinant of a square matrix (list of rows) over the field."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = field.neg(det)
        det = field.mul(det, m[col][col])
        inv = field.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = field.mul(inv, m[r][col])
                m[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[r], m[col])]
    return det


def greedy_basis(field, columns, m) -> list[int]:
    """The first m independent columns in order, found by reducing each
    column once against the echelon rows (1 at their pivot) so far; fewer
    when the columns have rank below m."""
    basis: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for j, v in enumerate(columns):
        for pivot, row in echelon:
            if f := v[pivot]:
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, [field.mul(field.inv(v[pivot]), x) for x in v]))
            basis.append(j)
            if len(basis) == m:
                break
    return basis


def projective_points(field, n) -> list[tuple[int, ...]]:
    """One point of F_q^n per projective point, first nonzero coordinate 1,
    in lexicographic order."""
    return [v for v in itertools.product(field.elements(), repeat=n)
            if any(v) and next(x for x in v if x) == 1]


def moment_curve(field, t) -> list[tuple[int, ...]]:
    """(1, c, ..., c^(t-1)) for every c, then (0, ..., 0, 1), and for even q
    at t = 3 also (0, 1, 0)."""
    cols = [tuple(field.pow(c, i) for i in range(t)) for c in field.elements()]
    cols.append((0,) * (t - 1) + (1,))
    if field.p == 2 and t == 3:
        cols.append((0, 1, 0))
    return cols


def quartic_columns(field) -> list[tuple[int, ...]]:
    """(0, 0, 1, 0), then (u, v, -(u^2 + a u v + v^2), 1) for all (u, v)
    ascending, with a the smallest element outside {-(z + 1/z) : z != 0}."""
    f = field
    forbidden = {f.neg(f.add(z, f.inv(z))) for z in range(1, f.q)}
    a = next(x for x in f.elements() if x not in forbidden)
    return [(0, 0, 1, 0)] + [
        (u, v, f.neg(f.add(f.mul(u, u), f.add(f.mul(a, f.mul(u, v)), f.mul(v, v)))), 1)
        for u in f.elements() for v in f.elements()]


def lead_first(field, columns, m) -> list[tuple[int, ...]]:
    """The columns with their greedy basis rotated to the front, the rest in
    order: the order in which the linear constructions emit them."""
    basis = greedy_basis(field, columns, m)
    return [columns[j] for j in basis] + [c for j, c in enumerate(columns) if j not in basis]
