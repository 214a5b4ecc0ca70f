"""Turn one OA with a resolvable column projection into a full large set.

A projection onto columns i1..il is resolvable when its level product equals
N and the N rows restricted to it are pairwise distinct (a bijection between
rows and tuples).  Adding a constant shift vector to the complementary columns
then yields pairwise row-disjoint translates whose union is the full
factorial: the shifted arrays are per-column symbol translations (strength
preserved), and two translates sharing a row would force equal shifts via the
bijective projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from . import arrays, work
from .arrays import LargeSet, SymbolMatrix, project_columns
from .errors import BudgetExceededError, ConstraintError, SizeCapError, VerificationError


@dataclass(frozen=True)
class ResolvableProjection:
    columns: tuple[int, ...]
    level_product: int


def check_resolvable_projection(a: SymbolMatrix, columns) -> tuple[bool, str | None]:
    """True iff the level product equals N and the projection is a bijection
    between rows and tuples; otherwise a human-readable counterexample."""
    columns = tuple(int(c) for c in columns)
    if len(set(columns)) != len(columns):
        raise ConstraintError(f"projection columns {columns} must be distinct")
    for c in columns:
        if not 0 <= c < a.k:
            raise ConstraintError(f"column {c} out of range [0, {a.k})")
    levels = [a.profile.levels[c] for c in columns]
    if prod(levels) != a.n:
        return False, f"level product {prod(levels)} != N={a.n}"
    if not columns:  # then N = 1, and the one row maps to the empty tuple
        return True, None
    # N rows onto a universe of N: the occupancy pass's marked map decides;
    # take keeps the projected rows row by row, as the codes' matmul reads them
    tup, _, _ = arrays._smallest_repeat(a.cells.take(columns, axis=1), levels)
    if tup is not None:
        return False, f"tuple {tup} occurs more than once on columns {columns}"
    return True, None


def require_resolvable(a: SymbolMatrix, columns) -> ResolvableProjection:
    """The projection onto `columns` if it is resolvable, else a VerificationError."""
    columns = tuple(columns)
    ok, why = check_resolvable_projection(a, columns)
    if not ok:
        raise VerificationError(f"projection {columns} is not resolvable: {why}")
    return ResolvableProjection(columns, a.n)


def project_resolvable(
    a: SymbolMatrix, proj: ResolvableProjection, columns
) -> tuple[SymbolMatrix, ResolvableProjection]:
    """Project onto `columns` (in order) and renumber the resolvable columns
    to match; dropping one of them is a ConstraintError.  Resolvability itself
    is unchanged by the projection and is checked by expand_shift."""
    columns = [int(c) for c in columns]
    if not set(proj.columns) <= set(columns):
        raise ConstraintError(
            f"columns {tuple(columns)} must retain the resolvable columns {proj.columns}")
    b = project_columns(a, columns)
    return b, ResolvableProjection(tuple(columns.index(c) for c in proj.columns), b.n)


def _product_subsets(levels, top_limit: int, target: int, counter: list[int]):
    """Subsets of columns < top_limit with level product == target, yielded in
    colexicographic order (largest element varied last)."""
    if target == 1:
        counter[0] += 1
        if counter[0] > work.SUBSET_SEARCH_CAP:
            raise BudgetExceededError(
                f"resolvable-projection search exceeded {work.SUBSET_SEARCH_CAP} candidates"
            )
        yield ()
        return
    for top in range(top_limit):
        if target % levels[top] == 0:
            for rest in _product_subsets(levels, top, target // levels[top], counter):
                yield rest + (top,)


def find_resolvable_projection(a: SymbolMatrix) -> ResolvableProjection | None:
    """Colexicographically first column subset whose level product equals N
    and which projects bijectively; None when no subset qualifies."""
    counter = [0]
    for cand in _product_subsets(a.profile.levels, a.k, a.n, counter):
        ok, _ = check_resolvable_projection(a, cand)
        if ok:
            return ResolvableProjection(cand, a.n)
    return None


@lru_cache(maxsize=64)
def _shift_index(levels: tuple[int, ...], columns: tuple[int, ...]):
    """The index arrays of expand_shift over `levels` with the resolvable
    `columns`: each column's number of shifts (its level, or 1 if
    resolvable) and the table row of its shift 0; each table row's column,
    shift and level; and each column's digit place in a member's index."""
    shifts = [1 if j in columns else s for j, s in enumerate(levels)]
    radix = np.array(shifts)
    first = np.cumsum(radix) - radix
    column = np.repeat(np.arange(len(levels)), radix)
    shift = (np.arange(len(column)) - first[column])[:, None]
    level = np.array(levels)[column, None]
    place = np.array([prod(shifts[j + 1:]) for j in range(len(levels))])
    for index in (radix, first, column, shift, level, place):
        index.setflags(write=False)
    return radix, first, column, shift, level, place


def expand_shift(a: SymbolMatrix, proj: ResolvableProjection) -> LargeSet:
    """One member per shift vector over the complementary columns, in
    mixed-radix order of the shift (first complementary column most
    significant).  Member 0 is the seed array itself.

    Members are built a chunk of about CHUNK_TARGET_CELLS cells at a time,
    so no pass runs over the whole (M, N, k) array.  Column j has a table
    of s_j rows, row d the seed's column shifted by d (mod s_j), and one
    row, the seed's column, if it is resolvable; member i's column j is row
    digit_j(i) of it, digit_j(i) the shift's mixed-radix digit, so a chunk
    is one gather from the stacked tables."""
    require_resolvable(a, proj.columns)
    m = prod(s for j, s in enumerate(a.profile.levels) if j not in proj.columns)
    if m * a.n * a.k > work.MAX_OUTPUT_CELLS:
        raise SizeCapError(
            f"expansion would materialize {m * a.n * a.k} cells"
            f" (cap {work.MAX_OUTPUT_CELLS}); project to fewer columns first"
        )
    radix, first, column, shift, level, place = _shift_index(a.profile.levels,
                                                             tuple(proj.columns))
    # the sums are taken in int64 (shift's dtype) before narrowing
    table = ((a.cells.T[column] + shift) % level).astype(a.profile.dtype)
    cells = np.empty((m, a.n, a.k), dtype=a.profile.dtype)
    per = max(1, arrays.CHUNK_TARGET_CELLS // (a.n * a.k))
    for lo in range(0, m, per):
        rows = np.arange(lo, min(lo + per, m))[:, None] // place % radix + first
        # (members, k, N) rows of the table, laid out as (members, N, k)
        cells[lo:lo + per] = table[rows].transpose(0, 2, 1)
    return LargeSet._stacked(a.profile, cells, (a.t,) * m, a.t)
