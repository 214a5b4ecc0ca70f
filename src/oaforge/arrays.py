"""Data model and exhaustive verification for mixed-level orthogonal arrays.

Symbols are column-local integers 0..s-1.  A SymbolMatrix is an immutable
N x k run matrix; a LargeSet is an ordered list of M row-disjoint simple
N x k members partitioning the full factorial, stored as one (M, N, k)
array.  Cells are stored in their profile's dtype: one byte a symbol
(uint8) when every level is at most 256, int32 otherwise.  The counting
kernels widen what they count a chunk at a time.

The strength verifier counts every t-tuple in every t-subset of columns with
one kernel for single arrays and stacked large sets.  It walks blocks of
columns depth-first from the largest column down: a node's row codes are its
parent's times the column's level plus the column, starting from the member
index, so a block costs one multiply-add and one bincount (runs of small
blocks share one).  A block is one t-subset unless the array has many rows
and a large index: then each t-subset is assigned to one wider block (see
_cover) and read off its table as an exact marginal sum, as a data cube
reads a group-by off a wider one (Gray et al., 1997).  Failures are
reported in colexicographic subset order.  A large set's members are
counted only where needed: a member that is member 0 with each column's
symbols permuted, row for row, has member 0's tuple counts up to
relabelling and so its verdict (Hedayat, Sloane & Stufken, Orthogonal
Arrays, 1999, ch. 1); such members are certified by comparing their row
codes with those of member 0's rows relabelled (see _certificate), and only
the others are counted with member 0.
An array of h blocks of row products P_s x Q_s, the output of the Kronecker
pairing, is counted through its two factors where the walk would count it
in blocks wider than t (see _product_strength): its cells are first
compared, a chunk of blocks at a time, with the row products of P_s and Q_s
read off its own first cells, then each side is counted block by block and
as a union, on h * N1 and h * N2 rows instead of h * N1 * N2.  The block by
block count takes the same certificate as a large set's members
(_relabels): a block that is block 0 relabelled column by column has block
0's verdict, so only block 0 and the blocks not certified are counted.
Repeated rows are found by one occupancy pass over the row codes, a chunk
at a time (see _smallest_repeat): a boolean map of a universe the rows
fill, every slot marked, proves them repeat-free, and else one sort of the
codes names the repeats.  Up to a universe of OCCUPANCY_LIMIT = 2^24 a
chunk's codes are one exact float32 matmul, and a large set's members are
certified from the same codes.  Its callers: a large set's union of M * N
rows, and expand.check_resolvable_projection's N rows onto a universe of N.
brute_force_strength re-counts with deliberately naive nested loops and
shares no kernels with the fast path; it is the oracle the fast path is
tested against.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

import numpy as np

from . import work
from .errors import BudgetExceededError, ConstraintError

OCCUPANCY_LIMIT = 1 << 24  # float32 row codes up to this universe
CODE_LIMIT = 1 << 62  # int64 row codes below this universe, the rows' ranks from it on
CHUNK_TARGET_CELLS = 1 << 16  # cells per chunk: counting kernel, occupancy pass, shift expansion
BLOCK_ROWS_PER_CELL = 16  # a block of columns counted for its t-subsets has <= N / this cells
BLOCK_MIN_ROWS = 1 << 13  # and is counted only in arrays of at least this many rows


class LevelProfile:
    """Per-column symbol cardinalities; column order is significant.  `dtype`
    is the dtype of the cells over the profile, whose symbols are 0 .. s - 1:
    uint8 when every level is at most 256, int32 otherwise."""

    __slots__ = ("levels", "dtype")

    def __init__(self, levels):
        levels = tuple(int(s) for s in levels)
        if not levels:
            raise ConstraintError("a profile needs at least one column")
        if any(s < 2 for s in levels):
            raise ConstraintError("every column needs at least 2 levels")
        if any(s > 2**31 for s in levels):
            raise ConstraintError("every column needs at most 2^31 levels (symbols are int32)")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "dtype", np.dtype(np.uint8 if max(levels) <= 256 else np.int32))

    def __setattr__(self, name, value):
        raise AttributeError("LevelProfile is immutable")

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def universe_size(self) -> int:
        return prod(self.levels)

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """Run-length encoding (level, count) in column order."""
        out: list[list[int]] = []
        for s in self.levels:
            if out and out[-1][0] == s:
                out[-1][1] += 1
            else:
                out.append([s, 1])
        return tuple((s, c) for s, c in out)

    @property
    def counts(self) -> dict[int, int]:
        """Aggregated multiset view {level: column count}."""
        out: dict[int, int] = {}
        for s in self.levels:
            out[s] = out.get(s, 0) + 1
        return out

    def c(self, j: int) -> int:
        return self.levels[j]

    @classmethod
    def from_groups(cls, groups) -> "LevelProfile":
        levels = []
        for s, c in groups:
            levels.extend([s] * c)
        return cls(levels)

    @classmethod
    def parse(cls, text: str) -> "LevelProfile":
        """Parse '2^3,4^1' style group lists; bare 's' means s^1."""
        groups = []
        for part in text.split(","):
            if "^" in part:
                s, _, c = part.partition("^")
                groups.append((int(s), int(c)))
            else:
                groups.append((int(part), 1))
        return cls.from_groups(groups)

    def format(self) -> str:
        return ",".join(f"{s}^{c}" for s, c in self.groups)

    def __eq__(self, other):
        return isinstance(other, LevelProfile) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f"LevelProfile({self.format()})"


def _freeze(obj, **fields):
    """Set the fields of an immutable object; its cells, which must be in
    its profile's dtype, become read-only."""
    cells, dtype = fields["cells"], fields["profile"].dtype
    if cells.dtype != dtype:
        raise TypeError(f"cells are {cells.dtype}, the profile's dtype is {dtype}")
    cells.setflags(write=False)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


class SymbolMatrix:
    """An N x k run matrix over a LevelProfile, with an optional claimed
    strength t carried for file round-trips and verification defaults.  A
    C-contiguous `cells` in the profile's dtype is taken over without a copy
    and made read-only, so the caller's array is frozen too; other input is
    range-checked as given and then copied into that dtype."""

    __slots__ = ("profile", "cells", "t")

    def __init__(self, profile: LevelProfile, cells, t: int | None = None):
        cells = np.asarray(cells)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D matrix")
        if cells.shape[1] != profile.k:
            raise ValueError(
                f"cells have {cells.shape[1]} columns, profile has {profile.k}"
            )
        # checked before narrowing, which would wrap 257 or -255 to 1
        top = np.array([s - 1 for s in profile.levels], dtype=profile.dtype)
        if cells.size and (cells.min() < 0 or (cells > top).any()):
            bad = np.argwhere((cells < 0) | (cells > top))[0]
            raise ValueError(
                f"symbol {cells[bad[0], bad[1]]} out of range in column {bad[1]}"
                f" (row {bad[0]})"
            )
        _freeze(self, profile=profile, cells=np.ascontiguousarray(cells, dtype=profile.dtype),
                t=t)

    @classmethod
    def _trusted(cls, profile: LevelProfile, cells: np.ndarray, t: int | None):
        """A matrix over cells in the profile's dtype whose symbols are already
        known to be in range: no copy and no second check; the cells are made
        read-only."""
        a = object.__new__(cls)
        _freeze(a, profile=profile, cells=cells, t=t)
        return a

    def __setattr__(self, name, value):
        raise AttributeError("SymbolMatrix is immutable")

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def k(self) -> int:
        return self.cells.shape[1]

    def with_t(self, t: int | None) -> "SymbolMatrix":
        return SymbolMatrix(self.profile, self.cells, t)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolMatrix)
            and self.profile == other.profile
            and self.t == other.t
            and np.array_equal(self.cells, other.cells)
        )

    def __repr__(self):
        return f"SymbolMatrix(N={self.n}, levels={self.profile.format()}, t={self.t})"


class LargeSet:
    """M members sharing one profile and N, stored as one read-only
    C-contiguous (M, N, k) array `cells` in the profile's dtype (its members'
    dtype, so stacking them does not convert); `member_t` holds each member's
    claimed strength and `t` the set's.  `members` gives the members as
    SymbolMatrix views into `cells`, built on first use."""

    __slots__ = ("profile", "cells", "member_t", "t", "_members")

    def __init__(self, profile: LevelProfile, members, t: int | None = None):
        members = tuple(members)
        if not members:
            raise ValueError("a large set needs at least one member")
        for i, m in enumerate(members):
            if m.profile != profile:
                raise ValueError(f"member {i} profile {m.profile} != {profile}")
            if m.n != members[0].n:
                raise ValueError(f"member {i} has {m.n} rows, member 0 has {members[0].n}")
        _freeze(self, profile=profile, cells=np.stack([m.cells for m in members]),
                member_t=tuple(m.t for m in members), t=t, _members=None)

    @classmethod
    def _stacked(cls, profile: LevelProfile, cells: np.ndarray, member_t, t: int | None):
        """A large set over an (M, N, k) array in the profile's dtype whose
        symbols are already known to be in range; the array is made
        read-only, not copied."""
        ls = object.__new__(cls)
        _freeze(ls, profile=profile, cells=cells, member_t=tuple(member_t), t=t,
                _members=None)
        return ls

    def __setattr__(self, name, value):
        raise AttributeError("LargeSet is immutable")

    @property
    def members(self) -> tuple[SymbolMatrix, ...]:
        if self._members is None:
            object.__setattr__(self, "_members", tuple(
                SymbolMatrix._trusted(self.profile, c, t)
                for c, t in zip(self.cells, self.member_t)))
        return self._members

    @property
    def m(self) -> int:
        return self.cells.shape[0]

    @property
    def n(self) -> int:
        return self.cells.shape[1]

    def __repr__(self):
        return (
            f"LargeSet(M={self.m}, N={self.n},"
            f" levels={self.profile.format()}, t={self.t})"
        )


def full_factorial(profile: LevelProfile, t: int | None = None) -> SymbolMatrix:
    """All k-tuples exactly once, in mixed-radix row order (column 0 most
    significant)."""
    grids = np.indices(profile.levels, dtype=profile.dtype)
    cells = np.stack([g.ravel() for g in grids], axis=1)
    return SymbolMatrix._trusted(profile, cells, t if t is not None else profile.k)


# -- strength verification ---------------------------------------------------


@dataclass(frozen=True)
class StrengthFailure:
    columns: tuple[int, ...]
    kind: str  # "non-integer-index" or "count-imbalance"
    symbols: tuple[int, ...] | None
    observed: int | None
    expected: Fraction

    def as_record(self) -> dict:
        rec = {
            "kind": self.kind,
            "columns": list(self.columns),
            "expected": str(self.expected),
        }
        if self.symbols is not None:
            rec["tuple"] = list(self.symbols)
        if self.observed is not None:
            rec["observed"] = self.observed
        return rec


class StrengthReport:
    """Outcome of one strength check.  The per-subset index map is built
    lazily; for large column counts it can hold hundreds of thousands of
    entries that most callers never read."""

    def __init__(self, t, lambda_by_subset=None, failures=None,
                 checked_subsets=0, _lazy_lambda=None):
        self.t = t
        self.failures: list[StrengthFailure] = failures if failures is not None else []
        self.checked_subsets = checked_subsets
        self._lambda = lambda_by_subset
        self._lazy = _lazy_lambda  # (levels, n): every t-subset's index n / prod

    @property
    def lambda_by_subset(self) -> dict[tuple[int, ...], Fraction]:
        if self._lambda is None:
            levels, n = self._lazy
            self._lambda = {tuple(sub): Fraction(n, prod(levels[j] for j in sub))
                            for sub in _colex(len(levels), self.t).tolist()}
        return self._lambda

    @property
    def ok(self) -> bool:
        return not self.failures

    def failing_subsets(self) -> list[tuple[int, ...]]:
        seen: dict[tuple[int, ...], None] = {}
        for f in self.failures:
            seen.setdefault(f.columns, None)
        return list(seen)

    def __repr__(self):
        verdict = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"StrengthReport(t={self.t}, {verdict}, {self.checked_subsets} subsets)"


class _Plan(NamedTuple):
    """How to count one (levels, t, N).  A subset whose level product does
    not divide N has no integer index and fails without a count; the others
    are read off the leaves of the walk, blocks of s >= t columns (see
    _cover), whose depth-d nodes are runs of leaves with the same d largest columns."""

    t: int
    subsets: np.ndarray  # every t-subset, ascending, a row each in colex order
    prods: np.ndarray  # level product of each subset
    uncounted: list[int]  # indices of the subsets without an integer index
    counted: np.ndarray  # indices of the others, leaf by leaf
    lams: np.ndarray  # index of each counted subset
    down: np.ndarray  # leaves' columns, largest first
    radix: np.ndarray  # the levels of those columns
    spaces: np.ndarray  # level product of each leaf
    bounds: np.ndarray  # leaf i holds counted[bounds[i]:bounds[i + 1]]
    axes: list | None  # per counted subset, its leaf's table axes: the summed ones first
    cuts: tuple  # per depth d, the first leaf of each depth-(d + 1) node, then len(down)


def _binom(k: int, t: int) -> np.ndarray:
    """C(c, i) at [c, i] for c <= k and i <= t.  An ascending subset's colex
    rank among those of its size is the sum of C(c, i + 1), c at place i."""
    return np.array([[comb(c, i) for i in range(t + 1)] for c in range(k + 1)], dtype=np.int64)


def _colex(k: int, t: int) -> np.ndarray:
    """The t-subsets of range(k), ascending, as the rows of a (C(k, t), t)
    array in colex order: the j-subsets of range(k - t + j) are, top column c
    by c, the first C(c, j - 1) of the (j - 1)-subsets followed by c."""
    binom, rows = _binom(k, t), np.zeros((1, 0), dtype=np.int64)
    for j in range(1, t + 1):
        tops = np.repeat(np.arange(k - t + j), binom[:k - t + j, j - 1])
        # C(c, j) subsets come before the first one topped by c
        rows = np.column_stack((rows[np.arange(len(tops)) - binom[tops, j]], tops))
    return rows


def _block_width(levels: tuple[int, ...], t: int, n: int) -> int:
    """How many columns the blocks have that the walk counts the t-subsets of
    an N-row array in: t, or more when N is at least BLOCK_MIN_ROWS and
    BLOCK_ROWS_PER_CELL times the cells of a block of the largest levels."""
    width, top = t, sorted(levels, reverse=True)
    while width < len(levels) and n >= max(BLOCK_MIN_ROWS,
                                           BLOCK_ROWS_PER_CELL * prod(top[:width + 1])):
        width += 1
    return width


# one compose_recipes benchmark deck, Kronecker factors included, makes about 70
@lru_cache(maxsize=256)
def _strength_plan(levels: tuple[int, ...], t: int, n: int) -> _Plan:
    cols = _colex(len(levels), t)
    lv = np.asarray(levels, dtype=np.int64)
    prods = np.prod(lv[cols], axis=1)
    counted, width = np.flatnonzero(n % prods == 0), _block_width(levels, t, n)
    down, bounds, axes = cols[counted, ::-1], np.arange(len(counted) + 1), None
    if width > t:
        down, owned = _cover(cols, n % prods == 0, width)
        counted = np.fromiter(itertools.chain.from_iterable(owned), dtype=np.int64)
        bounds = np.cumsum([0] + [len(own) for own in owned])
        blocks = np.repeat(down, np.diff(bounds), axis=0)  # the block of each counted subset
        inside = (blocks[:, :, None] == cols[counted, None, :]).any(axis=2)
        # the table's axes: the summed columns', the members' (0), the subset's columns'
        axes = np.argsort(np.column_stack((np.ones(len(blocks)), 2 * inside)), 1, kind="stable")
        axes = axes.tolist()  # lists, which transpose takes faster than rows
    radix = lv[down].astype(np.int32 if max(levels) < 1 << 31 else np.int64)
    starts = np.ones((len(down) + 1, width), dtype=bool)  # leaf i starts a depth-(d + 1) node
    starts[1:-1] = np.logical_or.accumulate(down[1:] != down[:-1], axis=1)
    return _Plan(t, cols, prods, np.flatnonzero(n % prods).tolist(), counted,
                 n // prods[counted], down, radix, np.prod(lv[down], axis=1), bounds, axes,
                 tuple(np.flatnonzero(column) for column in starts.T))


def _cover(cols: np.ndarray, need: np.ndarray, width: int):
    """Blocks of `width` columns, largest first and in colex order, and the
    counted t-subsets (rows of `cols`, marked in `need`) assigned to each,
    every one to exactly one block holding it.  A greedy covering design
    (Gordon, Kuperberg & Patashnik, 1995): a block starts from the first
    subset still unassigned and takes, one at a time, the column that
    completes the most unassigned subsets, the smallest on a tie."""
    (m, t), k = cols.shape, int(cols.max()) + 1
    binom = _binom(k, t)

    def ranks(subs, size):  # colex ranks of ascending rows
        return binom[np.asarray(subs, dtype=np.int64), np.arange(1, size + 1)].sum(-1)

    grow = np.full((comb(k, t - 1), k), m, dtype=np.int32)  # (t-1)-subset, column -> subset
    for j in range(t):
        grow[ranks(np.delete(cols, j, axis=1), t - 1), cols[:, j]] = np.arange(m)
    need, found, first = np.append(need, False), {}, 0  # rank m is never needed
    while need[first := first + int(np.argmax(need[first:]))]:
        block = cols[first].tolist()
        while len(block) < width:
            gain = need[grow[ranks(list(itertools.combinations(block, t - 1)), t - 1)]].sum(0)
            gain[block] = -1
            block = sorted(block + [int(np.argmax(gain))])
        inside = ranks(list(itertools.combinations(block, t)), t)
        found[tuple(block[::-1])] = np.sort(inside[need[inside]]).tolist()
        need[inside] = False
    order = sorted(found)
    return np.array(order, dtype=np.int64).reshape(len(order), width), [found[b] for b in order]


def _off_walk(cells: np.ndarray, plan: _Plan):
    """Count stacked (M, N, k) cells in chunks of about CHUNK_TARGET_CELLS
    rows of whole members.  Yields, leaf by leaf within each chunk, (first
    member, position in plan.counted of the first subset, off) with `off`
    the (members, subsets) array of the subsets that are off."""
    m, n, k = cells.shape
    per = max(1, CHUNK_TARGET_CELLS // max(n, 1))
    # codes stay below max(CHUNK_TARGET_CELLS, N): a batch of subsets shares
    # CHUNK_TARGET_CELLS slots, one subset has members * N
    dtype = np.int32 if max(CHUNK_TARGET_CELLS, n) < 1 << 31 else np.int64
    for first in range(0, m if len(plan.counted) else 0, per):
        block = cells[first:first + per]
        x = np.ascontiguousarray(block.reshape(-1, k).T, dtype=dtype)
        # the member index is the leading coordinate of the root code
        root = np.repeat(np.arange(len(block), dtype=dtype), n) if len(block) > 1 else None
        # one row of codes per depth, then room for two batches of codes
        fit = CHUNK_TARGET_CELLS // max(x.shape[1], 1)
        bufs = np.empty((plan.down.shape[1] + 2 * max(fit, 1), x.shape[1]), dtype=dtype)
        for lo, off in _walk(x, root, 0, len(plan.down), 0, plan, bufs, len(block)):
            yield first, plan.bounds[lo], off


def _walk(x, code, lo, hi, depth, plan, bufs, members):
    """Depth-first over the depth-`depth` node of leaves [lo, hi), whose rows
    have the codes `code` (None for zeros); its children start at its cuts.
    A run of two or more children whose leaves x rows fit in
    CHUNK_TARGET_CELLS is one batch from these codes; any other child gets
    its codes, code * level + its column, in bufs[depth] and is walked."""
    if depth == len(plan.cuts):
        yield lo, _off_batch(x, code, plan, lo, hi, depth, members, bufs)
        return
    first, last = plan.cuts[depth].searchsorted((lo, hi + 1)).tolist()
    edges = plan.cuts[depth][first:last].tolist()  # child i has leaves [edges[i], edges[i + 1])
    fit, i = CHUNK_TARGET_CELLS // max(x.shape[1], 1), 0
    while i < len(edges) - 1:
        j = bisect.bisect_right(edges, edges[i] + fit) - 1  # children i .. j - 1 fit
        if j > i + 1:
            yield edges[i], _off_batch(x, code, plan, edges[i], edges[j], depth, members, bufs)
            i = j
            continue
        col = plan.down[edges[i], depth]
        if code is not None:
            np.multiply(code, plan.radix[edges[i], depth], out=bufs[depth])
            bufs[depth] += x[col]
        yield from _walk(x, x[col] if code is None else bufs[depth], edges[i], edges[i + 1],
                         depth + 1, plan, bufs, members)
        i += 1


def _off_batch(x, code, plan, lo, hi, depth, members, bufs) -> np.ndarray:
    """Extend `code` by the remaining columns of leaves [lo, hi), one
    gather per level, and count them all in one bincount, each leaf in
    `members` tables of its level product; a block's subsets get theirs by
    summation.  A table sums to N, so it is off exactly when its largest
    count is not the subset's index."""
    down, radix, spaces = plan.down[lo:hi, depth:], plan.radix[lo:hi, depth:], plan.spaces[lo:hi]
    codes = code
    if down.shape[1]:
        t, size = plan.down.shape[1], hi - lo
        codes, tmp = bufs[t:t + size], bufs[t + size:t + 2 * size]
        np.take(x, down[:, 0], axis=0, out=codes, mode="clip")
        if code is not None:
            codes += np.multiply(code, radix[:, :1], out=tmp)
        for j in range(1, down.shape[1]):
            codes *= radix[:, j, None]
            codes += np.take(x, down[:, j], axis=0, out=tmp, mode="clip")
    starts = np.zeros(hi - lo, dtype=np.int64)
    np.cumsum(spaces[:-1] * members, out=starts[1:])
    if hi - lo > 1:
        codes += starts[:, None].astype(x.dtype)
    counts = np.bincount(codes.reshape(-1), minlength=int(starts[-1] + spaces[-1] * members))
    first, last = plan.bounds[lo], plan.bounds[hi]
    if plan.axes is not None:  # a subset's tables: its block's summed over the other columns
        sizes, parts = plan.prods[plan.counted[first:last]], []
        for leaf, start, space in zip(range(lo, hi), starts.tolist(), spaces.tolist()):
            block = counts[start:start + space * members].reshape(-1, *plan.radix[leaf].tolist())
            parts += [block.transpose(plan.axes[i]).reshape(-1, members * sizes[i - first]).sum(0)
                      for i in range(plan.bounds[leaf], plan.bounds[leaf + 1])]
        counts, spaces = np.concatenate(parts), sizes
        starts = np.concatenate(([0], np.cumsum(spaces[:-1] * members)))
    tables = (starts[:, None] + spaces[:, None] * np.arange(members)).reshape(-1)
    peaks = np.maximum.reduceat(counts, tables).reshape(last - first, members)
    return (peaks != plan.lams[first:last, None]).T


def _subset_failures(a: SymbolMatrix, sub: np.ndarray) -> list[StrengthFailure]:
    sub = tuple(sub.tolist())
    shape = [a.profile.levels[j] for j in sub]
    space = prod(shape)
    expected = Fraction(a.n, space)
    if a.n % space:
        return [StrengthFailure(sub, "non-integer-index", None, None, expected)]
    counts = np.bincount(np.ravel_multi_index(a.cells[:, sub].T, shape), minlength=space)
    bad = np.flatnonzero(counts != a.n // space)
    return [StrengthFailure(sub, "count-imbalance", tuple(symbols), int(counts[code]), expected)
            for code, symbols in zip(bad, np.transpose(np.unravel_index(bad, shape)).tolist())]


def verify_strength(a: SymbolMatrix, t: int, *, fail_fast: bool = False,
                    budget: int | None = None) -> StrengthReport:
    """Exhaustively check that every t-tuple count is N / (product of levels)
    in every t-subset of columns.

    t = 0 passes trivially.  Subsets whose level product does not divide N
    fail uncounted, as non-integer-index (not count imbalance); below the
    product of the t smallest levels that is every subset (none at N = 0),
    and no plan is made.  The others are counted by the walk (see the
    module doc).  With one subset per block they come in colex order, each
    compared as soon as it is counted, so a fail-fast return stops the
    walk; wider blocks give them out of order, so the walk is finished and
    the off subsets sorted first.  Only an off subset is recounted, to name
    its tuples.  The budget counts work.count_ops(N, k, t).
    """
    if not 0 <= t <= a.k:
        raise ConstraintError(f"strength {t} out of range [0, {a.k}]")
    if t == 0:
        return StrengthReport(t=0, lambda_by_subset={(): Fraction(a.n)}, checked_subsets=0)
    ops = work.count_ops(a.n, a.k, t)
    if budget is not None and ops > budget:  # before the plan lists them
        raise BudgetExceededError(f"strength check needs {ops} counting ops, budget {budget}")
    report = StrengthReport(t=t, checked_subsets=comb(a.k, t),
                            _lazy_lambda=(a.profile.levels, a.n))
    if a.n < prod(sorted(a.profile.levels)[:t]):
        for sub in (np.arange(t)[None] if fail_fast else _colex(a.k, t)) if a.n else ():
            report.failures.extend(_subset_failures(a, sub))
        return report
    plan = _strength_plan(a.profile.levels, t, a.n)
    failing = (plan.counted[lo + j] for _, lo, off in _off_walk(a.cells[None], plan)
               for j in np.flatnonzero(off[0]).tolist())
    if plan.axes is not None:  # blocks give their subsets out of colex order
        failing = iter(sorted(failing))
    for s in heapq.merge(plan.uncounted, failing) if plan.uncounted else failing:
        report.failures.extend(_subset_failures(a, plan.subsets[s]))
        if fail_fast:
            break
    return report


def _by_factors(levels: tuple[int, ...], t: int, n: int) -> bool:
    """Whether _product_strength counts an N-row product through its factors:
    where the walk would count its t-subsets in blocks wider than t."""
    return _block_width(levels, t, n) > t


@lru_cache(maxsize=64)
def _product_plan(levels: tuple[int, ...], k1: int, t: int):
    """The t-subsets T of a product's columns in colex order, their level
    products, and per side its levels, the colex rank of T's part among that
    side's subsets of its size, and that size; T's first `size` columns are
    A, on the first side's k1 columns, the others B."""
    cols, binom = _colex(len(levels), t), _binom(len(levels), t)
    prods = np.prod(np.asarray(levels, dtype=np.int64)[cols], axis=1)
    size, at = (cols < k1).sum(axis=1), np.arange(t)
    in_a = at < size[:, None]  # B's columns and places start at k1 and at size
    terms = binom[np.where(in_a, cols, cols - k1), np.where(in_a, at, at - size[:, None]) + 1]
    rank_a, rank_b = (terms * in_a).sum(axis=1), (terms * ~in_a).sum(axis=1)
    return cols, prods, ((levels[:k1], rank_a, size), (levels[k1:], rank_b, t - size))


def _product_strength(a: SymbolMatrix, h: int, n1: int, k1: int, t: int) -> StrengthReport:
    """verify_strength(a, t), the same report, for an array built as h blocks
    of row products: row (s * N1 + i) * N2 + j holds row i of P_s beside row
    j of Q_s, P_s of N1 rows and k1 columns, Q_s of N2 rows and the rest.

    Where _by_factors holds, P_s and Q_s are read off a's first cells of each
    block, and every cell is compared with them: a chunk of blocks' row
    products, a row of P_s and of Q_s copied as one item each, is written
    into one reused buffer and compared with a's chunk whole.  If a cell
    differs, or elsewhere, a is counted by verify_strength.  Otherwise each
    side, as the stack of its h blocks and as their union of h * N_X rows,
    is counted by the walk: each[S] says every block's table on S is
    uniform, union[S] that the union's is.  For each, the stack holds block
    0 and only the blocks that _relabels does not certify as block 0 with
    each column's symbols permuted: a certified block's tables are block
    0's relabelled, uniform exactly where block 0's are.  A t-subset T = A + B (A on P's columns, B
    on Q's) has the table sum_s c_A,s(x) c_B,s(y), c the blocks' tables; if
    each[A], every c_A,s is N1 / s_A, so T's table is N1 / s_A times the
    union's on B and T is on exactly when union[B], and the same with the
    sides swapped.  So
    each is counted on P for every T, on Q for the T that each[A] does not
    settle, and union only where an each holds, at the sizes those T need.
    A subset neither settles, which an array of strength t1 + t2 + 1 from
    factors of strengths t1 and t2 has none of, is counted on a itself, as
    are the off subsets, to name their tuples, and those without an integer
    index fail uncounted."""
    levels, k, n = a.profile.levels, a.k, a.n
    if not _by_factors(levels, t, n):
        return verify_strength(a, t)
    cells = a.cells.reshape(h, n1, n // (h * n1), k)
    p, q = np.ascontiguousarray(cells[:, :, 0, :k1]), np.ascontiguousarray(cells[:, 0, :, k1:])
    per = min(h, max(1, CHUNK_TARGET_CELLS // (n // h * k)))
    # a chunk of blocks' row products: an output row is the record of two np.void rows
    products = np.empty((per, *cells.shape[1:]), dtype=cells.dtype)
    rows = products.view([("p", f"V{p[0, 0].nbytes}"), ("q", f"V{q[0, 0].nbytes}")])[..., 0]
    for lo in range(0, h, per):
        m = min(per, h - lo)
        rows["p"][:m] = p[lo:lo + m].view(rows.dtype["p"])
        rows["q"][:m] = q[lo:lo + m].view(rows.dtype["q"])[..., 0][:, None]
        if not np.array_equal(products[:m], cells[lo:lo + m]):
            return verify_strength(a, t)
    subsets, prods, parts = _product_plan(levels, k1, t)
    sides = [(stack, *part) for stack, part in zip((p, q), parts)]

    def uniform(side, want, union):
        """Per T, whether side's table on its part of T is uniform in every
        block, or in the union of the blocks; counted only for T in `want`.
        Of the blocks, block 0 and those _relabels does not certify are
        counted: a certified block's tables are block 0's with its symbols
        permuted, so they are uniform exactly where block 0's are."""
        stack, part, ranks, sizes = side
        out = want & (sizes == 0)  # no columns: one cell holds every row
        wanted = sorted(set(sizes[want & (sizes > 0)].tolist()))  # np.unique imports numpy.ma
        if wanted and union:
            stack = stack.reshape(1, -1, len(part))
        elif wanted and len(stack) > 1:
            counted = np.flatnonzero(~_relabels(stack, part))
            stack = stack if len(counted) == len(stack) else stack[counted]
        for r in wanted:
            plan = _strength_plan(part, r, stack.shape[1])
            on = np.ones(comb(len(part), r), dtype=bool)
            on[plan.uncounted] = False
            for _, lo, off in _off_walk(stack, plan):
                on[plan.counted[lo:lo + off.shape[1]]] &= ~off.any(axis=0)
            mine = want & (sizes == r)
            out[mine] = on[ranks[mine]]
        return out

    each_a = uniform(sides[0], np.ones(len(subsets), dtype=bool), False)
    each_b = uniform(sides[1], ~each_a, False)
    on = each_a & uniform(sides[1], each_a, True) | each_b & uniform(sides[0], each_b, True)
    report = StrengthReport(t=t, checked_subsets=len(subsets), _lazy_lambda=(levels, n))
    # a subset that neither side settles has on False
    for i in np.flatnonzero((n % prods != 0) | ~on).tolist():
        report.failures.extend(_subset_failures(a, subsets[i]))
    return report


def brute_force_strength(a: SymbolMatrix, t: int,
                         budget: int = work.DEFAULT_BUDGET) -> StrengthReport:
    """Independent oracle: a deliberately naive nested re-count over python
    tuples, sharing no counting kernels with verify_strength.  The budget
    charges work.count_ops(N, k, t) or, for N = 0, the tuples enumerated:
    C(k, t) times the product of the t largest levels."""
    if not 0 <= t <= a.k:
        raise ConstraintError(f"strength {t} out of range [0, {a.k}]")
    if t == 0:
        return StrengthReport(t=0, lambda_by_subset={(): Fraction(a.n)}, checked_subsets=0)
    levels = a.profile.levels
    ops = work.count_ops(a.n or prod(sorted(levels)[-t:]), a.k, t)
    if ops > budget:
        raise BudgetExceededError(f"oracle needs {ops} operations, budget {budget}")
    rows = [tuple(int(x) for x in row) for row in a.cells]
    report = StrengthReport(t=t, lambda_by_subset={}, checked_subsets=comb(a.k, t))
    for sub in itertools.combinations(range(a.k), t):
        space = 1
        for j in sub:
            space *= levels[j]
        expected = Fraction(a.n, space)
        report.lambda_by_subset[sub] = expected
        if a.n % space != 0:
            report.failures.append(
                StrengthFailure(sub, "non-integer-index", None, None, expected)
            )
            continue
        counts: dict[tuple[int, ...], int] = {}
        for row in rows:
            key = tuple(row[j] for j in sub)
            counts[key] = counts.get(key, 0) + 1
        lam = a.n // space
        for key in itertools.product(*(range(levels[j]) for j in sub)):
            got = counts.get(key, 0)
            if got != lam:
                report.failures.append(
                    StrengthFailure(sub, "count-imbalance", key, got, expected)
                )
    return report


# -- simplicity and large sets -----------------------------------------------


def verify_simple(a: SymbolMatrix) -> tuple[bool, tuple[int, int] | None]:
    """True iff all rows are distinct; otherwise also the first duplicate row
    pair in lexicographic row order (original indices, sorted), that is, a
    pair holding the smallest repeated row.  Rows are compared in sorted
    blocks, so no copy of the whole matrix is made."""
    order = np.lexsort(a.cells.T[::-1])
    step = max(2, CHUNK_TARGET_CELLS // max(a.k, 1))
    for lo in range(0, a.n - 1, step - 1):  # blocks overlap by one row
        block = a.cells[order[lo:lo + step]]
        same = np.flatnonzero((block[1:] == block[:-1]).all(axis=1))
        if same.size:
            i, j = sorted(order[lo + same[0]:lo + same[0] + 2].tolist())
            return False, (i, j)
    return True, None


@dataclass
class LargeSetReport:
    m: int
    n: int
    universe: int
    t: int
    count_ok: bool = True
    member_problems: list[tuple[int, str]] = field(default_factory=list)
    disjoint_ok: bool = True
    collision: tuple[int, ...] | None = None
    first_bad_report: StrengthReport | None = None

    @property
    def ok(self) -> bool:
        return self.count_ok and self.disjoint_ok and not self.member_problems

    def records(self) -> list[dict]:
        recs = []
        if not self.count_ok:
            recs.append({"kind": "member-count", "m": self.m, "n": self.n,
                         "universe": self.universe})
        for idx, what in self.member_problems:
            recs.append({"kind": f"member-{what}", "member": idx})
        if not self.disjoint_ok:
            rec = {"kind": "union-repeat"}
            if self.collision is not None:
                rec["tuple"] = list(self.collision)
            recs.append(rec)
        return recs


def verify_large_set(ls: LargeSet, t: int, *, budget: int | None = None) -> LargeSetReport:
    """Check the three large-set properties: every member a simple OA of
    strength t, M * N = universe, and the union of all rows repeat-free
    (hence the full factorial).  One pass over the row codes of all M * N
    rows, a chunk of whole members at a time, comes first (see
    _smallest_repeat): it proves the union repeat-free or names its smallest
    repeat and the members holding one, and where there are more t-subsets
    than columns its codes certify the members that are member 0 with each
    column's symbols permuted (see _certificate).  Strength is then counted
    by one walk (see the module doc) over chunks of whole members, the
    member index leading every code: the walk takes member 0 and every
    member not certified; a certified member has member 0's verdict, since
    such a relabelling keeps every tuple count.  The budget charges
    work.count_ops(M * N, k, t), every member's count.  An N that
    verify_strength decides with no plan passes or fails every member so."""
    if not 0 <= t <= ls.profile.k:
        raise ConstraintError(f"strength {t} out of range [0, {ls.profile.k}]")
    report = LargeSetReport(m=ls.m, n=ls.n, universe=ls.profile.universe_size, t=t)
    report.count_ok = ls.m * ls.n == report.universe
    ops = work.count_ops(ls.m * ls.n, ls.profile.k, t)
    if t > 0 and budget is not None and ops > budget:
        raise BudgetExceededError(f"large-set check needs {ops} counting ops, budget {budget}")
    levels = ls.profile.levels
    plan = _strength_plan(levels, t, ls.n) if t and ls.n >= prod(sorted(levels)[:t]) else None
    check = _certificate(ls.cells[0], levels) if plan is not None and \
        not plan.uncounted and ls.m > 1 and len(plan.subsets) > ls.profile.k else None
    report.collision, repeated, certified = _smallest_repeat(ls.cells, levels, check)
    report.disjoint_ok = report.collision is None
    weak = np.zeros(ls.m, dtype=bool)
    if t and ls.n and (plan is None or plan.uncounted):  # a non-integer index fails uncounted
        weak[:] = True
    elif plan is not None:
        counted = np.flatnonzero(~certified)
        cells = ls.cells if len(counted) == ls.m else ls.cells[counted]
        for first, _, off in _off_walk(cells, plan):
            weak[counted[first:first + len(off)]] |= off.any(axis=1)
        weak[certified] = weak[0]
    for idx in np.flatnonzero(weak | repeated).tolist():
        if weak[idx]:
            report.member_problems.append((idx, "strength"))
        if repeated[idx]:
            report.member_problems.append((idx, "simple"))
    if weak.any():  # the first member at fault, alone, to name its tuples
        first = SymbolMatrix._trusted(ls.profile, ls.cells[np.argmax(weak)], None)
        report.first_bad_report = verify_strength(first, t)
    return report


def _relabels(cells: np.ndarray, levels) -> np.ndarray:
    """Which members j > 0 of the stack `cells` (M, N, k) over `levels` are
    member 0 relabelled column by column: for every column c some bijection
    f_c of c's symbols has cells[j, r, c] == f_c(cells[0, r, c]) on every
    row r.  Such a member has member 0's tuple counts up to relabelling, on
    every subset of columns, so its tables are uniform exactly where member
    0's are.  Members are tested by _certificate in chunks of about
    CHUNK_TARGET_CELLS cells; verify_large_set makes the same test with the
    codes of its occupancy pass."""
    m, n, k = cells.shape
    certified = np.zeros(m, dtype=bool)
    check = _certificate(cells[0], levels)
    per = max(1, CHUNK_TARGET_CELLS // max(n * k, 1))
    for lo in range(1, m if check else 1, per):
        certified[lo:lo + per] = check(cells[lo:lo + per])
    return certified


def _certificate(zero: np.ndarray, levels):
    """The relabelling test against member 0, whose N x k cells are `zero`,
    or None (no member certified) if member 0 lacks a symbol in some column.
    A member's f_c(s) is read off it at the first cell of member 0 holding
    s in column c, slot offsets[c] + s of its table.  check(block, codes)
    says per member of `block` (M', N, k) whether every cell is f_c of
    member 0's (a function) and each column's table a permutation of
    range(s_c) (a bijection).  Up to OCCUPANCY_LIMIT the cells are compared
    through the members' row `codes` (made if None), as N compares a member:
    member 0's rows under the f_c have the codes (table x digit places) @
    onehot(member 0)^T, one matmul, exact as _row_codes is.  Above it, or
    where the slots x N one-hot matrix would outgrow CHUNK_TARGET_CELLS,
    the cells are gathered and compared."""
    levels, (n, k) = tuple(levels), zero.shape
    places, offsets = _radix(levels)
    where = (zero + offsets).reshape(-1)  # the slot of each cell of member 0
    held, first = np.unique(where, return_index=True)  # and the first cell holding each
    if len(held) < sum(levels):
        return None
    offsets, places, onehot = offsets[first % k], places[first % k], None  # by slot
    if _code_dtype(prod(levels)) == np.float32 and len(held) * n <= CHUNK_TARGET_CELLS:
        onehot = np.zeros((len(held), n), dtype=np.float32)
        onehot[where, np.arange(n * k) // k] = 1

    def check(block, codes=None):
        cells = block.reshape(len(block), -1)
        tables = cells[:, first]  # f_c(s) at slot offsets[c] + s
        if onehot is None:
            function = (tables[:, where] == cells).all(axis=1)
        else:
            if codes is None:
                codes = _row_codes(block.reshape(-1, k), levels,
                                   np.empty(len(block) * n, dtype=np.float32))
            image = np.matmul(tables * places, onehot)  # member 0's rows' codes under the f_c
            function = (image == codes.reshape(image.shape)).all(axis=1)
        # held is 0 .. slots - 1 here, so each column's table must be a permutation
        bijection = (np.sort(tables + offsets, axis=1) == held).all(axis=1)
        return function & bijection

    return check


def _smallest_repeat(cells: np.ndarray, levels, check=None):
    """The lexicographically smallest row of `cells` (N x k, or an (M, N, k)
    stack) over `levels` that occurs more than once, or None; per member
    whether it holds a repeat; and per member whether the _certificate
    `check` certifies it, from the same row codes (they order as rows do),
    made in one pass a chunk at a time, of whole members for `check`.  Where
    the rows fill a universe below CODE_LIMIT, the codes mark a boolean map
    of it, a byte a row: by pigeonhole the rows repeat, in one chunk or
    across two, exactly when a slot stays unmarked, and only then are the
    codes made again.  Other rows keep theirs, or from CODE_LIMIT on take
    their ranks among the distinct rows.  One step names the repeats: the
    codes sorted member by member flag the members holding one, then sorted
    whole give the smallest.  Callers: a large set's union and a resolvable
    projection (N rows onto N)."""
    cells, levels = cells[None] if cells.ndim == 2 else cells, tuple(levels)
    m, n, k = cells.shape
    rows, universe, certified = cells.reshape(-1, k), prod(levels), np.zeros(m, dtype=bool)
    step = n * max(1, CHUNK_TARGET_CELLS // (n * k)) if check else max(1, CHUNK_TARGET_CELLS // k)
    coded, cover = universe < CODE_LIMIT, len(rows) == universe < CODE_LIMIT
    seen = np.zeros(universe if cover else 0, dtype=bool)
    codes = np.empty(min(step, len(rows)) if cover else len(rows) * coded, _code_dtype(universe))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        part = _row_codes(block, levels, codes[:len(block)] if cover else codes[lo:lo + step]) \
            if coded else None
        if cover:
            seen[part.astype(np.intp)] = True
        if check:
            certified[lo // n:(lo + step) // n] = check(block.reshape(-1, n, k), part)
    certified[:1] = False  # member 0 is counted, not certified by itself
    if len(rows) < 2 or cover and seen.all():
        return None, np.zeros(m, dtype=bool), certified
    if cover:  # a slot is empty: every code again, kept
        codes, seen = np.empty(len(rows), dtype=codes.dtype), None
        for lo in range(0, len(rows), step):
            _row_codes(rows[lo:lo + step], levels, codes[lo:lo + step])
    elif not coded:  # the rows' ranks, flat: NumPy 2.0.0 shapes this inverse otherwise
        distinct, codes = np.unique(rows, axis=0, return_inverse=True)
        codes = codes.reshape(-1)
    by_member = codes.reshape(m, n)
    by_member.sort(axis=1)
    held = (by_member[:, 1:] == by_member[:, :-1]).any(axis=1)
    codes.sort()
    same = codes[1:] == codes[:-1]
    first = int(np.argmax(same))
    row = np.unravel_index(int(codes[first]), levels) if coded else distinct[codes[first]]
    return (tuple(int(x) for x in row) if same[first] else None), held, certified


@lru_cache(maxsize=64)
def _radix(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each column's digit place in the row codes over `levels`, float32 for
    _row_codes' matmul, and its first slot, as _certificate numbers the
    (column, symbol) pairs; cached as the strength plans are."""
    places = np.cumprod((1,) + levels[:0:-1], dtype=np.int64)[::-1].astype(np.float32)
    offsets = np.cumsum(levels) - levels
    for index in (places, offsets):
        index.setflags(write=False)
    return places, offsets


def _code_dtype(universe: int) -> type:
    """float32 row codes up to OCCUPANCY_LIMIT (see _row_codes), int32 or int64 above."""
    return np.float32 if universe <= OCCUPANCY_LIMIT else np.int32 if universe <= 1 << 31 \
        else np.int64


def _row_codes(rows: np.ndarray, levels, out: np.ndarray) -> np.ndarray:
    """`out`, filled with the mixed-radix codes of `rows` (column 0 most
    significant), in _code_dtype: float32 by one matmul of the rows with the
    digit places, exact since every product and partial sum is an integer
    below OCCUPANCY_LIMIT = 2^24 (fastest on rows stored row by row);
    integers by k passes."""
    if out.dtype == np.float32:
        return np.matmul(rows, _radix(tuple(levels))[0], out=out, dtype=np.float32)
    out[:] = rows[:, 0]
    for j in range(1, len(levels)):
        out *= levels[j]
        out += rows[:, j]
    return out


# -- projections and indices ---------------------------------------------------


def project_columns(a: SymbolMatrix, columns) -> SymbolMatrix:
    """Restrict (and possibly reorder) to the given distinct columns, in the
    projected profile's dtype (narrower if the columns dropped held every
    level above 256).  Strength t is preserved whenever at least t columns
    remain."""
    columns = [int(c) for c in columns]
    if not columns:
        raise ConstraintError("projection needs at least one column")
    if len(set(columns)) != len(columns):
        raise ConstraintError(f"projection columns {tuple(columns)} must be distinct")
    for c in columns:
        if not 0 <= c < a.k:
            raise ConstraintError(f"column {c} out of range [0, {a.k})")
    profile = LevelProfile(a.profile.levels[c] for c in columns)
    t = None if a.t is None else min(a.t, len(columns))
    # a's symbols are in range, so they narrow safely
    cells = np.ascontiguousarray(a.cells[:, columns], dtype=profile.dtype)
    return SymbolMatrix._trusted(profile, cells, t)
