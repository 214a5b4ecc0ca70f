"""Data model and exhaustive verification for mixed-level orthogonal arrays.

Symbols are column-local integers 0..s-1.  A SymbolMatrix is an immutable
N x k run matrix; a LargeSet is an ordered list of row-disjoint simple
SymbolMatrices partitioning the full factorial.

The strength verifier counts every t-tuple in every t-subset of columns.
Column subsets are enumerated in colexicographic order throughout, so reports
are deterministic.  brute_force_strength re-counts with deliberately naive
nested loops and shares no kernels with the fast path; it is the oracle the
fast path is tested against.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

from .errors import BudgetExceededError, ConstraintError

OCCUPANCY_LIMIT = 1 << 24  # full-factorial bitmap above this uses a hashed row set
CHUNK_TARGET_CELLS = 1 << 16  # per-chunk code-buffer size for the counting kernel


class LevelProfile:
    """Per-column symbol cardinalities; column order is significant."""

    __slots__ = ("levels",)

    def __init__(self, levels):
        levels = tuple(int(s) for s in levels)
        if not levels:
            raise ValueError("a profile needs at least one column")
        if any(s < 2 for s in levels):
            raise ValueError("every column needs at least 2 levels")
        if any(s > 2**31 for s in levels):
            raise ValueError("every column needs at most 2^31 levels (symbols are int32)")
        object.__setattr__(self, "levels", levels)

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


class SymbolMatrix:
    """An N x k run matrix over a LevelProfile, with an optional claimed
    strength t carried for file round-trips and verification defaults."""

    __slots__ = ("profile", "cells", "t")

    def __init__(self, profile: LevelProfile, cells, t: int | None = None):
        cells = np.ascontiguousarray(cells, dtype=np.int32)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D matrix")
        if cells.shape[1] != profile.k:
            raise ValueError(
                f"cells have {cells.shape[1]} columns, profile has {profile.k}"
            )
        lv = np.asarray(profile.levels, dtype=np.int32)
        if cells.size and (cells.min() < 0 or (cells >= lv[None, :]).any()):
            bad = np.argwhere((cells < 0) | (cells >= lv[None, :]))[0]
            raise ValueError(
                f"symbol {cells[bad[0], bad[1]]} out of range in column {bad[1]}"
                f" (row {bad[0]})"
            )
        cells.setflags(write=False)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "t", t)

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
    """An ordered collection of M SymbolMatrices sharing one profile and N."""

    __slots__ = ("profile", "members", "t")

    def __init__(self, profile: LevelProfile, members, t: int | None = None):
        members = tuple(members)
        if not members:
            raise ValueError("a large set needs at least one member")
        for i, m in enumerate(members):
            if m.profile != profile:
                raise ValueError(f"member {i} profile {m.profile} != {profile}")
            if m.n != members[0].n:
                raise ValueError(f"member {i} has {m.n} rows, member 0 has {members[0].n}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("LargeSet is immutable")

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def n(self) -> int:
        return self.members[0].n

    def __repr__(self):
        return (
            f"LargeSet(M={self.m}, N={self.n},"
            f" levels={self.profile.format()}, t={self.t})"
        )


def full_factorial(profile: LevelProfile, t: int | None = None) -> SymbolMatrix:
    """All k-tuples exactly once, in mixed-radix row order (column 0 most
    significant)."""
    grids = np.indices(profile.levels)
    cells = np.stack([g.ravel() for g in grids], axis=1)
    return SymbolMatrix(profile, cells, t if t is not None else profile.k)


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
        self._lazy = _lazy_lambda  # (subsets, prods, n)

    @property
    def lambda_by_subset(self) -> dict[tuple[int, ...], Fraction]:
        if self._lambda is None:
            subsets, prods, n = self._lazy
            self._lambda = {
                sub: Fraction(n, int(p)) for sub, p in zip(subsets, prods)
            }
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


def colex_combinations(k: int, t: int):
    """All t-subsets of range(k) as ascending tuples, in colexicographic order."""
    if t == 0:
        yield ()
        return
    for top in range(t - 1, k):
        for rest in colex_combinations(top, t - 1):
            yield rest + (top,)


@lru_cache(maxsize=64)
def _strength_plan(levels: tuple[int, ...], t: int):
    """Precomputed counting plan for one (levels, t): the subset list, the
    subsets as an S x t column-index matrix with matching mixed-radix weights,
    per-subset tuple-space sizes, and code offsets."""
    k = len(levels)
    subsets = list(colex_combinations(k, t))
    cols = np.array(subsets, dtype=np.int64).reshape(len(subsets), t)
    lv = np.asarray(levels, dtype=np.int64)
    wpos = np.empty_like(cols)
    acc = np.ones(len(subsets), dtype=np.int64)
    for p in range(t - 1, -1, -1):
        wpos[:, p] = acc
        acc = acc * lv[cols[:, p]]
    prods = acc
    offsets = np.zeros(len(subsets) + 1, dtype=np.int64)
    np.cumsum(prods, out=offsets[1:])
    return subsets, cols, wpos, prods, offsets


def _lambdas(prods, n: int):
    """Per-subset index n / prod, or -1 where prod does not divide n."""
    return np.where(n % prods == 0, n // prods, -1)


def _count_chunk(cells_t, cols, wpos, offsets, lo: int, hi: int):
    """Tuple-frequency table for subsets [lo, hi): per-position row gathers on
    the transposed (k x N) cell matrix, combined into mixed-radix codes, then
    one shared bincount.  Codes stay in the dtype of cells_t (int32 when the
    code space fits, chosen by the caller)."""
    dtype = cells_t.dtype
    shape = (hi - lo, cells_t.shape[1])
    codes = np.empty(shape, dtype=dtype)
    tmp = np.empty(shape, dtype=dtype)
    np.take(cells_t, cols[lo:hi, 0], axis=0, out=codes)
    codes *= wpos[lo:hi, 0, None].astype(dtype)
    for p in range(1, cols.shape[1]):
        np.take(cells_t, cols[lo:hi, p], axis=0, out=tmp)
        tmp *= wpos[lo:hi, p, None].astype(dtype)
        codes += tmp
    codes += (offsets[lo:hi] - offsets[lo])[:, None].astype(dtype)
    return np.bincount(codes.reshape(-1), minlength=int(offsets[hi] - offsets[lo]))


def _subset_failures(a: SymbolMatrix, sub: tuple[int, ...]) -> list[StrengthFailure]:
    levels = a.profile.levels
    space = prod(levels[j] for j in sub)
    expected = Fraction(a.n, space)
    if a.n % space:
        return [StrengthFailure(sub, "non-integer-index", None, None, expected)]
    w = np.empty(len(sub), dtype=np.int64)
    acc = 1
    for i in range(len(sub) - 1, -1, -1):
        w[i] = acc
        acc *= levels[sub[i]]
    codes = a.cells[:, sub].astype(np.int64) @ w
    counts = np.bincount(codes, minlength=space)
    out = []
    lam = a.n // space
    for code in np.nonzero(counts != lam)[0]:
        symbols = []
        c = int(code)
        for j in reversed(sub):
            symbols.append(c % levels[j])
            c //= levels[j]
        out.append(
            StrengthFailure(sub, "count-imbalance", tuple(reversed(symbols)),
                            int(counts[code]), expected)
        )
    return out


def verify_strength(
    a: SymbolMatrix,
    t: int,
    *,
    fail_fast: bool = False,
    budget: int | None = None,
    threads: int = 1,
) -> StrengthReport:
    """Exhaustively check that every t-tuple count is N / (product of levels)
    in every t-subset of columns.

    t = 0 passes trivially.  Subsets whose level product does not divide N are
    reported as a structural non-integer-index failure, distinct from count
    imbalance.  The budget counts N * (number of subsets) elementary counting
    operations.
    """
    if not 0 <= t <= a.k:
        raise ConstraintError(f"strength {t} out of range [0, {a.k}]")
    if t == 0:
        return StrengthReport(t=0, lambda_by_subset={(): Fraction(a.n)}, checked_subsets=0)
    levels = a.profile.levels
    subsets, cols, wpos, prods, offsets = _strength_plan(levels, t)
    if budget is not None and a.n * len(subsets) > budget:
        raise BudgetExceededError(
            f"strength check needs {a.n * len(subsets)} counting ops, budget {budget}"
        )
    lams = _lambdas(prods, a.n)
    code_dtype = np.int32 if int(offsets[-1]) < (1 << 31) else np.int64
    cells_t = np.ascontiguousarray(a.cells.T, dtype=code_dtype)

    # chunk subsets so each code buffer stays cache-friendly
    chunk = max(1, min(len(subsets), CHUNK_TARGET_CELLS // max(a.n, 1)))
    bounds = list(range(0, len(subsets), chunk))
    ranges = [(lo, min(lo + chunk, len(subsets))) for lo in bounds]

    def run(r):
        return _count_chunk(cells_t, cols, wpos, offsets, *r)

    report = StrengthReport(
        t=t,
        checked_subsets=len(subsets),
        _lazy_lambda=(subsets, prods, a.n),
    )
    # each chunk is compared as soon as it is counted; with threads only a
    # few chunks are counted ahead, and a fail-fast return stops the rest
    with closing(_in_order(run, ranges, threads)) as counted:
        for (lo, hi), counts in zip(ranges, counted):
            if np.array_equal(counts, np.repeat(lams[lo:hi], prods[lo:hi])):
                continue
            for s in range(lo, hi):
                seg = counts[offsets[s] - offsets[lo]: offsets[s + 1] - offsets[lo]]
                if lams[s] >= 0 and np.all(seg == lams[s]):
                    continue
                report.failures.extend(_subset_failures(a, subsets[s]))
                if fail_fast:
                    return report
    return report


def _in_order(fn, items, threads: int):
    """fn(item) for each item, yielded in order; with threads > 1 the calls
    run in a pool, at most `threads` of them ahead of the consumer."""
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead: deque = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def brute_force_strength(a: SymbolMatrix, t: int, budget: int = 10**8) -> StrengthReport:
    """Independent oracle: a deliberately naive nested re-count over python
    tuples, sharing no counting kernels with verify_strength."""
    if not 0 <= t <= a.k:
        raise ConstraintError(f"strength {t} out of range [0, {a.k}]")
    if t == 0:
        return StrengthReport(t=0, lambda_by_subset={(): Fraction(a.n)}, checked_subsets=0)
    n_subsets = 0
    for _ in itertools.combinations(range(a.k), t):
        n_subsets += 1
    if a.n * n_subsets > budget:
        raise BudgetExceededError(
            f"oracle needs {a.n * n_subsets} operations, budget {budget}"
        )
    rows = [tuple(int(x) for x in row) for row in a.cells]
    levels = a.profile.levels
    report = StrengthReport(t=t, lambda_by_subset={}, checked_subsets=n_subsets)
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
    pair (original indices, sorted)."""
    if a.n <= 1:
        return True, None
    order = np.lexsort(a.cells.T[::-1])
    sorted_cells = a.cells[order]
    dup = np.nonzero((sorted_cells[1:] == sorted_cells[:-1]).all(axis=1))[0]
    if dup.size == 0:
        return True, None
    i, j = int(order[dup[0]]), int(order[dup[0] + 1])
    return False, (min(i, j), max(i, j))


def row_weights(profile: LevelProfile) -> np.ndarray | None:
    """Mixed-radix weights encoding a full row to an integer in
    [0, universe_size); None when the universe exceeds int64."""
    if profile.universe_size >= 1 << 62:
        return None
    w = np.empty(profile.k, dtype=np.int64)
    acc = 1
    for j in range(profile.k - 1, -1, -1):
        w[j] = acc
        acc *= profile.levels[j]
    return w


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


def verify_large_set(
    ls: LargeSet,
    t: int,
    *,
    threads: int = 1,
    budget: int | None = None,
) -> LargeSetReport:
    """Check the three large-set properties: every member a simple OA of
    strength t, M * N = universe, and the union of all rows repeat-free
    (hence the full factorial)."""
    if not 0 <= t <= ls.profile.k:
        raise ConstraintError(f"strength {t} out of range [0, {ls.profile.k}]")
    universe = ls.profile.universe_size
    report = LargeSetReport(m=ls.m, n=ls.n, universe=universe, t=t)
    report.count_ok = ls.m * ls.n == universe

    levels = ls.profile.levels
    if t > 0:
        subsets, cols, wpos, prods, offsets = _strength_plan(levels, t)
        if budget is not None and ls.m * ls.n * len(subsets) > budget:
            raise BudgetExceededError(
                f"large-set check needs {ls.m * ls.n * len(subsets)} counting ops,"
                f" budget {budget}"
            )
        expected = np.repeat(_lambdas(prods, ls.n), prods)
        code_dtype = np.int32 if int(offsets[-1]) < (1 << 31) else np.int64
    for idx, member in enumerate(ls.members):
        if t > 0:
            member_t = np.ascontiguousarray(member.cells.T, dtype=code_dtype)
            counts = _count_chunk(member_t, cols, wpos, offsets, 0, len(subsets))
            if not np.array_equal(counts, expected):
                report.member_problems.append((idx, "strength"))
                if report.first_bad_report is None:
                    report.first_bad_report = verify_strength(member, t, threads=threads)
        simple, _ = verify_simple(member)
        if not simple:
            report.member_problems.append((idx, "simple"))

    w = row_weights(ls.profile)
    if w is not None and universe <= OCCUPANCY_LIMIT:
        occupancy = np.zeros(universe, dtype=np.int32)
        for member in ls.members:
            codes = member.cells.astype(np.int64) @ w
            occupancy[codes] += 1
        if occupancy.max(initial=0) > 1:
            report.disjoint_ok = False
            code = int(np.nonzero(occupancy > 1)[0][0])
            sym = []
            for j in range(ls.profile.k - 1, -1, -1):
                sym.append(code % levels[j])
                code //= levels[j]
            report.collision = tuple(reversed(sym))
    else:
        seen: set[bytes] = set()
        for member in ls.members:
            for row in member.cells:
                key = row.tobytes()
                if key in seen:
                    report.disjoint_ok = False
                    report.collision = tuple(int(x) for x in row)
                    return report
                seen.add(key)
    return report


# -- projections and indices ---------------------------------------------------


def project_columns(a: SymbolMatrix, columns) -> SymbolMatrix:
    """Restrict (and possibly reorder) to the given distinct columns.  Strength
    t is preserved whenever at least t columns remain."""
    columns = [int(c) for c in columns]
    if not columns:
        raise ValueError("projection needs at least one column")
    if len(set(columns)) != len(columns):
        raise ValueError("projection columns must be distinct")
    for c in columns:
        if not 0 <= c < a.k:
            raise ValueError(f"column {c} out of range [0, {a.k})")
    profile = LevelProfile(a.profile.levels[c] for c in columns)
    t = None if a.t is None else min(a.t, len(columns))
    return SymbolMatrix(profile, a.cells[:, columns], t)


def lambda_of(a: SymbolMatrix, subset) -> Fraction:
    """Exact index N / (product of the chosen columns' levels)."""
    subset = list(subset)
    for c in subset:
        if not 0 <= c < a.k:
            raise ValueError(f"column {c} out of range [0, {a.k})")
    return Fraction(a.n, prod(a.profile.levels[c] for c in subset))
