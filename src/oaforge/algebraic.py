"""Sylvester matrices and generator-column constructions over finite fields.

Every constructor re-verifies its own output (strength and resolvable
projection) before returning; the theoretical guarantees behind the
constructions are treated as claims under test, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import work
from .arrays import LevelProfile, SymbolMatrix, verify_strength
from .errors import BudgetExceededError, ConstraintError, VerificationError
from .expand import ResolvableProjection, require_resolvable
from .gf import Field, make_field, prime_power


# -- Sylvester / Hadamard ------------------------------------------------------


def sylvester(n: int) -> np.ndarray:
    """The +-1 character matrix of Z_2^n: entry (x, y) = (-1)^(x . y) with
    rows/columns indexed by Z_2^n in lexicographic order.  Also built as the
    n-fold Kronecker power of the order-2 matrix; the two must agree."""
    if not 1 <= n <= work.SYLVESTER_MAX_N:
        raise ConstraintError(f"n must be in [1, {work.SYLVESTER_MAX_N}], got {n}")
    idx = np.arange(1 << n, dtype=np.uint32)
    bits = np.bitwise_count(idx[:, None] & idx[None, :])
    direct = (1 - 2 * (bits & 1)).astype(np.int8)
    s1 = np.array([[1, 1], [1, -1]], dtype=np.int8)
    power = s1
    for _ in range(n - 1):
        power = np.kron(power, s1).astype(np.int8)
    if not np.array_equal(direct, power):
        raise VerificationError("inner-product and Kronecker constructions disagree")
    return direct


def _label_order(n: int, include_zero: bool) -> list[int]:
    """Column labels with the resolvable ones first: (zero label,) then the n
    weight-one labels ascending, then all remaining labels ascending."""
    singles = [1 << i for i in range(n)]
    rest = [x for x in range(1 << n) if x != 0 and x not in set(singles)]
    head = [0] if include_zero else []
    return head + singles + rest


def sylvester_oa2(n: int, k: int) -> tuple[SymbolMatrix, ResolvableProjection]:
    """Binary strength-2 array from the order-2^n Sylvester matrix: drop the
    all-zero-labeled column, map +1 -> 0 and -1 -> 1.  The n weight-one
    columns project bijectively, so the result expands to a large set with
    M = 2^(k-n)."""
    if n < 2:
        raise ConstraintError("n must be >= 2")
    if not n <= k <= (1 << n) - 1:
        raise ConstraintError(f"k must be in [{n}, {(1 << n) - 1}], got {k}")
    s = sylvester(n)
    labels = _label_order(n, include_zero=False)[:k]
    profile = LevelProfile([2] * k)
    cells = ((1 - s[:, labels]) // 2).astype(profile.dtype)
    a = SymbolMatrix(profile, cells, t=2)
    return _self_check(a, 2, n)


def sylvester_oa3(n: int, k: int) -> tuple[SymbolMatrix, ResolvableProjection]:
    """Binary strength-3 array: the order-2^n Sylvester matrix stacked over
    its symbol-swapped copy, keeping the all-zero column.  The zero column
    plus the n weight-one columns project bijectively."""
    if n < 2:
        raise ConstraintError("n must be >= 2")
    if not n + 1 <= k <= (1 << n):
        raise ConstraintError(f"k must be in [{n + 1}, {1 << n}], got {k}")
    s = sylvester(n)
    labels = _label_order(n, include_zero=True)[:k]
    top = (1 - s[:, labels]) // 2
    profile = LevelProfile([2] * k)
    cells = np.vstack([top, 1 - top]).astype(profile.dtype)
    a = SymbolMatrix(profile, cells, t=3)
    return _self_check(a, 3, n + 1)


def _self_check(a: SymbolMatrix, t: int, lead: int):
    """a and its projection onto the first `lead` columns, once both check."""
    report = verify_strength(a, t)
    if not report.ok:
        raise VerificationError(
            f"constructed array failed its strength-{t} check", report
        )
    return a, require_resolvable(a, range(lead))


# -- generator columns ---------------------------------------------------------


def _check_work(q: int, m: int, k: int, t: int | None = None):
    """Refuse q^m rows times k columns (the cells) or, given t, times C(k, t)
    subsets (the --budget unit) above LINEAR_WORK_CAP, before any of it is
    built.  A builder, which does not know k, charges the smallest output,
    k = m.  Where even 2^m is surely over the cap, only q^m is named."""
    width, what = (k, f"{k} columns") if t is None else \
        (work.count_ops(1, k, t), f"C({k},{t}) subsets")
    if work.surely_over(2, m, work.LINEAR_WORK_CAP):
        need = f"{q}^{m} rows"
    elif work.power_over(q, m, work.LINEAR_WORK_CAP, width):
        need = f"{q}^{m} rows x {what}"
    else:
        return
    raise BudgetExceededError(
        f"generator columns in F_{q}^{m} need {need},"
        f" over the cap of {work.LINEAR_WORK_CAP} cells or counting operations"
    )


class _Columns:
    """A family's l columns given by formula, lead-first: the m columns at
    construction indices `lead` (ascending), then the rest in construction
    order.  Indexing computes only the columns asked for: `build` maps an
    array of construction indices to their (len, m) array of columns."""

    def __init__(self, l: int, lead, build):
        self._l, self._lead, self._build = l, np.asarray(lead, dtype=np.int64), build

    def __len__(self) -> int:
        return self._l

    def __getitem__(self, i):
        r = range(self._l)[i]
        if isinstance(r, int):
            return tuple(self[r:r + 1][0].tolist())
        pos = np.arange(r.start, r.stop, r.step)
        m = len(self._lead)
        # the (pos - m)-th index outside the lead: skip each lead index at or below it
        rest = pos - m + np.searchsorted(self._lead - np.arange(m), pos - m, "right")
        return self._build(np.where(pos < m, self._lead[np.minimum(pos, m - 1)], rest))


@dataclass(frozen=True)
class GeneratorColumns:
    """l column vectors in F_q^m, claimed any t independent and the first m
    spanning.  `columns` is a family's `_Columns`, or hand-built: a sequence
    of l vectors, range-checked here.  Construction charges q^m rows x m
    columns, but builds and counts nothing: linear_oa proves the k columns
    it emits by counting the rows it builds through `cells`."""

    field: Field
    m: int
    columns: _Columns | tuple[tuple[int, ...], ...] | np.ndarray
    t: int

    def __post_init__(self):
        q = self.field.q
        _check_work(q, self.m, self.m)
        if not isinstance(self.columns, _Columns):
            try:  # ValueError for columns of other lengths, OverflowError for huge entries
                mat = np.array(self.columns, dtype=np.int64).reshape(len(self.columns), self.m)
            except (ValueError, OverflowError):
                mat = None
            if mat is None or ((mat < 0) | (mat >= q)).any():
                raise ValueError(f"columns {self.columns} are not vectors of F_{q}^{self.m}")

    @cached_property
    def cells(self) -> np.ndarray:
        """Read-only q^m x l array of the rows x . M, x in F_q^m ascending,
        built one digit at a time: x_i . M_i + each row over x_(i+1..m-1),
        looked up in field tables of the cells' dtype (uint8 for q <= 256)."""
        mat = np.asarray(self.columns[:], dtype=np.intp).reshape(-1, self.m).T
        dtype = LevelProfile([self.field.q]).dtype
        add, mul = self.field.add_table.astype(dtype), self.field.mul_table.astype(dtype)
        cells = np.zeros((1, mat.shape[1]), dtype=dtype)
        for i in reversed(range(self.m)):
            step = np.ascontiguousarray(mul[:, mat[i]])  # C-ordered rows: no copy in SymbolMatrix
            cells = add[step[:, None], cells].reshape(-1, mat.shape[1])
        cells.setflags(write=False)
        return cells


def linear_oa(gc: GeneratorColumns, k: int) -> tuple[SymbolMatrix, ResolvableProjection]:
    """Rows x . M for all x in F_q^m, restricted to the first k columns.
    N = q^m, strength t, and the leading m columns project bijectively
    (M = q^(k-m) after expansion).  Only these k columns are built; their
    strength-t self-check proves that any t of them are independent, and
    the projection that the first m span, which is all the output relies on."""
    q, m = gc.field.q, gc.m
    if not gc.t <= m <= k <= len(gc.columns):
        raise ConstraintError(f"need t={gc.t} <= m={m} <= k={k} <= l={len(gc.columns)}")
    _check_work(q, m, k)
    _check_work(q, m, k, gc.t)
    emitted = GeneratorColumns(gc.field, m, gc.columns[:k], gc.t)
    a = SymbolMatrix(LevelProfile([q] * k), emitted.cells, t=gc.t)
    return _self_check(a, gc.t, m)


def projective_columns(q: int, n: int) -> GeneratorColumns:
    """One representative per projective point of F_q^n (first nonzero
    coordinate 1), in lexicographic coordinate order: (q^n - 1)/(q - 1)
    columns claimed pairwise independent, unverified until linear_oa.  The
    points whose 1 has i coordinates after it start at (q^i - 1)/(q - 1);
    those starts, the unit vectors, lead."""
    if n < 2:
        raise ConstraintError("n must be >= 2")
    _check_work(q, n, n)
    field = make_field(*prime_power(q))
    starts = (q ** np.arange(n + 1, dtype=np.int64) - 1) // (q - 1)

    def build(j):
        i = np.searchsorted(starts, j, "right") - 1
        point = j - starts[i] + q**i  # its coordinates as a base-q number
        return point[:, None] // q ** np.arange(n - 1, -1, -1, dtype=np.int64) % q

    return GeneratorColumns(field, n, _Columns(int(starts[n]), starts[:n], build), 2)


def bush_columns(q: int, t: int) -> GeneratorColumns:
    """Moment-curve columns (1, c, c^2, ..., c^(t-1)) for every c, plus
    (0, ..., 0, 1); for even q at t = 3 also (0, 1, 0).  Any t columns are
    independent (Vandermonde, unverified until linear_oa): OA(q^t, l, q, t).
    The first t moment columns lead."""
    p, e = prime_power(q)
    if not 2 <= t <= q + 1:
        raise ConstraintError(f"t must be in [2, {q + 1}], got {t}")
    _check_work(q, t, t)
    field = make_field(p, e)
    extra = np.eye(t, dtype=np.int64)[[t - 1, 1] if p == 2 and t == 3 else [t - 1]]

    def build(j):
        c, cols = np.minimum(j, q - 1), np.ones((len(j), t), dtype=np.int64)
        for i in range(1, t):
            cols[:, i] = field.mul_table[cols[:, i - 1], c]
        cols[j >= q] = extra[j[j >= q] - q]
        return cols

    return GeneratorColumns(field, t, _Columns(q + len(extra), range(t), build), t)


# -- the strength-3 matrix over q^2 + 1 columns --------------------------------


@dataclass(frozen=True)
class QuadraticCoefficient:
    """Coefficient a for which x^2 + a*x*y + y^2 vanishes only at the origin."""

    field: Field
    a: int


def _quadratic(field: Field, a: int, x, y):
    """-(x^2 + a*x*y + y^2) of element arrays x and y, by table lookups."""
    add, mul = field.add_table, field.mul_table
    return field.neg_table[add[add[mul[x, x], mul[a, mul[x, y]]], mul[y, y]]]


def quad_coefficient(q: int) -> QuadraticCoefficient:
    """Smallest (by encoding) a outside {-(z + 1/z) : z nonzero}; the
    exhaustive no-nontrivial-zero check is run before returning."""
    if q < 3:
        raise ConstraintError("q must be a prime power >= 3")
    field = make_field(*prime_power(q))
    allowed = np.ones(q, dtype=bool)
    allowed[field.neg_table[field.add_table[np.nonzero(field.mul_table == 1)]]] = False
    a = int(allowed.argmax())
    x = np.arange(q)
    if np.count_nonzero(_quadratic(field, a, x[:, None], x) == 0) != 1:  # only at (0, 0)
        raise VerificationError(f"quadratic vanished off the origin with a={a}")
    return QuadraticCoefficient(field, a)


def q4_matrix(q: int) -> GeneratorColumns:
    """The 4 x (q^2 + 1) matrix of columns (0,0,1,0), then
    (u, v, -(u^2+a*u*v+v^2), 1) over all (u, v) ascending, any 3 of which
    are claimed independent (unverified until linear_oa).  Columns 0, 1, 2
    and q + 1 lead.  Expanding its strength-3 array partitions the q^k
    universe."""
    _check_work(q, 4, 4)
    qc = quad_coefficient(q)

    def build(j):
        u, v = np.divmod(np.maximum(j - 1, 0), q)
        cols = np.column_stack((u, v, _quadratic(qc.field, qc.a, u, v), np.ones_like(u)))
        cols[j == 0] = (0, 0, 1, 0)
        return cols

    return GeneratorColumns(qc.field, 4, _Columns(q * q + 1, (0, 1, 2, q + 1), build), 3)
