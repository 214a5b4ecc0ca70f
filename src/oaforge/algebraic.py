"""Sylvester matrices and generator-column constructions over finite fields.

Every constructor re-verifies its own output (strength and resolvable
projection) before returning; the theoretical guarantees behind the
constructions are treated as claims under test, never trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .arrays import LevelProfile, SymbolMatrix, verify_strength
from .errors import BudgetExceededError, ConstraintError, VerificationError
from .expand import ResolvableProjection, require_resolvable
from .gf import Field, make_field, prime_power

SYLVESTER_MAX_N = 10
LINEAR_WORK_CAP = 10**9  # counting operations of one generator-column check


# -- Sylvester / Hadamard ------------------------------------------------------


def sylvester(n: int) -> np.ndarray:
    """The +-1 character matrix of Z_2^n: entry (x, y) = (-1)^(x . y) with
    rows/columns indexed by Z_2^n in lexicographic order.  Also built as the
    n-fold Kronecker power of the order-2 matrix; the two must agree."""
    if not 1 <= n <= SYLVESTER_MAX_N:
        raise ConstraintError(f"n must be in [1, {SYLVESTER_MAX_N}], got {n}")
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


# -- linear algebra over a field ----------------------------------------------


def field_det(field: Field, matrix) -> int:
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


# -- generator columns ---------------------------------------------------------


def _check_work(q: int, m: int, l: int, t: int | None = None):
    """Refuse q^m rows times l columns (the row table) or, given t, times
    C(l, t) subsets (the --budget unit) above LINEAR_WORK_CAP, before any of
    it is built.  The builders' q^m x l charge also bounds the Python
    enumeration of their l columns, which runs before linear_oa's.  Once m
    reaches the cap's bit length, q^m alone is over it."""
    width, what = (l, f"{l} columns") if t is None else (comb(l, t), f"C({l},{t}) subsets")
    if m >= LINEAR_WORK_CAP.bit_length():
        need = f"{q}^{m} rows"
    elif q**m * width > LINEAR_WORK_CAP:
        need = f"{q}^{m} rows x {what}"
    else:
        return
    raise BudgetExceededError(
        f"generator columns in F_{q}^{m} need {need},"
        f" over the cap of {LINEAR_WORK_CAP} cells or counting operations"
    )


@dataclass(frozen=True)
class GeneratorColumns:
    """l column vectors in F_q^m, claimed any t independent and some m
    spanning.  Construction checks the vectors and the q^m x l size, but
    builds and counts nothing: linear_oa proves the k columns it emits (all
    l when k = l) by counting the rows it builds through `cells`."""

    field: Field
    m: int
    columns: tuple[tuple[int, ...], ...]
    t: int

    def __post_init__(self):
        q = self.field.q
        for j, col in enumerate(self.columns):
            if len(col) != self.m or any(not 0 <= x < q for x in col):
                raise ValueError(f"column {j} {col} is not a vector of F_{q}^{self.m}")
        _check_work(q, self.m, len(self.columns))

    @cached_property
    def cells(self) -> np.ndarray:
        """Read-only q^m x l array of the rows x . M, x in F_q^m ascending,
        built one digit at a time: x_i . M_i + each row over x_(i+1..m-1),
        looked up in field tables of the cells' dtype (uint8 for q <= 256)."""
        mat = np.asarray(self.columns, dtype=np.intp).reshape(-1, self.m).T
        dtype = LevelProfile([self.field.q]).dtype
        add, mul = self.field.add_table.astype(dtype), self.field.mul_table.astype(dtype)
        cells = np.zeros((1, mat.shape[1]), dtype=dtype)
        for i in reversed(range(self.m)):
            cells = add[mul[:, mat[i]][:, None], cells].reshape(-1, mat.shape[1])
        cells.setflags(write=False)
        return cells


def linear_oa(gc: GeneratorColumns, k: int) -> tuple[SymbolMatrix, ResolvableProjection]:
    """Rows x . M for all x in F_q^m, restricted to the first k columns after
    rotating m independent columns to the front.  N = q^m, strength t, and
    the leading m columns project bijectively (M = q^(k-m) after expansion).
    Only these k columns are built; their strength-t self-check proves that
    any t of them are independent, which is all the output relies on."""
    field = gc.field
    m = gc.m
    if not gc.t <= m <= k <= len(gc.columns):
        raise ConstraintError(f"need t={gc.t} <= m={m} <= k={k} <= l={len(gc.columns)}")
    _check_work(field.q, m, k, gc.t)
    # greedy basis in construction order, rotated to the front: each column
    # is reduced once against the echelon rows (1 at their pivot) so far
    basis: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for j, v in enumerate(gc.columns):
        for pivot, row in echelon:
            if f := v[pivot]:
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, [field.mul(field.inv(v[pivot]), x) for x in v]))
            basis.append(j)
            if len(basis) == m:
                break
    if len(basis) < m:
        raise VerificationError(f"columns have rank {len(basis)} < m = {m}")
    order = basis + [j for j in range(len(gc.columns)) if j not in set(basis)]
    emitted = GeneratorColumns(field, m, tuple(gc.columns[j] for j in order[:k]), gc.t)
    a = SymbolMatrix(LevelProfile([field.q] * k), emitted.cells, t=gc.t)
    return _self_check(a, gc.t, m)


def projective_columns(q: int, n: int) -> GeneratorColumns:
    """One representative per projective point of F_q^n (first nonzero
    coordinate 1), in lexicographic coordinate order: (q^n - 1)/(q - 1)
    columns claimed pairwise independent, unverified until linear_oa."""
    if n < 2:
        raise ConstraintError("n must be >= 2")
    _check_work(q, n, (q ** min(n, 30) - 1) // (q - 1))  # l unused if n >= 30
    field = make_field(*prime_power(q))
    cols = [
        v
        for v in itertools.product(range(q), repeat=n)
        if any(v) and next(x for x in v if x) == 1
    ]
    return GeneratorColumns(field, n, tuple(cols), 2)


def bush_columns(q: int, t: int) -> GeneratorColumns:
    """Moment-curve columns (1, c, c^2, ..., c^(t-1)) for every c, plus
    (0, ..., 0, 1); for even q at t = 3 also (0, 1, 0).  Any t columns are
    independent (Vandermonde, unverified until linear_oa): OA(q^t, l, q, t)."""
    p, e = prime_power(q)
    if not 2 <= t <= q + 1:
        raise ConstraintError(f"t must be in [2, {q + 1}], got {t}")
    _check_work(q, t, q + 1 + (p == 2 and t == 3))
    field = make_field(p, e)
    cols = [tuple(field.pow(c, i) for i in range(t)) for c in field.elements()]
    cols.append((0,) * (t - 1) + (1,))
    if field.p == 2 and t == 3:
        cols.append((0, 1, 0))
    return GeneratorColumns(field, t, tuple(cols), t)


# -- the strength-3 matrix over q^2 + 1 columns --------------------------------


@dataclass(frozen=True)
class QuadraticCoefficient:
    """Coefficient a for which x^2 + a*x*y + y^2 vanishes only at the origin."""

    field: Field
    a: int


def quad_coefficient(q: int) -> QuadraticCoefficient:
    """Smallest (by encoding) a outside {-(z + 1/z) : z nonzero}; the
    exhaustive no-nontrivial-zero check is run before returning."""
    if q < 3:
        raise ConstraintError("q must be a prime power >= 3")
    field = make_field(*prime_power(q))
    forbidden = {field.neg(field.add(z, field.inv(z))) for z in range(1, q)}
    a = next(x for x in field.elements() if x not in forbidden)
    for x in field.elements():
        for y in field.elements():
            if (x, y) != (0, 0) and _g(field, a, x, y) == 0:
                raise VerificationError(f"quadratic vanished at ({x}, {y}) with a={a}")
    return QuadraticCoefficient(field, a)


def _g(field: Field, a: int, x: int, y: int) -> int:
    xx = field.mul(x, x)
    yy = field.mul(y, y)
    axy = field.mul(a, field.mul(x, y))
    return field.neg(field.add(xx, field.add(axy, yy)))


def q4_matrix(q: int) -> GeneratorColumns:
    """The 4 x (q^2 + 1) matrix of columns (0,0,1,0) and
    (x, y, -(x^2+a*x*y+y^2), 1) over all (x, y), any 3 of which are claimed
    independent (unverified until linear_oa).  Expanding its strength-3
    array partitions the q^k universe."""
    _check_work(q, 4, q * q + 1)
    qc = quad_coefficient(q)
    field = qc.field
    cols = [(0, 0, 1, 0)]
    for u in field.elements():
        for v in field.elements():
            cols.append((u, v, _g(field, qc.a, u, v), 1))
    anchor = [cols[0], cols[1], cols[2], cols[q + 1]]
    if field_det(field, list(zip(*anchor))) == 0:
        raise VerificationError("anchor columns {0,1,2,q+1} are singular")
    return GeneratorColumns(field, 4, tuple(cols), 3)
