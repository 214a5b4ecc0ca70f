"""Difference matrices over abelian groups and their developments into
strength-2 arrays with embedded full-factorial projections.

A (v, k, 1)-DM is a v x k group-valued matrix in which every column pair's
difference list sweeps the group exactly once.  Group elements are encoded as
mixed-radix integers (first cyclic factor least significant), which for the
additive group of GF(p^e) coincides with the field element encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import work
from .arrays import LevelProfile, StrengthReport, SymbolMatrix, verify_strength
from .errors import (
    BudgetExceededError,
    ConstraintError,
    DMUnavailableError,
    ParseError,
    SizeCapError,
    VerificationError,
)
from .expand import ResolvableProjection, require_resolvable
from .formats import read_utf8
from .gf import digitwise, factor, make_field, prime_power


class AbelianGroup:
    """Direct product of cyclic groups; elements are indices under the
    mixed-radix encoding with the first factor least significant."""

    __slots__ = ("factors", "__dict__")

    def __init__(self, factors):
        factors = tuple(int(z) for z in factors)
        if any(z < 1 for z in factors):
            raise ValueError("cyclic factors must be >= 1")
        self.factors = tuple(z for z in factors if z > 1)

    @property
    def order(self) -> int:
        out = 1
        for z in self.factors:
            out *= z
        return out

    def element(self, index: int) -> tuple[int, ...]:
        out = []
        for z in self.factors:
            out.append(index % z)
            index //= z
        return tuple(out)

    def index(self, element) -> int:
        idx = 0
        w = 1
        for t, z in zip(element, self.factors):
            idx += (t % z) * w
            w *= z
        return idx

    @cached_property
    def add_table(self) -> np.ndarray:
        x = np.arange(self.order, dtype=np.int32)
        return digitwise(self.factors, x[:, None], x)

    @cached_property
    def neg_table(self) -> np.ndarray:
        return digitwise(self.factors, 0, np.arange(self.order, dtype=np.int32), -1)

    def sub(self, a, b):
        return self.add_table[a, self.neg_table[b]]

    def label(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{z}" for z in self.factors)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"AbelianGroup({self.label()})"


def _partitions(n: int):
    """Integer partitions of n in descending-part order, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_groups(v: int) -> list[AbelianGroup]:
    """Every abelian group of order v up to isomorphism, the cyclic group
    first (one choice of cyclic-factor partition per prime), for v whose
    gf.factor is its factorization, every v below (MAX_ORDER + 1)^2."""
    choices = [[tuple(p**part for part in parts) for parts in _partitions(e)]
               for p, e in factor(v)]
    return [AbelianGroup(tuple(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*choices)]


@dataclass(frozen=True)
class DifferenceMatrix:
    group: AbelianGroup
    entries: np.ndarray  # v x k matrix of element indices

    def __post_init__(self):
        e = np.ascontiguousarray(self.entries, dtype=np.int32)
        if e.ndim != 2 or e.shape[0] != self.group.order:
            raise ValueError("entries must be a v x k matrix over the group")
        if e.size and (e.min() < 0 or e.max() >= self.group.order):
            raise ValueError("entry out of group range")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def v(self) -> int:
        return self.group.order

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    def __repr__(self):
        return f"DifferenceMatrix(v={self.v}, k={self.k}, group={self.group.label()})"


@dataclass(frozen=True)
class DMPairFailure:
    columns: tuple[int, int]
    missing: tuple[int, ...]
    repeated: tuple[int, ...]

    def as_record(self) -> dict:
        return {"kind": "dm-pair", "columns": list(self.columns),
                "missing": list(self.missing), "repeated": list(self.repeated)}


@dataclass
class DMReport:
    v: int
    k: int
    failures: list[DMPairFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_dm(dm: DifferenceMatrix) -> DMReport:
    """Pass iff every column pair's difference list contains each group
    element exactly once.  A single column passes vacuously."""
    report = DMReport(v=dm.v, k=dm.k)
    grp = dm.group
    for l, h in itertools.combinations(range(dm.k), 2):
        diffs = grp.add_table[dm.entries[:, h], grp.neg_table[dm.entries[:, l]]]
        counts = np.bincount(diffs, minlength=dm.v)
        if not np.all(counts == 1):
            missing = tuple(int(x) for x in np.nonzero(counts == 0)[0])
            repeated = tuple(int(x) for x in np.nonzero(counts > 1)[0])
            report.failures.append(DMPairFailure((l, h), missing, repeated))
    return report


def field_dm(q: int, k: int) -> DifferenceMatrix:
    """d[i][j] = alpha_i * alpha_j over GF(q): rows over all elements, columns
    over the first k.  Differences in columns (l, h) are
    alpha_i * (alpha_h - alpha_l), a bijection of the additive group."""
    p, e = prime_power(q)
    if not 1 <= k <= q:
        raise ValueError(f"k must be in [1, {q}], got {k}")
    f = make_field(p, e)
    entries = f.mul_table[:, :k]
    dm = DifferenceMatrix(AbelianGroup((p,) * e), entries)
    report = verify_dm(dm)
    if not report.ok:
        raise VerificationError("field difference matrix failed verification")
    return dm


def product_dm(d1: DifferenceMatrix, d2: DifferenceMatrix) -> DifferenceMatrix:
    """Componentwise product over G1 x G2; rows enumerate (i1, i2) with i1
    fastest.  Preserves the difference property, multiplying the orders."""
    if d1.k != d2.k:
        raise ValueError(f"column counts differ: {d1.k} != {d2.k}")
    group = AbelianGroup(d1.group.factors + d2.group.factors)
    v1 = max(d1.v, 1)
    e1 = np.tile(d1.entries, (max(d2.v, 1), 1))
    e2 = np.repeat(d2.entries, max(d1.v, 1), axis=0)
    entries = e1 + v1 * e2
    dm = DifferenceMatrix(group, entries)
    report = verify_dm(dm)
    if not report.ok:
        raise VerificationError("product difference matrix failed verification")
    return dm


def search_dm(
    v: int,
    k: int,
    budget: int = work.DM_SEARCH_BUDGET,
    group: AbelianGroup | None = None,
) -> DifferenceMatrix | None:
    """Backtracking search with the first row and first column normalized to
    the identity, assigning remaining cells in row-major order with values in
    ascending encoding and pruning on partial difference multisets.

    Returns the first solution, or None after full exhaustion (a nonexistence
    proof for the given group).  Raises BudgetExceededError when the node
    budget runs out first.
    """
    if v < 1 or k < 1:
        raise ConstraintError(f"v and k must be >= 1, got v = {v}, k = {k}")
    if v * k > work.SEARCH_SIZE_CAP:
        raise SizeCapError(f"v*k = {v * k} exceeds search cap {work.SEARCH_SIZE_CAP}")
    grp = group if group is not None else AbelianGroup((v,))
    if grp.order != v:
        raise ConstraintError(f"group order {grp.order} != v = {v}")
    sub = grp.add_table[:, grp.neg_table]  # sub[a, b] = a - b
    entries = np.zeros((v, k), dtype=np.int32)
    # used[l][h] tracks which differences d[:,h] - d[:,l] are taken
    used = {(l, h): np.zeros(v, dtype=bool) for l in range(k) for h in range(l + 1, k)}
    for pair in used:
        used[pair][0] = True  # row 0 contributes difference 0 everywhere
    cells = [(i, j) for i in range(1, v) for j in range(1, k)]
    nodes = 0

    def place(pos: int) -> bool:
        nonlocal nodes
        if pos == len(cells):
            return True
        i, j = cells[pos]
        for val in range(v):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"difference-matrix search exceeded {budget} nodes"
                )
            diffs = [int(sub[val, entries[i, l]]) for l in range(j)]
            if any(used[(l, j)][d] for l, d in enumerate(diffs)):
                continue
            entries[i, j] = val
            for l, d in enumerate(diffs):
                used[(l, j)][d] = True
            if place(pos + 1):
                return True
            for l, d in enumerate(diffs):
                used[(l, j)][d] = False
            entries[i, j] = 0
        return False

    if not place(0):
        return None
    dm = DifferenceMatrix(grp, entries.copy())
    report = verify_dm(dm)
    if not report.ok:
        raise VerificationError("search produced an invalid matrix")  # pragma: no cover
    return dm


def _dm_parts(v: int) -> list[int]:
    """The prime-power factors of v, after refusing an order that dm_for
    cannot serve: v < 4, v = 2 (mod 4), a field product (every factor at
    least 4) with a factor above MAX_ORDER, or a factor 3 with v over the
    search's scope.  As gf.factor gives them: what is left above MAX_ORDER
    has only prime factors above it and is kept as one factor."""
    if v < 4:
        raise ConstraintError(f"v must be >= 4, got {v}")
    if v % 4 == 2:
        raise ConstraintError(f"v = {v} is 2 (mod 4); no (v,4,1) difference matrix exists")
    parts = [p**e for p, e in factor(v)]
    over = [q for q in parts if q > work.MAX_ORDER]
    if min(parts) >= 4 and over:  # a field product would need GF(q) for each factor q
        prime_power(over[0])  # raises the field cap's usage error
    if min(parts) < 4 and v * 4 > work.SEARCH_SIZE_CAP:
        raise DMUnavailableError(
            f"order v = {v} is not covered by built-in constructions"
            " (a bare factor 3 strands the field product); supply one with --dm-file"
        )
    return parts


def require_development(v: int, width: int, axes: int):
    """Refuse, before any DM of order v is searched for or built, an order
    dm_for cannot serve (see _dm_parts) or a development of v^axes rows x
    width columns over the expansion's cell cap."""
    _dm_parts(v)
    _charge_cells(v, width, axes)


def dm_for(v: int, search_budget: int = work.DM_SEARCH_BUDGET) -> DifferenceMatrix:
    """A (v, 4, 1)-DM for v >= 4, v != 2 (mod 4): the product of field
    matrices when every prime-power factor is >= 4, otherwise a backtracking
    search over every abelian group of order v.  The result always passes
    verify_dm; uncovered orders raise rather than guess."""
    parts = _dm_parts(v)
    if all(q >= 4 for q in parts):
        dm = field_dm(parts[0], 4)
        for q in parts[1:]:
            dm = product_dm(dm, field_dm(q, 4))
        return dm
    for grp in abelian_groups(v):
        try:
            found = search_dm(v, 4, budget=search_budget, group=grp)
        except BudgetExceededError:
            continue
        if found is not None:
            return found
    raise DMUnavailableError(
        f"no (v={v}, 4, 1) difference matrix found within the search budget;"
        " supply one with --dm-file"
    )


# -- developments into strength-2 arrays ---------------------------------------


def _charge_cells(v: int, width: int, axes: int):
    if work.power_over(v, axes, work.MAX_OUTPUT_CELLS, width):
        raise SizeCapError(f"{width}-column development would materialize {v**axes * width}"
                           f" cells (cap {work.MAX_OUTPUT_CELLS})")


def _require_dm4(dm: DifferenceMatrix, width: int, axes: int):
    """Refuse, before anything is built, a DM that is not a verified
    (v, 4, 1)-DM or a development of v^axes rows x width columns over the
    expansion's cell cap."""
    if dm.k != 4:
        raise ConstraintError(f"development needs a (v, 4, 1)-DM, got k = {dm.k}")
    _charge_cells(dm.v, width, axes)
    report = verify_dm(dm)
    if not report.ok:
        raise VerificationError("input difference matrix failed verification", report)


def _narrowed(dm: DifferenceMatrix, profile: LevelProfile):
    """dm's group addition and negation tables and its entries in the dtype
    of the cells over `profile`, so a development's columns are built in it."""
    return (x.astype(profile.dtype) for x in (dm.group.add_table, dm.group.neg_table, dm.entries))


def develop_chai1(dm: DifferenceMatrix) -> tuple[SymbolMatrix, ResolvableProjection]:
    """13-column development with one row per (i, u, e), i outermost: the four
    translated DM rows, the same translated by e, four difference columns, and
    e itself.  Columns {0, 1, 6} form a full factorial on v^3 rows.  The
    output is re-verified and never silently emitted."""
    _require_dm4(dm, 13, 3)
    v = dm.v
    profile = LevelProfile([v] * 13)
    add, neg, entries = _narrowed(dm, profile)
    i_idx, u, e = (x.ravel() for x in np.indices((v, v, v), dtype=profile.dtype))
    d = [entries[i_idx, j] for j in range(4)]
    cols = []
    cols.extend(add[d[j], u] for j in range(4))
    cols.extend(add[add[d[j], u], e] for j in range(4))
    d12 = add[d[0], neg[d[1]]]
    cols.append(d12)
    cols.append(add[d12, e])
    cols.append(add[add[d[0], neg[d[2]]], e])
    cols.append(add[add[d[0], neg[d[3]]], e])
    cols.append(e)
    a = SymbolMatrix(profile, np.stack(cols, axis=1), t=2)
    report = verify_strength(a, 2)
    if not report.ok:
        raise VerificationError(
            "13-column development failed its strength-2 check on pairs "
            f"{report.failing_subsets()}", report
        )
    return a, require_resolvable(a, (0, 1, 6))


def develop_chai2(
    dm: DifferenceMatrix,
) -> tuple[SymbolMatrix, ResolvableProjection, StrengthReport]:
    """29-column development over (i, u, e, w), transcribed verbatim from its
    source formula (including the duplicated d1+u+w term at positions 14 and
    18, 1-indexed).  The strength-2 self-check result is returned rather than
    trusted: the caller gets the array, the full-factorial projection
    {0,1,2,3}, and the verdict naming every failing column pair."""
    _require_dm4(dm, 29, 4)
    v = dm.v
    profile = LevelProfile([v] * 29)
    add, neg, entries = _narrowed(dm, profile)
    i_idx, u, e, w = (x.ravel() for x in np.indices((v, v, v, v), dtype=profile.dtype))
    d = [entries[i_idx, j] for j in range(4)]

    def plus(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = add[acc, x]
        return acc

    d12 = plus(d[0], neg[d[1]])
    d13 = plus(d[0], neg[d[2]])
    d14 = plus(d[0], neg[d[3]])
    cols = [
        plus(d[0], u),
        plus(d[1], u),
        plus(d[2], u, e),
        plus(d[3], u, e, w),
        w,
        plus(d[2], u, w),
        plus(d[3], u, w),
        plus(d[0], u, e, w),
        plus(d[2], u),
        plus(d[3], u),
        plus(d[0], u, e),
        plus(d[1], u, e),
        plus(d[3], u, e),
        plus(d[0], u, w),
        plus(d[1], e, w),
        plus(d[2], e, w),
        plus(d[3], e, w),
        plus(d[0], u, w),
        plus(d[1], u, w),
        plus(d[1], u, e, w),
        plus(d[2], u, e, w),
        d12,
        plus(d12, e),
        plus(d13, e),
        plus(d14, e),
        plus(d12, w),
        plus(d13, w),
        plus(d14, w),
        e,
    ]
    a = SymbolMatrix(profile, np.stack(cols, axis=1), t=2)
    report = verify_strength(a, 2)
    return a, require_resolvable(a, (0, 1, 2, 3)), report


# -- file format ----------------------------------------------------------------


def parse_group(text: str) -> AbelianGroup:
    """'Z4' or 'Z2xZ2': a direct product of cyclic groups of order >= 1."""
    factors = []
    for part in text.split("x"):
        if not (part[:1] == "Z" and part[1:].isdecimal() and int(part[1:]) >= 1):
            raise ConstraintError(f"bad group factor {part!r}")
        factors.append(int(part[1:]))
    return AbelianGroup(factors)


def loads_dm(text: str) -> DifferenceMatrix:
    lines = [
        (i + 1, line)
        for i, line in enumerate(text.split("\n"))
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty file", 1)
    lineno, header = lines[0]
    parts = header.split()
    if not parts or parts[0] != "DM":
        raise ParseError(f"expected 'DM' header, got {header!r}", lineno)
    kv = dict(p.partition("=")[::2] for p in parts[1:])
    try:
        v = int(kv["v"])
        k = int(kv["k"])
        group = parse_group(kv["group"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed DM header: {exc}", lineno) from None
    if group.order != v:
        raise ParseError(f"group order {group.order} != v = {v}", lineno)
    if not 1 <= k <= len(text) // v:  # every entry takes a character; checked before allocating
        raise ParseError(f"k = {k} is outside 1 to {len(text) // v}, what the file holds", lineno)
    if len(lines) - 1 != v:
        raise ParseError(f"expected {v} rows, found {len(lines) - 1}", lineno)
    rank = len(group.factors)
    entries = np.zeros((v, k), dtype=np.int32)
    for i, (lineno, line) in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != k:
            raise ParseError(f"row has {len(fields)} entries, expected {k}", lineno)
        for j, f in enumerate(fields):
            comps = f.split(",")
            if len(comps) != max(rank, 1):
                raise ParseError(
                    f"element {f!r} has {len(comps)} components, expected {rank}",
                    lineno,
                )
            try:
                tup = tuple(int(c) for c in comps)
            except ValueError:
                raise ParseError(f"bad element {f!r}", lineno) from None
            if any(not 0 <= t < z for t, z in zip(tup, group.factors or (1,))):
                raise ParseError(f"element {f!r} out of group range", lineno)
            entries[i, j] = group.index(tup)
    return DifferenceMatrix(group, entries)


def dumps_dm(dm: DifferenceMatrix) -> str:
    out = [f"DM v={dm.v} k={dm.k} group={dm.group.label()}"]
    for row in dm.entries:
        out.append(" ".join(  # the trivial group's element, (), is written 0
            ",".join(str(c) for c in dm.group.element(int(x))) or "0" for x in row
        ))
    return "\n".join(out) + "\n"


def read_dm(path) -> DifferenceMatrix:
    return loads_dm(read_utf8(path).decode("utf-8"))


def write_dm(dm: DifferenceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dumps_dm(dm))
