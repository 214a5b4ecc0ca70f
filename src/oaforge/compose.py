"""Composition engines: strength-1 coset large sets, zero-sum index-1 arrays,
juxtaposition of large sets with matching tails, cyclic Kronecker pairing of
large sets (strengths add plus one), and the plan trees that every building
command runs: `construct`, `expand`, `theorem` and the catalog.

The Kronecker pairing takes one block per s in [0, lcm(M1, M2)): the full row
product of member (s mod M1) with member (s mod M2).  Strength verification of
the result is mandatory, so a wrong pairing can never produce an accepted
artifact; a large output is counted through its two factors once its cells
are certified to be their row products (arrays._product_strength).  That
count proves the output whatever the inputs are, so `kronecker` does not
count its inputs.  Each engine counts its output once and returns it with
t set to the strength it passed at, or raises; a plan's executor recounts
only a claim above.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import algebraic, diffmatrix, fixtures, work
from .arrays import (
    LargeSet,
    LevelProfile,
    SymbolMatrix,
    _product_strength,
    full_factorial,
    verify_large_set,
    verify_strength,
)
from .errors import ConstraintError, SizeCapError, VerificationError
from .expand import ResolvableProjection, expand_shift, project_resolvable
from .gf import prime_power


# -- direct constructions -------------------------------------------------------


def cosets_strength1(profile: LevelProfile) -> LargeSet:
    """Partition of the full factorial into cosets of the cyclic subgroup
    generated by (1, ..., 1): each coset is a simple strength-1 array with
    N = lcm of the levels, members ordered by their smallest row."""
    levels = profile.levels
    if profile.universe_size * profile.k > work.MAX_MATERIALIZED:
        raise SizeCapError(f"universe of {profile.universe_size.bit_length()} bits"
                           " too large to materialize")
    # Adding i * (1, ..., 1) keeps columns 0..j-1 fixed iff lcm(l_0..l_{j-1})
    # divides i, which moves column j in steps of g_j = gcd(that lcm, l_j).
    # So a row is the smallest of its coset iff every symbol y_j < g_j, and
    # these rows in lexicographic order are the members' first rows.
    bounds, n = [], 1
    for s in levels:
        bounds.append(gcd(n, s))
        n = lcm(n, s)
    firsts = np.indices(bounds, dtype=np.int32).reshape(profile.k, -1)
    cells = np.empty((firsts.shape[1], n, profile.k), dtype=profile.dtype)
    step = np.arange(n, dtype=np.int32)
    for j, s in enumerate(levels):  # summed in int32 a column at a time, then narrowed
        cells[:, :, j] = (firsts[j, :, None] + step) % s
    ls = LargeSet._stacked(profile, cells, (1,) * len(cells), 1)
    report = verify_large_set(ls, 1)
    if not report.ok:
        raise VerificationError("coset large set failed verification", report)
    return ls


def zero_sum_oa(s: int, t: int) -> tuple[SymbolMatrix, ResolvableProjection]:
    """OA(s^t, t+1, s, t) at index 1: every t-tuple extended by the negated
    coordinate sum mod s.  The first t columns project bijectively."""
    if s < 2 or t < 1:
        raise ValueError("need s >= 2 and t >= 1")
    if work.power_over(s, t, work.MAX_MATERIALIZED):
        raise SizeCapError(f"s^t = {s}^{t} too large to materialize")
    x = np.indices((s,) * t).reshape(t, -1).T
    last = (-x.sum(axis=1)) % s
    cells = np.hstack([x, last[:, None]])
    a = SymbolMatrix(LevelProfile([s] * (t + 1)), cells, t=t)
    report = verify_strength(a, t)
    if not report.ok:
        raise VerificationError("zero-sum array failed verification", report)
    return a, ResolvableProjection(tuple(range(t)), a.n)


# -- juxtaposition ----------------------------------------------------------------


def juxtapose(l1: LargeSet, l2: LargeSet) -> LargeSet:
    """Stack member i of l1 over member i of l2 with l2's column-0 symbols
    relabeled to a1..a1+b1-1; the tails (columns 1..k-1) must agree and
    N1/a1 = N2/b1.  Output verified at the common strength, its t."""
    if l1.profile.levels[1:] != l2.profile.levels[1:]:
        raise ConstraintError(
            f"profiles differ beyond column 0: {l1.profile.format()} vs"
            f" {l2.profile.format()}"
        )
    a1 = l1.profile.levels[0]
    b1 = l2.profile.levels[0]
    if l1.n * b1 != l2.n * a1:
        raise ConstraintError(
            f"run/level ratio mismatch: {l1.n}/{a1} != {l2.n}/{b1}"
        )
    if l1.m != l2.m:
        raise ConstraintError(f"member counts differ: {l1.m} != {l2.m}")
    if l1.t is None or l2.t is None:
        raise ConstraintError("both large sets need a claimed strength")
    t = min(l1.t, l2.t)
    profile = LevelProfile((a1 + b1,) + l1.profile.levels[1:])
    # widened first where a1 + b1 passes 256, so the relabelling cannot wrap
    cells = np.concatenate([l1.cells, l2.cells], axis=1, dtype=profile.dtype)
    cells[:, l1.n:, 0] += a1
    ls = LargeSet._stacked(profile, cells, (t,) * l1.m, t)
    report = verify_large_set(ls, t)
    if not report.ok:
        raise VerificationError("juxtaposed large set failed verification", report)
    return ls


# -- Kronecker pairing -------------------------------------------------------------


def kronecker(l1: LargeSet, l2: LargeSet) -> SymbolMatrix:
    """Union over s < lcm(M1, M2) of the row products of member (s mod M1)
    with member (s mod M2): an array on k1 + k2 columns with h * N1 * N2
    rows and strength t1 + t2 + 1, written a member row at a time and
    verified at that t before returning.  That count proves the output
    whatever the inputs are, so the inputs are not counted; a failure names
    the output's failing subsets."""
    if l1.t is None or l2.t is None:
        raise ConstraintError("both large sets need a claimed strength")
    m1, m2 = l1.m, l2.m
    h = lcm(m1, m2)
    t = l1.t + l2.t + 1
    n_out = h * l1.n * l2.n
    k1 = l1.profile.k
    if n_out * (k1 + l2.profile.k) > work.MAX_OUTPUT_CELLS:
        raise SizeCapError(f"output with {n_out} rows too large to materialize")
    # block s holds row i of member s mod M1 beside row j of member s mod M2
    # at row i * N2 + j; s mod M runs over h / M copies of range(M).  A member
    # row is one np.void item, an output row the record (p, q) of two
    profile = LevelProfile(l1.profile.levels + l2.profile.levels)
    p, q = (np.ascontiguousarray(x.cells, dtype=profile.dtype)
            .view(f"V{x.profile.k * profile.dtype.itemsize}")[..., 0] for x in (l1, l2))
    cells = np.empty((h, l1.n, l2.n, k1 + l2.profile.k), dtype=profile.dtype)
    rows = cells.view([("p", p.dtype), ("q", q.dtype)])  # (h, N1, N2, 1), split before a field
    rows.reshape(h // m1, m1, l1.n, l2.n)["p"][...] = p[None, :, :, None]
    rows.reshape(h // m2, m2, l1.n, l2.n)["q"][...] = q[None, :, None, :]
    out = SymbolMatrix._trusted(profile, cells.reshape(n_out, k1 + l2.profile.k), t)
    report = _product_strength(out, h, l1.n, k1, t)
    if not report.ok:
        raise VerificationError(
            f"Kronecker pairing failed its strength-{t} check on subsets "
            f"{report.failing_subsets()[:4]}", report
        )
    return out


# -- construction plans -------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    n: int
    profile_counts: tuple[tuple[int, int], ...]  # sorted (level, count) multiset
    t: int


def _counts(levels_with_mult) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for level, count in levels_with_mult:
        if count:
            out[level] = out.get(level, 0) + count
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class Leaf:
    kind: str
    params: tuple[tuple[str, int | str | None], ...]


@dataclass(frozen=True)
class Expand:
    child: "PlanNode"


@dataclass(frozen=True)
class Project:
    child: "PlanNode"
    columns: tuple[int, ...]


@dataclass(frozen=True)
class Juxtapose:
    left: "PlanNode"
    right: "PlanNode"


@dataclass(frozen=True)
class Kronecker:
    left: "PlanNode"
    right: "PlanNode"


@dataclass(frozen=True, eq=False)
class Seed:
    """An array from outside the program with the resolvable projection chosen
    for it, counted at its t within `budget` when built; equal only to itself."""
    matrix: SymbolMatrix
    projection: ResolvableProjection
    budget: int | None = None


PlanNode = Leaf | Seed | Expand | Project | Juxtapose | Kronecker


@dataclass(frozen=True)
class ConstructionPlan:
    root: PlanNode
    claim: Claim
    theorem: str | None = None


def leaf(kind: str, **params) -> Leaf:
    return Leaf(kind, tuple(sorted(params.items())))


@dataclass
class _OAWithProjection:
    matrix: SymbolMatrix
    projection: ResolvableProjection


def _fullfact(v: int, k: int):
    a = full_factorial(LevelProfile([v] * k))
    return a, ResolvableProjection(tuple(range(a.k)), a.n)


def _dm(v: int, dm_file, width: int, axes: int):
    """The (v, 4, 1)-DM a v^axes x width development starts from: the
    built-in one, whose order and cells are checked before it is found, or
    the one read from dm_file, whose order must be v."""
    if dm_file is None:
        diffmatrix.require_development(v, width, axes)
        return diffmatrix.dm_for(v)
    dm = diffmatrix.read_dm(dm_file)
    if dm.v != v:
        raise ConstraintError(f"v = {v} but {dm_file} holds a DM with v = {dm.v}")
    return dm


def _chai2(v: int, dm_file):
    a, proj, report = diffmatrix.develop_chai2(_dm(v, dm_file, 29, 4))
    if not report.ok:
        failure = VerificationError("29-column development self-check failed on pairs "
                                    f"{report.failing_subsets()}", report)
        failure.candidate = a  # for a caller that reports the failure honestly
        raise failure
    return a, proj


# kind -> (required parameters, optional parameters with their defaults, builder);
# a builder returns an array with its resolvable projection, or a large set.
# The lambdas look library functions up when called, so a function replaced on
# its module (as a tracer does) is the one that runs.
LEAVES = {
    "fullfact": (("v", "k"), None, _fullfact),
    "cosets": (("v", "k"), None, lambda v, k: cosets_strength1(LevelProfile([v] * k))),
    "zerosum": (("s", "t"), None, zero_sum_oa),
    "sylvester2": (("n", "k"), None, lambda n, k: algebraic.sylvester_oa2(n, k)),
    "sylvester3": (("n", "k"), None, lambda n, k: algebraic.sylvester_oa3(n, k)),
    "projective": (("q", "n", "k"), None, lambda q, n, k: algebraic.linear_oa(
        algebraic.projective_columns(q, n), k)),
    "bush": (("q", "t", "k"), None, lambda q, t, k: algebraic.linear_oa(
        algebraic.bush_columns(q, t), k)),
    "q4t3": (("q", "k"), None, lambda q, k: algebraic.linear_oa(algebraic.q4_matrix(q), k)),
    "chai1": (("v",), {"dm_file": None},
              lambda v, dm_file: diffmatrix.develop_chai1(_dm(v, dm_file, 13, 3))),
    "chai2": (("v",), {"dm_file": None}, _chai2),
    "fixture": (("name",), {"lead_level": None, "width": None},
                lambda **p: fixtures.fixture_loa(**p)),
}


# the kinds whose builder ends in an exhaustive count at the output's claimed t
COUNTED_LEAVES = frozenset(LEAVES) - {"fullfact", "fixture"}


def run_leaf(node: Leaf) -> _OAWithProjection | LargeSet:
    """Build one leaf through LEAVES; a missing or unknown parameter is a
    ConstraintError."""
    if node.kind not in LEAVES:
        raise ValueError(f"unknown leaf kind {node.kind!r}")
    keys, defaults, build = LEAVES[node.kind]
    out = build(**_need(dict(node.params), list(keys), node.kind, defaults))
    return _OAWithProjection(*out) if isinstance(out, tuple) else out


def _execute(node: PlanNode, built: dict):
    """The node's artifact and the strength that an exhaustive count has
    passed it at, or None.  An Expand node passes on its seed's: shifted
    members are per-column symbol translations, and projections keep
    strength; its large-set properties are left to _confirm.  `built`
    holds the results of one plan, so equal subtrees are built once."""
    if node not in built:
        built[node] = _build(node, built)
    return built[node]


def _build(node: PlanNode, built: dict):
    if isinstance(node, (Expand, Project)):
        child, verified_t = _execute(node.child, built)
        if not isinstance(child, _OAWithProjection):
            raise VerificationError(
                f"{type(node).__name__.lower()} needs an array with projection: {node}")
        if isinstance(node, Expand):
            return expand_shift(child.matrix, child.projection), verified_t
        out = _OAWithProjection(*project_resolvable(child.matrix, child.projection,
                                                    node.columns))
        return out, None if verified_t is None else min(verified_t, len(node.columns))
    if isinstance(node, Seed):
        a = node.matrix
        report = verify_strength(a, a.t, budget=node.budget)
        if not report.ok:
            raise VerificationError(f"input array failed its strength-{a.t} check", report)
        out = _OAWithProjection(a, node.projection)
    elif isinstance(node, Leaf):
        out = run_leaf(node)
        if node.kind not in COUNTED_LEAVES:
            return out, None
    elif isinstance(node, (Juxtapose, Kronecker)):
        engine = juxtapose if isinstance(node, Juxtapose) else kronecker
        out = engine(_as_large_set(node.left, built), _as_large_set(node.right, built))
    else:
        raise TypeError(f"unknown plan node {node!r}")
    return out, getattr(out, "matrix", out).t


def _as_large_set(node: PlanNode, built: dict) -> LargeSet:
    result, _ = _execute(node, built)
    if isinstance(result, _OAWithProjection):
        result = expand_shift(result.matrix, result.projection)
    if not isinstance(result, LargeSet):
        raise VerificationError(f"node {node} did not produce a large set")
    return result


def _confirm(root: PlanNode, result, verified_t: int | None, t: int):
    """Raise VerificationError unless `result`, the artifact of `root`, has
    strength t.  It is counted here unless the root has already passed a
    count at verified_t >= t (strength t implies every lower one).  An Expand
    root then gets only the large-set checks that its seed's count does not
    cover: member count, occupancy and simplicity."""
    covered = verified_t is not None and 0 <= t <= verified_t
    if isinstance(root, Expand):
        report = verify_large_set(result, 0 if covered else t)
    elif covered:
        return
    elif isinstance(result, LargeSet):
        report = verify_large_set(result, t)
    else:
        report = verify_strength(result, t)
    if not report.ok:
        raise VerificationError(f"claimed strength {t} failed verification", report)


def run_tree(root: PlanNode) -> _OAWithProjection | LargeSet:
    """Build a plan tree that has no claim, and verify its artifact at the
    strength the artifact itself claims, by execute_plan's rule."""
    result, verified_t = _execute(root, {})
    artifact = getattr(result, "matrix", result)
    _confirm(root, artifact, verified_t, artifact.t)
    return result


def execute_plan(plan: ConstructionPlan) -> SymbolMatrix | LargeSet:
    """Execute the tree and verify the claimed (N, profile, strength); any
    mismatch is a hard error naming the failing check."""
    result, verified_t = _execute(plan.root, {})
    result = getattr(result, "matrix", result)
    claim = plan.claim
    n = result.n
    counts = _counts((s, 1) for s in result.profile.levels)
    if n != claim.n:
        raise VerificationError(f"claimed N = {claim.n}, produced N = {n}")
    if counts != claim.profile_counts:
        raise VerificationError(
            f"claimed profile {claim.profile_counts}, produced {counts}"
        )
    _confirm(plan.root, result, verified_t, claim.t)
    return result


# -- theorem recipes -----------------------------------------------------------------


THEOREM_IDS = (
    "v1+v3-2", "doublev3-2", "v1+q4-3", "v12n-4", "qn2n-com", "qn2v32=5",
    "qn2q43=6", "qn3q43=7", "q3323=7", "t-1q43=t+3", "qt2n2-3", "tt-1n2-3",
    "qtp43",
)


def _need(params: dict, keys: list[str], theorem: str, defaults: dict | None = None):
    out = dict(defaults or {})
    out.update(params)
    missing = [key for key in keys if key not in out]
    if missing:
        raise ConstraintError(f"{theorem} needs parameters {missing}")
    allowed = set(keys) | set(defaults or {})
    extra = [key for key in out if key not in allowed]
    if extra:
        raise ConstraintError(f"{theorem} does not take parameters {extra}")
    return out


def _check(cond: bool, theorem: str, constraint: str):
    if not cond:
        raise ConstraintError(f"{theorem} requires {constraint}")


def _is_prime_power(q: int) -> bool:
    """Whether q is a prime power; a q above MAX_ORDER is refused."""
    try:
        prime_power(q)
    except ConstraintError:
        raise
    except ValueError:
        return False
    return True


def _dev_node(v: int, cols: int) -> PlanNode:
    """Large set over v^cols from the 13- or 29-column development, projected
    so the resolvable columns lead."""
    if cols <= 13:
        need, proj = 13, (0, 1, 6)
        base: PlanNode = leaf("chai1", v=v)
    else:
        need, proj = 29, (0, 1, 2, 3)
        base = leaf("chai2", v=v)
    keep = list(proj) + [c for c in range(need) if c not in proj]
    return Expand(Project(base, tuple(keep[:cols])))


def _power(base: int, exp: int) -> int:
    """base ** exp, which divides the rows of a recipe's output, or, before
    it is computed, a SizeCapError if its lower bound alone passes the
    output's cap of cells; a later check names what the exact value passes."""
    if work.surely_over(base, exp, work.MAX_OUTPUT_CELLS):
        raise SizeCapError(f"output of over 2^{work.MAX_OUTPUT_CELLS.bit_length() - 1} cells"
                           " too large to materialize")
    return base**exp


def _binary(n: int, k: int, b: int, theorem: str, name: str):
    """The binary large set of strength b on k columns (the recipe's parameter
    `name`), checked against n, as (node, N, M, b)."""
    if b == 2:
        _check(n <= k <= _power(2, n) - 1, theorem, f"n <= {name} <= 2^n - 1")
        return Expand(leaf("sylvester2", n=n, k=k)), _power(2, n), _power(2, k - n), 2
    _check(n + 1 <= k <= _power(2, n), theorem, f"n + 1 <= {name} <= 2^n")
    return Expand(leaf("sylvester3", n=n, k=k)), _power(2, n + 1), _power(2, k - n - 1), 3


def parse_params(text: str) -> dict[str, int]:
    """A recipe's parameters written as 'v=4,k=5'."""
    out = {}
    for part in text.split(","):
        key, _, value = (x.strip() for x in part.partition("="))
        if not key or not value.removeprefix("-").isdecimal():
            raise ConstraintError(f"bad parameter {part!r}")
        if key in out:
            raise ConstraintError(f"parameter {key!r} given twice")
        try:
            out[key] = int(value)
        except ValueError:  # more digits than Python converts to an int
            raise ConstraintError(f"parameter {key!r} has too many digits ({len(value)})") from None
    return out


def plan_theorem(theorem: str, params: dict) -> ConstructionPlan:
    """A plan tree reproducing one of the composite recipes, with the claimed
    (N, profile, strength) filled from the corresponding statement.  Requests
    outside a recipe's constraint block fail with the constraint echoed."""
    if theorem not in THEOREM_IDS:
        raise ConstraintError(
            f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}"
        )
    p = dict(params)

    if theorem == "v1+v3-2":
        p = _need(p, ["v", "k"], theorem)
        v, k = p["v"], p["k"]
        _check(v >= 4 and v % 4 != 2, theorem, "v >= 4 and v != 2 (mod 4)")
        _check(5 <= k <= 28, theorem, "5 <= k <= 13 (cube) or 14 <= k <= 28")
        left = Kronecker(leaf("cosets", v=v, k=k - 2), _dev_node(v, k if k <= 13 else k + 1))
        rows = _power(v, k + 1 if k <= 13 else k + 2)
        width = 2 * k - 2 if k <= 13 else 2 * k - 1
        return ConstructionPlan(left, Claim(rows, _counts([(v, width)]), 4), theorem)

    if theorem == "doublev3-2":
        p = _need(p, ["v", "k"], theorem)
        v, k = p["v"], p["k"]
        _check(v >= 4 and v % 4 != 2, theorem, "v >= 4 and v != 2 (mod 4)")
        _check(5 <= k <= 29, theorem, "5 <= k <= 13 (cube) or 14 <= k <= 29")
        node = Kronecker(_dev_node(v, k), _dev_node(v, k))
        rows = _power(v, k + 3 if k <= 13 else k + 4)
        return ConstructionPlan(node, Claim(rows, _counts([(v, 2 * k)]), 5), theorem)

    if theorem == "v1+q4-3":
        p = _need(p, ["v", "k1", "q", "k2"], theorem)
        v, k1, q, k2 = p["v"], p["k1"], p["q"], p["k2"]
        _check(v >= 2 and k1 >= 3, theorem, "v >= 2 and k1 >= 3")
        _check(_is_prime_power(q) and q >= 3, theorem, "q a prime power >= 3")
        _check(4 <= k2 <= q * q + 1, theorem, "4 <= k2 <= q^2 + 1")
        node = Kronecker(leaf("cosets", v=v, k=k1 - 2), Expand(leaf("q4t3", q=q, k=k2)))
        h = lcm(_power(v, k1 - 3), _power(q, k2 - 4))
        claim = Claim(v * _power(q, 4) * h, _counts([(v, k1 - 2), (q, k2)]), 5)
        return ConstructionPlan(node, claim, theorem)

    if theorem == "v12n-4":
        p = _need(p, ["v", "k1", "n", "k2"], theorem, {"b": 2})
        v, k1, n, k2, b = p["v"], p["k1"], p["n"], p["k2"], p["b"]
        _check(v >= 2 and k1 >= 3, theorem, "v >= 2 and k1 >= 3")
        _check(n >= 2 and b in (2, 3), theorem, "n >= 2 and b in {2, 3}")
        binary, n2, m2, t2 = _binary(n, k2, b, theorem, "k2")
        h = lcm(_power(v, k1 - 3), m2)
        claim = Claim(n2 * v * h, _counts([(v, k1 - 2), (2, k2)]), t2 + 2)
        node = Kronecker(leaf("cosets", v=v, k=k1 - 2), binary)
        return ConstructionPlan(node, claim, theorem)

    if theorem == "qn2n-com":
        p = _need(p, ["q", "m", "k1", "n", "k2"], theorem, {"b": 2})
        q, m, k1, n, k2, b = p["q"], p["m"], p["k1"], p["n"], p["k2"], p["b"]
        _check(_is_prime_power(q), theorem, "q a prime power")
        _check(2 <= m <= k1 <= (_power(q, m) - 1) // (q - 1), theorem,
               "2 <= m <= k1 <= (q^m - 1)/(q - 1)")
        _check(n >= 2 and b in (2, 3), theorem, "n >= 2 and b in {2, 3}")
        binary, n2, m2, t2 = _binary(n, k2, b, theorem, "k2")
        h = lcm(_power(q, k1 - m), m2)
        claim = Claim(n2 * _power(q, m) * h, _counts([(q, k1), (2, k2)]), t2 + 3)
        node = Kronecker(Expand(leaf("projective", q=q, n=m, k=k1)), binary)
        return ConstructionPlan(node, claim, theorem)

    if theorem == "qn2v32=5":
        p = _need(p, ["q", "m", "k1", "v", "k2"], theorem, {"w": 3})
        q, m, k1, v, k2, w = p["q"], p["m"], p["k1"], p["v"], p["k2"], p["w"]
        _check(_is_prime_power(q), theorem, "q a prime power")
        _check(2 <= m <= k1 <= (_power(q, m) - 1) // (q - 1), theorem,
               "2 <= m <= k1 <= (q^m - 1)/(q - 1)")
        _check(v >= 4 and v % 4 != 2, theorem, "v >= 4 and v != 2 (mod 4)")
        _check(w in (3, 4), theorem, "w in {3, 4}")
        top = 13 if w == 3 else 29
        _check(4 <= k2 <= top, theorem, f"4 <= k2 <= {top}")
        h = lcm(_power(q, k1 - m), _power(v, k2 - w))
        claim = Claim(_power(q, m) * _power(v, w) * h, _counts([(q, k1), (v, k2)]), 5)
        node = Kronecker(
            Expand(leaf("projective", q=q, n=m, k=k1)),
            _dev_node(v, k2) if w == 3 else Expand(
                Project(leaf("chai2", v=v),
                        tuple([0, 1, 2, 3] + [c for c in range(4, 29)][: k2 - 4]))
            ),
        )
        return ConstructionPlan(node, claim, theorem)

    if theorem == "qn2q43=6":
        p = _need(p, ["p", "k1", "q", "n", "k2"], theorem)
        pp, k1, q, n, k2 = p["p"], p["k1"], p["q"], p["n"], p["k2"]
        _check(_is_prime_power(pp) and pp >= 3, theorem, "p a prime power >= 3")
        _check(_is_prime_power(q) and q >= 3, theorem, "q a prime power >= 3")
        _check(4 <= k1 <= pp * pp + 1, theorem, "4 <= k1 <= p^2 + 1")
        _check(2 <= n <= k2 <= (_power(q, n) - 1) // (q - 1), theorem,
               "2 <= n <= k2 <= (q^n - 1)/(q - 1)")
        h = lcm(_power(pp, k1 - 4), _power(q, k2 - n))
        claim = Claim(_power(pp, 4) * _power(q, n) * h, _counts([(pp, k1), (q, k2)]), 6)
        node = Kronecker(
            Expand(leaf("q4t3", q=pp, k=k1)),
            Expand(leaf("projective", q=q, n=n, k=k2)),
        )
        return ConstructionPlan(node, claim, theorem)

    if theorem == "qn3q43=7":
        p = _need(p, ["p", "k1", "q", "k2"], theorem)
        pp, k1, q, k2 = p["p"], p["k1"], p["q"], p["k2"]
        _check(_is_prime_power(pp) and pp >= 3, theorem, "p a prime power >= 3")
        _check(_is_prime_power(q) and q >= 3, theorem, "q a prime power >= 3")
        _check(4 <= k1 <= pp * pp + 1, theorem, "4 <= k1 <= p^2 + 1")
        _check(3 <= k2 <= q + 1, theorem, "3 <= k2 <= q + 1")
        h = lcm(_power(pp, k1 - 4), _power(q, k2 - 3))
        claim = Claim(_power(pp, 4) * _power(q, 3) * h, _counts([(pp, k1), (q, k2)]), 7)
        node = Kronecker(
            Expand(leaf("q4t3", q=pp, k=k1)),
            Expand(leaf("bush", q=q, t=3, k=k2)),
        )
        return ConstructionPlan(node, claim, theorem)

    if theorem == "q3323=7":
        p = _need(p, ["q", "k1", "n", "k2"], theorem, {"b": 2})
        q, k1, n, k2, b = p["q"], p["k1"], p["n"], p["k2"], p["b"]
        _check(q >= 2 and q & (q - 1) == 0, theorem, "q a power of 2")
        _check(3 <= k1 <= q + 2, theorem, "3 <= k1 <= q + 2")
        _check(n >= 2 and b in (2, 3), theorem, "n >= 2 and b in {2, 3}")
        binary, n2, m2, t2 = _binary(n, k2, b, theorem, "k2")
        h = lcm(_power(q, k1 - 3), m2)
        claim = Claim(n2 * _power(q, 3) * h, _counts([(q, k1), (2, k2)]), t2 + 4)
        node = Kronecker(Expand(leaf("bush", q=q, t=3, k=k1)), binary)
        return ConstructionPlan(node, claim, theorem)

    if theorem == "t-1q43=t+3":
        p = _need(p, ["s", "t", "q", "k"], theorem)
        s, t, q, k = p["s"], p["t"], p["q"], p["k"]
        _check(s >= 2 and t >= 2, theorem, "s >= 2 and t >= 2")
        _check(_is_prime_power(q) and q >= 3, theorem, "q a prime power >= 3")
        _check(4 <= k <= q * q + 1, theorem, "4 <= k <= q^2 + 1")
        h = lcm(s, _power(q, k - 4))
        claim = Claim(_power(q, 4) * _power(s, t - 1) * h, _counts([(q, k), (s, t)]), t + 3)
        node = Kronecker(
            Expand(leaf("zerosum", s=s, t=t - 1)),
            Expand(leaf("q4t3", q=q, k=k)),
        )
        return ConstructionPlan(node, claim, theorem)

    if theorem == "qt2n2-3":
        p = _need(p, ["q", "t", "k1", "n", "k2"], theorem, {"b": 2})
        q, t, k1, n, k2, b = p["q"], p["t"], p["k1"], p["n"], p["k2"], p["b"]
        _check(_is_prime_power(q), theorem, "q a prime power")
        _check(1 <= t <= k1 <= q + 1, theorem, "1 <= t <= k1 <= q + 1")
        _check(n >= 2 and b in (2, 3), theorem, "n >= 2 and b in {2, 3}")
        if t == 1:
            level_part: PlanNode = leaf("cosets", v=q, k=k1)
        else:
            level_part = Expand(leaf("bush", q=q, t=t, k=k1))
        binary, n2, m2, t2 = _binary(n, k2, b, theorem, "k2")
        h = lcm(_power(q, k1 - t), m2)
        claim = Claim(n2 * _power(q, t) * h, _counts([(q, k1), (2, k2)]), t + t2 + 1)
        node = Kronecker(level_part, binary)
        return ConstructionPlan(node, claim, theorem)

    if theorem == "tt-1n2-3":
        p = _need(p, ["s", "t", "n", "k1"], theorem, {"b": 2})
        s, t, n, k1, b = p["s"], p["t"], p["n"], p["k1"], p["b"]
        _check(s >= 2 and t >= 2 and n >= 2, theorem, "s, t, n >= 2")
        _check(b in (2, 3), theorem, "b in {2, 3}")
        binary, n2, m2, t2 = _binary(n, k1, b, theorem, "k1")
        h = lcm(s, m2)
        claim = Claim(n2 * _power(s, t - 1) * h, _counts([(2, k1), (s, t)]), t + t2)
        node = Kronecker(Expand(leaf("zerosum", s=s, t=t - 1)), binary)
        return ConstructionPlan(node, claim, theorem)

    if theorem == "qtp43":
        p = _need(p, ["p", "k1", "q", "t", "k2"], theorem)
        pp, k1, q, t, k2 = p["p"], p["k1"], p["q"], p["t"], p["k2"]
        _check(_is_prime_power(pp) and pp >= 3, theorem, "p a prime power >= 3")
        _check(_is_prime_power(q) and q >= 3, theorem, "q a prime power >= 3")
        _check(4 <= k1 <= pp * pp + 1, theorem, "4 <= k1 <= p^2 + 1")
        _check(2 <= t <= k2 <= q + 1, theorem, "2 <= t <= k2 <= q + 1")
        h = lcm(_power(pp, k1 - 4), _power(q, k2 - t))
        claim = Claim(_power(pp, 4) * _power(q, t) * h, _counts([(pp, k1), (q, k2)]), t + 4)
        node = Kronecker(
            Expand(leaf("q4t3", q=pp, k=k1)),
            Expand(leaf("bush", q=q, t=t, k=k2)),
        )
        return ConstructionPlan(node, claim, theorem)

    raise AssertionError(theorem)  # unreachable
