"""Acceptance gate: one test per criterion, each printing a PASS line.

Every check is exact (combinatorial counting, no tolerances); the stated
runtime ceilings are asserted with perf_counter.  Criteria 2-6 register the
large sets they build so criterion 13 can re-check the shared invariants on
every one of them.
"""

import time
from math import comb

import numpy as np

from oaforge.algebraic import (
    linear_oa,
    q4_matrix,
    sylvester,
    sylvester_oa2,
    sylvester_oa3,
)
from oaforge.arrays import (
    LevelProfile,
    SymbolMatrix,
    brute_force_strength,
    project_columns,
    verify_large_set,
    verify_strength,
)
from oaforge.compose import (
    cosets_strength1,
    execute_plan,
    juxtapose,
    kronecker,
    plan_theorem,
)
from oaforge.diffmatrix import (
    develop_chai1,
    develop_chai2,
    dm_for,
    field_dm,
    product_dm,
    search_dm,
    verify_dm,
)
from oaforge.expand import ResolvableProjection, expand_shift
from oaforge.fixtures import FIXTURES, fixture_loa, load_fixture
from reference import field_det, row_weights

# (label, seed array, large set, strength) registered by criteria 2-6
_BUILT_LOAS: list[tuple[str, SymbolMatrix, object, int]] = []


def _pass(criterion: int, elapsed: float, limit: float | None, detail: str):
    budget = f"{elapsed:.2f}s" + (f" < {limit:g}s" if limit else "")
    print(f"ACCEPTANCE {criterion}: PASS ({budget}) {detail}")


def _register(label, seed, ls, t):
    _BUILT_LOAS.append((label, seed, ls, t))


def test_criterion_01_sylvester_identity():
    start = time.perf_counter()
    s1 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for n in range(1, 9):
        s = sylvester(n)  # internally asserts equality with the Kronecker power
        power = s1
        for _ in range(n - 1):
            power = np.kron(power, s1)
        assert np.array_equal(s.astype(np.int64), power)
        gram = s.astype(np.int64) @ s.astype(np.int64).T
        assert np.array_equal(gram, (1 << n) * np.eye(1 << n, dtype=np.int64))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, elapsed, 1.0, "orders 2..256: H H^T = 2^n I and Kronecker power equality")


def test_criterion_02_binary_strength2_families():
    start = time.perf_counter()
    built = 0
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            a, proj = sylvester_oa2(n, k)
            ls = expand_shift(a, proj)
            assert ls.m == 2 ** (k - n)
            assert verify_large_set(ls, 2).ok
            _register(f"LOA(2^{n},{k},2,2)", a, ls, 2)
            built += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(2, elapsed, 10.0, f"{built} large sets LOA(2^n,k,2,2), M = 2^(k-n)")


def test_criterion_03_binary_strength3_families():
    start = time.perf_counter()
    built = 0
    for n in (2, 3, 4):
        for k in range(n + 1, 2**n + 1):
            a, proj = sylvester_oa3(n, k)
            ls = expand_shift(a, proj)
            assert ls.m == 2 ** (k - n - 1)
            assert verify_large_set(ls, 3).ok
            _register(f"LOA(2^{n + 1},{k},2,3)", a, ls, 3)
            built += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(3, elapsed, 10.0, f"{built} large sets LOA(2^(n+1),k,2,3)")


def test_criterion_04_quartic_strength3_q3():
    start = time.perf_counter()
    gc = q4_matrix(3)
    assert len(gc.columns) == 10
    anchor = gc.columns[:4].tolist()  # construction columns 0, 1, 2 and 4 lead
    det = field_det(gc.field, list(zip(*anchor)))
    assert det == gc.field.neg(1)  # -1 in GF(3)
    assert comb(10, 3) == 120
    for k in range(4, 11):  # k = 10 counts all 120 triples of the 10 columns
        a, proj = linear_oa(gc, k)
        assert (a.n, a.k) == (81, k)
        assert verify_strength(a, 3).ok
        if k == 10:
            ls = expand_shift(a, proj)
            assert ls.m == 3 ** (10 - 4) == 729
            assert ls.profile.universe_size == 59049
            assert verify_large_set(ls, 3).ok
            _register("LOA(81,10,3,3)", a, ls, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(4, elapsed, 60.0,
          "10 columns, det({0,1,2,4}) = -1, 120 triples independent,"
          " OA(81,k,3,3) for k=4..10, partition of 3^10 at k=10")


def test_criterion_05_quartic_strength3_q4():
    start = time.perf_counter()
    gc = q4_matrix(4)
    for k in range(4, 9):
        a, proj = linear_oa(gc, k)
        assert (a.n, a.k) == (256, k)
        assert verify_strength(a, 3).ok
        if k == 8:
            ls = expand_shift(a, proj)
            assert ls.profile.universe_size == 65536
            assert ls.m == 256
            assert verify_large_set(ls, 3).ok
            _register("LOA(256,8,4,3)", a, ls, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(5, elapsed, 60.0,
          "OA(256,k,4,3) for k=4..8, partition of 4^8 at k=8")


def test_criterion_06_thirteen_column_development():
    start = time.perf_counter()
    for v in (4, 5, 7):
        a, proj = develop_chai1(dm_for(v))
        assert (a.n, a.k) == (v**3, 13)
        assert verify_strength(a, 2).ok
        triple = a.cells[:, [0, 1, 6]]
        assert len({tuple(r) for r in triple.tolist()}) == v**3
        assert proj.columns == (0, 1, 6)
    a, _ = develop_chai1(dm_for(4))
    keep = [0, 1, 6] + [c for c in range(13) if c not in (0, 1, 6)][:7]
    b = project_columns(a, keep)
    ls = expand_shift(b, ResolvableProjection((0, 1, 2), b.n))
    assert ls.profile.universe_size == 4**10
    assert ls.m == 4**10 // 64
    assert verify_large_set(ls, 2).ok
    _register("LOA(64,10,4,2)", b, ls, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(6, elapsed, 60.0,
          "OA(v^3,13,v,2) for v in {4,5,7} with full-factorial columns"
          " {0,1,6}; k=10 expansion partitions 4^10")


def test_criterion_07_twentynine_column_development_verdict():
    start = time.perf_counter()
    a, proj, report = develop_chai2(dm_for(4))
    assert (a.n, a.k) == (256, 29)
    # definitive verdict: the verbatim row formula is NOT strength 2; the
    # duplicated columns (positions 14 and 18, 1-indexed) are named exactly
    assert not report.ok
    assert report.failing_subsets() == [(13, 17)]
    assert np.array_equal(a.cells[:, 13], a.cells[:, 17])
    quads = {tuple(r) for r in a.cells[:, :4].tolist()}
    assert len(quads) == 4**4  # the full-factorial projection claim holds
    # mutation test on a passing sub-array: drop one duplicate, flip one cell
    keep = [c for c in range(29) if c != 17]
    passing = project_columns(a, keep)
    assert verify_strength(passing, 2).ok
    cells = passing.cells.copy()
    cells[5, 3] = (cells[5, 3] + 1) % 4
    mutated = SymbolMatrix(passing.profile, cells)
    mreport = verify_strength(mutated, 2)
    assert not mreport.ok
    assert set(mreport.failing_subsets()) == {
        (min(3, j), max(3, j)) for j in range(28) if j != 3
    }
    elapsed = time.perf_counter() - start
    _pass(7, elapsed, None,
          "verdict: formula as printed fails strength 2 exactly on pair"
          " (13,17); single-symbol mutation localized to its 27 pairs")


def test_criterion_08_difference_matrix_suite():
    start = time.perf_counter()
    for q in (4, 5, 7, 8, 9, 11, 13):
        assert verify_dm(field_dm(q, min(q, 4))).ok
        assert verify_dm(field_dm(q, q)).ok
    assert verify_dm(product_dm(field_dm(4, 4), field_dm(5, 4))).ok
    assert verify_dm(product_dm(field_dm(5, 4), field_dm(7, 4))).ok
    assert search_dm(5, 4, budget=10**6) is not None
    assert search_dm(7, 4, budget=10**6) is not None
    assert search_dm(3, 4, budget=10**6) is None  # proven by full exhaustion
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(8, elapsed, 30.0,
          "field matrices q in {4,5,7,8,9,11,13}; products (20,4,1),(35,4,1);"
          " search finds (5,4,1),(7,4,1) and refutes (3,4,1)")


def test_criterion_09_juxtaposition():
    start = time.perf_counter()
    a, proj = sylvester_oa3(3, 7)
    l16 = expand_shift(a, proj)
    l40 = fixture_loa("oa40_5e1_2e6")
    l56 = juxtapose(l16, l40)
    assert l56.profile.levels == (7,) + (2,) * 6
    report = verify_large_set(l56, 3)
    assert report.ok and report.universe == 448
    l48 = juxtapose(fixture_loa("oa20_2e8_5e1", lead_level=5),
                    fixture_loa("oa28_2e12_7e1", lead_level=7, width=9))
    assert l48.profile.levels == (12,) + (2,) * 8
    assert verify_large_set(l48, 2).ok
    elapsed = time.perf_counter() - start
    _pass(9, elapsed, None,
          "LOA(56,7^1 2^6,3) on the 448-tuple universe and"
          " LOA(48,12^1 2^8,2) from the 20- and 28-run fixtures")


def test_criterion_10_kronecker():
    start = time.perf_counter()
    c22 = cosets_strength1(LevelProfile([2, 2]))
    toy = kronecker(c22, c22)
    assert (toy.n, toy.k, toy.t) == (8, 4, 3)

    a, proj = sylvester_oa2(2, 3)
    l4 = expand_shift(a, proj)
    out = kronecker(l4, l4)
    assert (out.n, out.k, out.t) == (32, 6, 5)
    assert verify_strength(out, 5).lambda_by_subset[(0, 1, 2, 3, 4)] == 1

    t_row = time.perf_counter()
    l2 = cosets_strength1(LevelProfile([2, 2, 2]))
    l44 = fixture_loa("oa44_2e16_11e1", lead_level=11, width=5)
    row = kronecker(l2, l44)
    assert row.n == 352 and row.t == 4
    assert sorted(row.profile.levels) == sorted((11,) + (2,) * 7)
    assert verify_strength(row, 4).ok
    row_elapsed = time.perf_counter() - t_row
    assert row_elapsed < 1.0
    elapsed = time.perf_counter() - start
    _pass(10, elapsed, None,
          f"OA(8,4,2,3), OA(32,6,2,5) at index 1, and OA(352,11^1 2^7,4)"
          f" in {row_elapsed:.2f}s")


def test_criterion_11_theorem_recipes():
    start = time.perf_counter()
    art = execute_plan(plan_theorem("v1+v3-2", {"v": 4, "k": 5}))
    assert (art.n, art.k, art.t) == (4**6, 8, 4)
    art = execute_plan(plan_theorem("doublev3-2", {"v": 4, "k": 5}))
    assert (art.n, art.k, art.t) == (4**8, 10, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(11, elapsed, 120.0,
          "OA(4^6,8,4,4) and OA(4^8,10,4,5) built and verified by one exhaustive count")


def test_criterion_12_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.RandomState(48841)
    disagreements = 0
    checked = 0
    for fx in FIXTURES:
        a, _ = load_fixture(fx.name)
        for _ in range(20):
            cells = a.cells.copy()
            for j, s in enumerate(a.profile.levels):
                cells[:, j] = rng.permutation(s)[cells[:, j]]
            variant = SymbolMatrix(a.profile, cells)
            fast = verify_strength(variant, fx.t)
            slow = brute_force_strength(variant, fx.t)
            checked += 1
            if fast.ok != slow.ok or \
                    set(fast.failing_subsets()) != set(slow.failing_subsets()):
                disagreements += 1
    assert checked == 20 * len(FIXTURES)
    assert disagreements == 0
    elapsed = time.perf_counter() - start
    _pass(12, elapsed, None,
          f"{checked} level-permuted fixture variants, kernel vs naive"
          " re-count, zero disagreements")


def test_criterion_13_invariants_of_all_built_large_sets():
    start = time.perf_counter()
    assert _BUILT_LOAS, "criteria 2-6 must register their large sets first"
    for label, seed, ls, _t in _BUILT_LOAS:
        assert np.array_equal(ls.members[0].cells, seed.cells), label
        w = row_weights(ls.profile.levels)
        codes = np.concatenate(
            [m.cells.astype(np.int64) @ w for m in ls.members])
        assert codes.size == ls.m * ls.n == ls.profile.universe_size, label
        assert np.unique(codes).size == codes.size, label
    elapsed = time.perf_counter() - start
    _pass(13, elapsed, None,
          f"{len(_BUILT_LOAS)} large sets: member 0 = seed, pairwise"
          " disjoint, total row count = universe")
