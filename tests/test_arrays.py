"""Core data model and the strength/large-set verifiers."""

from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaforge.arrays import (
    LargeSet,
    LevelProfile,
    StrengthFailure,
    SymbolMatrix,
    brute_force_strength,
    full_factorial,
    project_columns,
    verify_large_set,
    verify_simple,
    verify_strength,
)
from oaforge.errors import BudgetExceededError, ConstraintError
from oaforge.fixtures import load_fixture
from reference import colex_combinations


def parity_code():
    """Even-weight binary triples; an index-1 strength-2 array on 4 runs."""
    rows = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0]
    return SymbolMatrix(LevelProfile([2, 2, 2]), np.array(rows), t=2)


def test_profile_basics():
    p = LevelProfile([2, 2, 2, 3, 4])
    assert p.k == 5
    assert p.universe_size == 96
    assert p.groups == ((2, 3), (3, 1), (4, 1))
    assert p.counts == {2: 3, 3: 1, 4: 1}
    assert p.c(3) == 3
    assert LevelProfile.parse("2^3,3^1,4^1") == p
    assert p.format() == "2^3,3^1,4^1"
    with pytest.raises(ValueError):
        LevelProfile([])
    with pytest.raises(ValueError):
        LevelProfile([2, 1])


def test_symbol_matrix_validation():
    with pytest.raises(ValueError, match="out of range"):
        SymbolMatrix(LevelProfile([2, 2]), [[0, 2]])
    with pytest.raises(ValueError):
        SymbolMatrix(LevelProfile([2, 2]), [[0], [1]])
    a = SymbolMatrix(LevelProfile([2, 2]), [[0, 1]], t=1)
    with pytest.raises(ValueError):
        a.cells[0, 0] = 1  # read-only


def test_symbol_matrix_takes_over_a_contiguous_array_of_its_dtype():
    # no copy: linear_oa hands over its freshly built cells, and a copy
    # would add a second output-sized array to its peak memory
    cells = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    a = SymbolMatrix(LevelProfile([2, 2]), cells)
    assert np.shares_memory(a.cells, cells)
    assert not cells.flags.writeable


@pytest.mark.parametrize("cells", [
    np.array([[0, 1], [1, 0]], dtype=np.int64),
    np.array([[0, 1], [1, 0]], dtype=np.int32),  # wider than a 2-level profile's uint8
    np.array([[0, 1], [1, 0]], dtype=np.uint8).T,  # not C-contiguous
])
def test_symbol_matrix_copies_other_input(cells):
    a = SymbolMatrix(LevelProfile([2, 2]), cells)
    assert not np.shares_memory(a.cells, cells)
    assert a.cells.dtype == np.uint8 and a.cells.flags.c_contiguous
    assert cells.flags.writeable and not a.cells.flags.writeable
    cells[0, 0] = 1
    assert a.cells[0, 0] == 0


def test_full_factorial_strength():
    ff = full_factorial(LevelProfile([2, 2, 2]))
    report = verify_strength(ff, 3)
    assert report.ok
    assert report.lambda_by_subset[(0, 1, 2)] == 1


def test_parity_code_strength():
    report = verify_strength(parity_code(), 2)
    assert report.ok
    assert all(lam == 1 for lam in report.lambda_by_subset.values())


def test_strength_zero_and_range():
    a = parity_code()
    assert verify_strength(a, 0).ok
    with pytest.raises(ValueError):
        verify_strength(a, 4)


def test_fixture_oa20_lambdas():
    a, _ = load_fixture("oa20_2e8_5e1")
    report = verify_strength(a, 2)
    assert report.ok
    assert report.lambda_by_subset[(0, 1)] == 5
    assert report.lambda_by_subset[(0, 8)] == 2


def test_lambda_of_non_integer():
    report = verify_strength(parity_code(), 3)
    assert report.lambda_by_subset == {(0, 1, 2): Fraction(1, 2)} and not report.ok


def test_non_integer_index_is_structural_failure():
    # 6 rows on a 2x2 profile: subsets of one column pass, pairs cannot
    cells = [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 1]]
    a = SymbolMatrix(LevelProfile([2, 2]), cells)
    report = verify_strength(a, 2)
    assert not report.ok
    assert {f.kind for f in report.failures} == {"non-integer-index"}


@pytest.mark.parametrize("n", [0, 1])
def test_no_rows_pass_every_subset_and_one_row_does_not(n):
    """N = 0 gives every subset index 0, so every table passes; one row has
    index 1/4 or 1/6 on every pair, with no integer index.  Both checks agree."""
    a = SymbolMatrix(LevelProfile([2, 2, 3]), np.zeros((n, 3), dtype=np.uint8))
    for report in (verify_strength(a, 2), brute_force_strength(a, 2)):
        assert report.checked_subsets == 3 and report.ok == (n == 0)
        assert report.lambda_by_subset == {(0, 1): Fraction(n, 4), (0, 2): Fraction(n, 6),
                                           (1, 2): Fraction(n, 6)}
        assert {f.kind for f in report.failures} == ({"non-integer-index"} if n else set())


@pytest.mark.parametrize("fail_fast", [False, True])
def test_rows_below_every_pairs_product_fail_each_pair_without_a_plan(monkeypatch, fail_fast):
    """Five rows over levels 3, 2, 4, 3: the smallest pair product is 6, so
    no pair has an integer index.  Every pair fails, in colex order (only the
    first with fail_fast), in verify_strength and in a one-member large
    set's first report, and neither makes a plan."""
    import oaforge.arrays as arrays_mod

    levels = (3, 2, 4, 3)
    rows = np.random.default_rng(2).integers(0, levels, (5, 4))
    a = SymbolMatrix(LevelProfile(levels), rows, t=2)
    monkeypatch.setattr(arrays_mod, "_strength_plan", None)  # not to be called
    want = [StrengthFailure(sub, "non-integer-index", None, None,
                            Fraction(5, prod(levels[j] for j in sub)))
            for sub in colex_combinations(4, 2)]
    assert verify_strength(a, 2, fail_fast=fail_fast).failures == want[:1 if fail_fast else None]
    report = verify_large_set(LargeSet(a.profile, [a], t=2), 2)
    assert report.member_problems == [(0, "strength")]
    assert report.first_bad_report.failures == want


def test_oracle_charges_rows_or_for_no_rows_the_tuples_it_enumerates():
    profile = LevelProfile([2, 3, 5])
    empty = SymbolMatrix(profile, np.zeros((0, 3), dtype=np.uint8))
    for a, ops in ((full_factorial(profile), 30 * 3), (empty, 3 * 15)):
        assert brute_force_strength(a, 2, budget=ops).ok
        with pytest.raises(BudgetExceededError, match=f"oracle needs {ops} operations"):
            brute_force_strength(a, 2, budget=ops - 1)


def test_count_imbalance_reports_tuples():
    cells = [[0, 0], [0, 0], [1, 0], [0, 1]]
    a = SymbolMatrix(LevelProfile([2, 2]), cells)
    report = verify_strength(a, 2)
    kinds = {(f.symbols, f.observed) for f in report.failures}
    assert ((0, 0), 2) in kinds
    assert ((1, 1), 0) in kinds


def test_verify_simple():
    ok, pair = verify_simple(parity_code())
    assert ok and pair is None
    doubled = SymbolMatrix(
        LevelProfile([2, 2, 2]),
        np.vstack([parity_code().cells, parity_code().cells]),
    )
    ok, pair = verify_simple(doubled)
    assert not ok
    assert pair is not None and pair[0] < pair[1]
    i, j = pair
    assert np.array_equal(doubled.cells[i], doubled.cells[j])


@pytest.mark.parametrize("target", [1, 6, 9, 1 << 16])
def test_verify_simple_names_the_smallest_repeat_in_any_block(monkeypatch, target):
    import oaforge.arrays as arrays_mod

    monkeypatch.setattr(arrays_mod, "CHUNK_TARGET_CELLS", target)
    ff = full_factorial(LevelProfile([2, 2, 2])).cells
    for first in range(7):
        for second in range(first + 1, 8):
            cells = np.vstack([ff[::-1], ff[[second, first]]])
            ok, pair = verify_simple(SymbolMatrix(LevelProfile([2, 2, 2]), cells))
            assert not ok and pair == (7 - first, 9)


def test_fixture_simple():
    a, _ = load_fixture("oa40_5e1_2e6")
    ok, _ = verify_simple(a)
    assert ok


def test_project_columns():
    a, _ = load_fixture("oa24_2e13_3e1_4e1")
    keep = [12, 13, 14, 0, 1]
    b = project_columns(a, keep)
    assert b.profile.levels == (2, 3, 4, 2, 2)
    assert verify_strength(b, 2).ok
    identity = project_columns(a, range(a.k))
    assert np.array_equal(identity.cells, a.cells)
    with pytest.raises(ValueError):
        project_columns(a, [])
    with pytest.raises(ValueError):
        project_columns(a, [0, 0])
    with pytest.raises(ValueError):
        project_columns(a, [99])


def test_colex_order():
    """The plan's array of t-subsets, row for row, is the reference
    generator's colex list."""
    from oaforge.arrays import _colex

    subs = list(colex_combinations(4, 2))
    assert subs == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(colex_combinations(3, 0)) == [()] and _colex(3, 0).shape == (1, 0)
    for k in range(1, 13):
        for t in range(1, k + 1):
            rows = _colex(k, t)
            assert rows.shape == (comb(k, t), t)
            assert list(map(tuple, rows.tolist())) == list(colex_combinations(k, t)), (k, t)


@pytest.mark.parametrize("levels, k1, t", [
    ((2,) * 7, 3, 3), ((3, 3, 2, 2, 2, 4), 2, 4), ((2, 5, 3, 2), 1, 2), ((2,) * 9, 4, 5),
])
def test_product_plan_ranks_are_rows_of_each_sides_colex_list(levels, k1, t):
    """Each t-subset T of the product's columns, in colex order, has per
    side the rank of its part in that side's colex list of its size."""
    from oaforge.arrays import _product_plan

    subsets, prods, parts = _product_plan(levels, k1, t)
    assert list(map(tuple, subsets.tolist())) == list(colex_combinations(len(levels), t))
    assert prods.tolist() == [prod(levels[c] for c in sub) for sub in subsets.tolist()]
    (left, rank_a, size_a), (right, rank_b, size_b) = parts
    assert (left, right) == (levels[:k1], levels[k1:])
    for i, sub in enumerate(subsets.tolist()):
        a, b = [c for c in sub if c < k1], [c - k1 for c in sub if c >= k1]
        assert (size_a[i], size_b[i]) == (len(a), len(b))
        assert rank_a[i] == list(colex_combinations(k1, len(a))).index(tuple(a))
        assert rank_b[i] == list(colex_combinations(len(right), len(b))).index(tuple(b))


def test_budget_exceeded():
    a, _ = load_fixture("oa44_2e16_11e1")
    with pytest.raises(BudgetExceededError):
        verify_strength(a, 2, budget=10)
    with pytest.raises(BudgetExceededError):
        brute_force_strength(a, 2, budget=10)


def test_oracle_agrees_on_small_cases():
    for a, t in ((full_factorial(LevelProfile([3, 3])), 2), (parity_code(), 2)):
        fast = verify_strength(a, t)
        slow = brute_force_strength(a, t)
        assert fast.ok == slow.ok
        assert set(fast.lambda_by_subset) == set(slow.lambda_by_subset)


def test_oracle_agrees_on_permuted_fixture_variants():
    a, _ = load_fixture("oa48_3e1_2e9")
    rng = np.random.RandomState(20240801)
    for _ in range(20):
        order = rng.permutation(a.k)
        variant = project_columns(a, order)
        fast = verify_strength(variant, 3)
        slow = brute_force_strength(variant, 3)
        assert fast.ok and slow.ok
    # and they agree on a broken variant too
    cells = a.cells.copy()
    cells[0, 4] ^= 1
    broken = SymbolMatrix(a.profile, cells)
    fast = verify_strength(broken, 3)
    slow = brute_force_strength(broken, 3)
    assert not fast.ok and not slow.ok
    assert set(fast.failing_subsets()) == set(slow.failing_subsets())


@st.composite
def small_arrays_with_t(draw):
    k = draw(st.integers(2, 4))
    levels = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    n = draw(st.integers(2, 18))
    cells = np.array(
        [[draw(st.integers(0, levels[j] - 1)) for j in range(k)]
         for _ in range(n)], dtype=int)
    t = draw(st.integers(1, k))
    return SymbolMatrix(LevelProfile(levels), cells), t


@settings(max_examples=60, deadline=None)
@given(small_arrays_with_t())
def test_kernel_matches_oracle_on_arbitrary_arrays(case):
    # differential check on mostly-unbalanced random matrices: verdict and
    # the set of failing subsets must coincide exactly
    a, t = case
    fast = verify_strength(a, t)
    slow = brute_force_strength(a, t)
    assert fast.ok == slow.ok
    assert set(fast.failing_subsets()) == set(slow.failing_subsets())
    assert fast.lambda_by_subset == slow.lambda_by_subset


def test_fail_fast_stops_early():
    cells = np.zeros((4, 3), dtype=int)
    a = SymbolMatrix(LevelProfile([2, 2, 2]), cells)
    full = verify_strength(a, 2)
    first = verify_strength(a, 2, fail_fast=True)
    assert len(first.failing_subsets()) == 1
    assert len(full.failing_subsets()) == 3


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_level_permutation_invariance(data):
    a, _ = load_fixture("oa54_3e5_2e1")
    perms = []
    for s in a.profile.levels:
        perms.append(data.draw(st.permutations(range(s))))
    cells = a.cells.copy()
    for j, perm in enumerate(perms):
        cells[:, j] = np.asarray(perm)[cells[:, j]]
    assert verify_strength(SymbolMatrix(a.profile, cells), 3).ok


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_column_deletion_monotonicity(data):
    a, _ = load_fixture("oa48_3e1_2e9")
    size = data.draw(st.integers(min_value=3, max_value=a.k))
    subset = data.draw(
        st.lists(st.integers(0, a.k - 1), min_size=size, max_size=size,
                 unique=True))
    assert verify_strength(project_columns(a, subset), 3).ok


def even_odd_partition():
    even = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0]
    odd = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 1]
    profile = LevelProfile([2, 2, 2])
    return LargeSet(
        profile,
        [SymbolMatrix(profile, np.array(even), t=2),
         SymbolMatrix(profile, np.array(odd), t=2)],
        t=2,
    )


def test_verify_large_set_passes_partition():
    # independent oracle: the two parity classes partition all 8 triples
    union = set()
    ls = even_odd_partition()
    for member in ls.members:
        union.update(map(tuple, member.cells.tolist()))
    assert len(union) == 8
    report = verify_large_set(ls, 2)
    assert report.ok and report.m == 2


def test_verify_large_set_single_full_factorial():
    ff = full_factorial(LevelProfile([2, 2, 2]))
    report = verify_large_set(LargeSet(ff.profile, [ff], t=3), 3)
    assert report.ok and report.m == 1


def test_verify_large_set_refuses_out_of_range_strength():
    ls = even_odd_partition()
    assert verify_large_set(ls, 3).ok is False  # in range, and honestly refused
    for t in (4, 99, -1):
        with pytest.raises(ConstraintError, match="out of range"):
            verify_large_set(ls, t)


def test_verify_large_set_detects_union_repeat():
    even = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0]
    profile = LevelProfile([2, 2, 2])
    member = SymbolMatrix(profile, np.array(even), t=2)
    report = verify_large_set(LargeSet(profile, [member, member], t=2), 2)
    assert not report.ok
    assert not report.disjoint_ok
    assert report.collision is not None


def test_verify_large_set_detects_count_mismatch():
    profile = LevelProfile([2, 2, 2])
    even = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0]
    report = verify_large_set(
        LargeSet(profile, [SymbolMatrix(profile, np.array(even), t=2)], t=2), 2)
    assert not report.ok and not report.count_ok


def test_verify_large_set_detects_member_defect():
    profile = LevelProfile([2, 2])
    bad = SymbolMatrix(profile, [[0, 0], [0, 1]])
    good = SymbolMatrix(profile, [[1, 0], [1, 1]])
    report = verify_large_set(LargeSet(profile, [bad, good]), 1)
    assert not report.ok
    assert (0, "strength") in report.member_problems


def test_large_set_hashed_union_path(monkeypatch):
    # force the hashed row-set branch and confirm both verdicts match the
    # occupancy-bitmap branch
    import oaforge.arrays as arrays_mod

    good = even_odd_partition()
    even = good.members[0]
    bad = LargeSet(good.profile, [even, even], t=2)
    bitmap_good = verify_large_set(good, 2)
    bitmap_bad = verify_large_set(bad, 2)
    monkeypatch.setattr(arrays_mod, "OCCUPANCY_LIMIT", 1)
    hashed_good = verify_large_set(good, 2)
    hashed_bad = verify_large_set(bad, 2)
    assert bitmap_good.ok and hashed_good.ok
    assert not bitmap_bad.disjoint_ok and not hashed_bad.disjoint_ok
    assert hashed_bad.collision is not None


def test_large_set_profile_mismatch_raises():
    with pytest.raises(ValueError):
        LargeSet(
            LevelProfile([2, 2]),
            [SymbolMatrix(LevelProfile([2, 2]), [[0, 0]]),
             SymbolMatrix(LevelProfile([2, 3]), [[0, 0]])],
        )



def _chunking_array(name: str, mutant: bool) -> SymbolMatrix:
    from oaforge.algebraic import linear_oa, projective_columns

    if name == "projective q=3 n=3":
        a = linear_oa(projective_columns(3, 3), 7)[0]
    else:
        a = load_fixture(name)[0]
    if mutant:
        cells = a.cells.copy()
        cells[5, 1] = (cells[5, 1] + 1) % a.profile.levels[1]
        a = SymbolMatrix(a.profile, cells)
    return a


@pytest.mark.parametrize("name, t, mutant, fails", [
    ("oa54_3e5_2e1", 3, False, False),
    ("oa54_3e5_2e1", 3, True, True),
    ("oa48_4e1_3e1_2e4", 2, False, False),
    ("oa48_4e1_3e1_2e4", 2, True, True),
    ("projective q=3 n=3", 2, False, False),
    ("projective q=3 n=3", 2, True, True),
    ("oa24_2e13_3e1_4e1", 3, False, True),  # non-integer indices and imbalance
])
def test_kernel_reports_do_not_depend_on_chunking(monkeypatch, name, t, mutant, fails):
    import oaforge.arrays as arrays_mod

    a = _chunking_array(name, mutant)
    oracle = brute_force_strength(a, t)
    expected = sorted(oracle.failures, key=lambda f: f.columns[::-1])  # colex, stable
    assert bool(expected) == fails
    first = [f for f in expected if f.columns == expected[0].columns] if fails else []
    for target in (1, 1 << 24):
        monkeypatch.setattr(arrays_mod, "CHUNK_TARGET_CELLS", target)
        for fail_fast, want in ((False, expected), (True, first)):
            report = verify_strength(a, t, fail_fast=fail_fast)
            assert report.failures == want
            assert report.checked_subsets == oracle.checked_subsets
            assert report.lambda_by_subset == oracle.lambda_by_subset


@pytest.mark.parametrize("mutant", [False, True])
@pytest.mark.parametrize("name, t, rows", [
    ("oa54_3e5_2e1", 2, 54),
    ("oa48_4e1_3e1_2e4", 2, 48),
    ("oa48_4e1_3e1_2e4", 2, 36),  # 4 x 2 pairs have no integer index
    ("oa24_2e13_3e1_4e1", 2, 24),
    ("projective q=3 n=3", 2, 27),
])
def test_block_reports_match_the_oracle(monkeypatch, name, t, rows, mutant):
    """Fixture arrays, or their first rows, with blocks forced (tables of up
    to N, N / 2 or N / 4 cells): overlapping blocks on up to 15 columns,
    next to subsets without an integer index, give the oracle's failures in
    colex order, and the oracle's verdict to both members of a stack."""
    import oaforge.arrays as arrays_mod

    a = _chunking_array(name, mutant)
    a = SymbolMatrix(a.profile, a.cells[:rows])
    expected = sorted(brute_force_strength(a, t).failures, key=lambda f: f.columns[::-1])
    first = [f for f in expected if f.columns == expected[0].columns] if expected else []
    monkeypatch.setattr(arrays_mod, "BLOCK_MIN_ROWS", 1)
    try:
        for rows_per_cell in (1, 2, 4):
            monkeypatch.setattr(arrays_mod, "BLOCK_ROWS_PER_CELL", rows_per_cell)
            arrays_mod._strength_plan.cache_clear()
            assert verify_strength(a, t).failures == expected
            assert verify_strength(a, t, fail_fast=True).failures == first
            # a second member, the rows reversed, is counted with the first
            ls = LargeSet(a.profile, [a, SymbolMatrix(a.profile, a.cells[::-1])], t)
            weak = [p for p in verify_large_set(ls, t).member_problems if p[1] == "strength"]
            assert weak == ([(0, "strength"), (1, "strength")] if expected else [])
    finally:
        arrays_mod._strength_plan.cache_clear()


def _drawn_cells(data, profile: LevelProfile, kind: str, n: int) -> np.ndarray:
    """Rows of one of three kinds, then maybe one mutation: whole copies of
    the full factorial (strength k), the same with one column made random
    (subsets without it pass), or n random rows (most subsets fail, many
    without an integer index)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = np.asarray(profile.levels)
    if kind == "random":
        cells = rng.integers(0, levels, size=(n, profile.k))
    else:
        ff = full_factorial(profile).cells
        cells = rng.permutation(np.tile(ff, (n // len(ff), 1)))
        if kind == "one-random-column":
            j = data.draw(st.integers(0, profile.k - 1), label="random column")
            cells[:, j] = rng.integers(0, levels[j], size=len(cells))
    mutation = data.draw(st.sampled_from(["none", "cell", "dup_row"]), label="mutation")
    row, other = rng.integers(0, len(cells), size=2)
    if mutation == "cell":
        j = rng.integers(0, profile.k)
        cells[row, j] = (cells[row, j] + 1) % levels[j]
    elif mutation == "dup_row":
        cells[row] = cells[other]
    return cells


def _colex_oracle(a: SymbolMatrix, t: int) -> list:
    """brute_force_strength's failures in colex subset order (stable)."""
    return sorted(brute_force_strength(a, t).failures, key=lambda f: f.columns[::-1])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_oracle(data):
    """The walk against the naive oracle on small mixed-level arrays: the
    failure list in colex order, the first fail-fast failure, and the
    member problems and first bad report of a stacked set.
    CHUNK_TARGET_CELLS is a few rows' worth, so that subsets are counted one
    at a time or in small batches and members in small chunks, or so large
    that everything is one batch."""
    _check_the_kernel_against_the_oracle(data, {})


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_kernel_matches_the_oracle(data):
    """The same with blocks forced onto the small arrays: block tables of up
    to N, N / 2 or N / 4 cells, so each t-subset is read off a wider block's
    table as a marginal, next to subsets without an integer index."""
    import oaforge.arrays as arrays_mod

    rows_per_cell = data.draw(st.sampled_from([1, 2, 4]), label="rows per cell")
    arrays_mod._strength_plan.cache_clear()
    try:
        _check_the_kernel_against_the_oracle(
            data, {"BLOCK_ROWS_PER_CELL": rows_per_cell, "BLOCK_MIN_ROWS": 1})
    finally:
        arrays_mod._strength_plan.cache_clear()


@settings(max_examples=150, deadline=None)
@given(levels=st.lists(st.integers(2, 6), min_size=1, max_size=9), data=st.data())
def test_block_plan_assigns_each_counted_subset_to_one_block(levels, data):
    """Every t-subset with an integer index is assigned to exactly one block
    holding it, the others to none; blocks are as wide as the bound lets
    them be, and s = t whenever no (t + 1)-block fits it."""
    from math import comb, prod

    import oaforge.arrays as arrays_mod

    t = data.draw(st.integers(1, len(levels)), label="t")
    n = prod(data.draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=6, max_size=18),
                        label="N"))
    plan = arrays_mod._strength_plan.__wrapped__(tuple(levels), t, n)
    counted = [i for i, sub in enumerate(plan.subsets)
               if n % prod(levels[c] for c in sub) == 0]
    assert sorted(plan.counted.tolist()) == counted
    assert sorted(plan.uncounted + counted) == list(range(comb(len(levels), t)))
    assert plan.t == t and plan.bounds[-1] == len(counted)
    top = sorted(levels, reverse=True)

    def fits(width):
        return width <= len(levels) and n >= max(
            arrays_mod.BLOCK_MIN_ROWS, arrays_mod.BLOCK_ROWS_PER_CELL * prod(top[:width]))

    s = plan.down.shape[1]
    assert (s == t and plan.axes is None) if not fits(t + 1) else (fits(s) and not fits(s + 1))
    for leaf, block in enumerate(plan.down.tolist()):
        assert block == sorted(set(block), reverse=True) and len(block) == s
        assert plan.bounds[leaf] < plan.bounds[leaf + 1]
        for i in plan.counted[plan.bounds[leaf]:plan.bounds[leaf + 1]]:
            assert set(plan.subsets[i]) <= set(block)
    assert plan.down.tolist() == sorted(plan.down.tolist())  # colex order


def test_a_large_index_theorem_output_is_counted_by_blocks(monkeypatch):
    """The 65,536 x 12, t = 4 output of v1+v3-2 at v=4, k=7 is counted with
    at most 60 bincounts, not one per 4-subset (495)."""
    from oaforge import compose

    a = compose.execute_plan(compose.plan_theorem("v1+v3-2", compose.parse_params("v=4,k=7")))
    assert (a.n, a.k, a.t) == (65536, 12, 4)
    calls, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *args, **kw: calls.append(1) or bincount(*args, **kw))
    assert verify_strength(a, 4).ok
    assert 0 < len(calls) <= 60


def test_a_small_index_linear_array_gets_one_table_per_subset():
    """q4t3 at q = 9 (6,561 x 10, t = 3, index 9) has no (t + 1)-block small
    enough, so each 3-subset keeps its own table."""
    from math import comb

    from oaforge import algebraic
    from oaforge.arrays import _strength_plan

    a, _ = algebraic.linear_oa(algebraic.q4_matrix(9), 10)
    plan = _strength_plan(a.profile.levels, 3, a.n)
    assert a.n == 6561 and plan.axes is None
    assert plan.down.shape == (comb(10, 3), 3) and len(plan.counted) == comb(10, 3)


def test_a_block_plan_builds_fast():
    """A cold plan for 4^12 at t = 4 and N = 65,536, cover included, takes
    well under a one-shot CLI run's count."""
    import time

    from oaforge.arrays import _strength_plan

    def cold():
        start = time.perf_counter()
        plan = _strength_plan.__wrapped__((4,) * 12, 4, 65536)
        return time.perf_counter() - start, plan

    took, plan = min((cold() for _ in range(3)), key=lambda run: run[0])
    assert plan.axes is not None and took < 0.05


def test_a_cold_count_of_many_pairs_costs_little_more_than_a_warm_one():
    """The 32,385 pairs of the 256 x 255 Sylvester array: with both plan
    caches cleared, as in a one-shot CLI run, the count takes at most twice
    its warm time, best of 3 each."""
    import time

    import oaforge.arrays as arrays_mod
    from oaforge.algebraic import sylvester_oa2

    a, _ = sylvester_oa2(8, 255)

    def timed(cold):
        if cold:
            arrays_mod._strength_plan.cache_clear()
            arrays_mod._product_plan.cache_clear()
        start = time.perf_counter()
        assert verify_strength(a, 2).ok
        return time.perf_counter() - start

    timed(False)
    warm = min(timed(False) for _ in range(3))
    assert min(timed(True) for _ in range(3)) <= 2 * warm


def _check_the_kernel_against_the_oracle(data, constants):
    from unittest import mock

    import oaforge.arrays as arrays_mod

    levels = data.draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=5),
                       label="levels")
    profile = LevelProfile(levels)
    t = data.draw(st.integers(1, profile.k), label="t")
    kind = data.draw(st.sampled_from(["factorial", "one-random-column", "random"]),
                     label="kind")
    if kind == "random":
        n = data.draw(st.integers(1, 48), label="n")
    else:
        n = profile.universe_size * data.draw(st.integers(1, 2), label="copies")
    members = [SymbolMatrix(profile, _drawn_cells(data, profile, kind, n), t)
               for _ in range(data.draw(st.integers(1, 4), label="members"))]
    target = max(1, n * data.draw(st.integers(0, 12)) + data.draw(st.integers(-1, 1)))
    target = data.draw(st.sampled_from([target, 1 << 16]), label="chunk target")
    with mock.patch.multiple(arrays_mod, CHUNK_TARGET_CELLS=target, **constants):
        a = members[0]
        want = _colex_oracle(a, t)
        assert verify_strength(a, t).failures == want
        first = [f for f in want if f.columns == want[0].columns] if want else []
        assert verify_strength(a, t, fail_fast=True).failures == first
        got = verify_large_set(LargeSet(profile, members, t), t)
    oracle = [_colex_oracle(m, t) for m in members]
    problems = []
    for idx, m in enumerate(members):
        if oracle[idx]:
            problems.append((idx, "strength"))
        if len({tuple(r) for r in m.cells.tolist()}) < n:
            problems.append((idx, "simple"))
    assert got.member_problems == problems
    weak = [failures for failures in oracle if failures]
    if weak:
        assert got.first_bad_report.failures == weak[0]
    else:
        assert got.first_bad_report is None


def test_non_integer_index_subsets_get_no_count_table():
    """9 rows over 300 levels: no pair's 90000 tuples divide N, so every pair
    fails without a count, in verify_strength and in the large-set count,
    and no 300^2 table is allocated."""
    import tracemalloc

    rng = np.random.default_rng(9)
    profile = LevelProfile([300] * 5)
    members = [SymbolMatrix(profile, rng.integers(0, 300, size=(9, 5)), t=2)
               for _ in range(2)]
    a, ls = members[0], LargeSet(profile, members, t=2)
    oracle = brute_force_strength(a, 2)
    want = sorted(oracle.failures, key=lambda f: f.columns[::-1])
    tracemalloc.start()
    try:
        report = verify_strength(a, 2)
        large = verify_large_set(ls, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.failures == want and len(want) == 10
    assert all(f.kind == "non-integer-index" for f in want)
    assert large.member_problems == [(0, "strength"), (1, "strength")]
    assert large.first_bad_report.failures == want


def _product_blocks(data, h: int, side: str) -> tuple[LevelProfile, np.ndarray]:
    """h blocks of one side of a row product, on 1 to 3 columns of 2 to 5
    levels: each a full factorial in a shuffled row order (every table of
    the block uniform) or random rows (most tables off, many without an
    integer index), then maybe one mutated cell or row; or the h blocks
    split h copies of a full factorial in a shuffled row order (every table
    of their union uniform, few of a block's); or every block is block 0
    (of either of the first two kinds) with each column's symbols permuted,
    which the relabelling certificate spares from the per-block count, then
    maybe one changed cell in any block."""
    profile = LevelProfile(data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3),
                                     label=f"{side} levels"))
    kind = data.draw(st.sampled_from(["factorial", "random", "split", "relabelled"]),
                     label=f"{side} kind")
    small = profile.universe_size <= 12
    if not small and kind != "relabelled":
        kind = "random"
    n = profile.universe_size if small and kind != "random" \
        else data.draw(st.integers(1, 12), label=f"{side} rows")
    if kind == "split":
        return profile, _drawn_cells(data, profile, "factorial", h * n).reshape(h, n, -1)
    if kind != "relabelled":
        return profile, np.stack([_drawn_cells(data, profile, kind, n) for _ in range(h)])
    base = _drawn_cells(data, profile, "factorial" if small else "random", n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=f"{side} relabelling"))
    # block i's symbols shifted by i, so that the union of s blocks is
    # uniform on a column of s levels whatever block 0 is, or permuted at random
    shifted = data.draw(st.booleans(), label=f"{side} shifted")
    blocks = np.stack([base] + [
        np.column_stack([((np.arange(s) + i) % s if shifted else rng.permutation(s))[base[:, c]]
                         for c, s in enumerate(profile.levels)])
        for i in range(1, h)])
    if data.draw(st.booleans(), label=f"{side} changed cell"):
        at = tuple(data.draw(st.integers(0, size - 1), label=f"{side} cell")
                   for size in blocks.shape)
        blocks[at] = (blocks[at] + 1) % profile.levels[at[2]]
    return profile, blocks


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_count_matches_verify_strength(data):
    """_product_strength against verify_strength on random row-product
    stacks, with the block-mode rule patched to always apply: h blocks of P
    and of Q with and without strength, so that a t-subset is settled by
    each[A], by each[B] or counted on the array, next to subsets without an
    integer index; blocks certified as block 0 relabelled and blocks
    counted beside them; and maybe one changed cell, which the comparison
    with the row products must catch.  The failures, subsets and index map are verify_strength's at
    every t, and the verdict is the oracle's."""
    from unittest import mock

    import oaforge.arrays as arrays_mod

    h = data.draw(st.integers(1, 4), label="h")
    (left, p), (right, q) = _product_blocks(data, h, "P"), _product_blocks(data, h, "Q")
    (n1, k1), n2 = p.shape[1:], q.shape[1]
    cells = np.empty((h, n1, n2, left.k + right.k), dtype=np.int32)
    cells[..., :k1], cells[..., k1:] = p[:, :, None], q[:, None]
    profile = LevelProfile(left.levels + right.levels)
    cells = cells.reshape(-1, profile.k)
    if data.draw(st.booleans(), label="changed cell"):
        row = data.draw(st.integers(0, len(cells) - 1), label="row")
        col = data.draw(st.integers(0, profile.k - 1), label="column")
        cells[row, col] = (cells[row, col] + 1) % profile.levels[col]
    a = SymbolMatrix(profile, cells)
    with mock.patch.object(arrays_mod, "_by_factors", lambda levels, t, n: True):
        for t in range(1, profile.k + 1):
            got, want = arrays_mod._product_strength(a, h, n1, k1, t), verify_strength(a, t)
            assert got.failures == want.failures
            assert got.checked_subsets == want.checked_subsets
            assert got.lambda_by_subset == want.lambda_by_subset
            assert got.ok == brute_force_strength(a, t).ok


def test_a_certified_block_is_not_counted_alone_but_stays_in_the_union(counts):
    """P's three blocks are equal, so the certificate spares blocks 1 and 2
    from P's per-block count.  Q's blocks are [0, 0, 0, 1], [0, 1, 1, 1]
    and block 0 again, which is certified too, yet Q's union must hold it:
    blocks 0 and 1 alone are balanced, all three are not, so the product
    fails at strength 2, as a direct count says."""
    from unittest import mock

    import oaforge.arrays as arrays_mod

    p = np.tile([[0], [1]], (3, 1, 1))
    q = np.array([[0, 0, 0, 1], [0, 1, 1, 1], [0, 0, 0, 1]])[..., None]
    cells = np.concatenate([np.repeat(p, 4, axis=1), np.tile(q, (1, 2, 1))], axis=2)
    a = SymbolMatrix(LevelProfile([2, 2]), cells.reshape(-1, 2))
    with mock.patch.object(arrays_mod, "_by_factors", lambda levels, t, n: True):
        got = arrays_mod._product_strength(a, 3, 2, 1, 2)
    assert counts == [(1, 2, 1, 1), (1, 12, 1, 1)]  # P's block 0, Q's union of 3 x 4 rows
    assert got.failures == verify_strength(a, 2).failures and not got.ok
    assert not brute_force_strength(a, 2).ok


@pytest.mark.parametrize("levels", [(2, 3, 2, 3), (300, 2, 2, 3)], ids=["uint8", "int32"])
@pytest.mark.parametrize("block", ["first", "last"])
@pytest.mark.parametrize("column", [0, 3], ids=["P", "Q"])
def test_a_changed_cell_in_the_last_chunk_of_blocks_fails_the_certificate(
        monkeypatch, levels, block, column):
    """40 blocks of 16 x 32 row products on 2 + 2 columns span two chunks of
    32 blocks.  One cell at i > 0 and j > 0 of the first or last block of
    the last, shorter chunk, in a P or a Q column, is changed: the product,
    counted through its factors before, is then counted by verify_strength,
    whose report it returns."""
    import oaforge.arrays as arrays_mod

    h, n1, n2, k1 = 40, 16, 32, 2
    profile = LevelProfile(levels)
    per = arrays_mod.CHUNK_TARGET_CELLS // (n1 * n2 * profile.k)
    assert per < h < 2 * per
    rng = np.random.default_rng(7)
    p = rng.integers(0, levels[:k1], size=(h, n1, k1))
    q = rng.integers(0, levels[k1:], size=(h, n2, profile.k - k1))
    cells = np.concatenate([np.repeat(p, n2, axis=1).reshape(h, n1, n2, k1),
                            np.tile(q, (1, n1, 1)).reshape(h, n1, n2, -1)], axis=3)
    monkeypatch.setattr(arrays_mod, "_by_factors", lambda levels, t, n: True)
    counted = []

    def spy(a, t, **kwargs):
        counted.append(a)
        return verify_strength(a, t, **kwargs)

    monkeypatch.setattr(arrays_mod, "verify_strength", spy)
    arrays_mod._product_strength(SymbolMatrix(profile, cells.reshape(-1, profile.k)), h, n1, k1, 2)
    assert counted == []  # unchanged, it is counted through its factors
    s = per if block == "first" else h - 1
    cells[s, 5, 7, column] = (cells[s, 5, 7, column] + 1) % levels[column]
    a = SymbolMatrix(profile, cells.reshape(-1, profile.k))
    assert a.cells.dtype == profile.dtype
    got = arrays_mod._product_strength(a, h, n1, k1, 2)
    want = verify_strength(a, 2)
    assert len(counted) == 1 and counted[0] is a
    assert got.failures == want.failures and got.checked_subsets == want.checked_subsets
    assert got.lambda_by_subset == want.lambda_by_subset
