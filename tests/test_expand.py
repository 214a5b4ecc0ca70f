"""Resolvable projections and the shift expansion."""

from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaforge import arrays, work
from oaforge.arrays import (
    LevelProfile,
    SymbolMatrix,
    full_factorial,
    project_columns,
    verify_large_set,
    verify_strength,
)
from oaforge.errors import VerificationError
from oaforge.expand import (
    ResolvableProjection,
    check_resolvable_projection,
    expand_shift,
    find_resolvable_projection,
)
from oaforge.fixtures import load_fixture


def parity_code():
    rows = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0]
    return SymbolMatrix(LevelProfile([2, 2, 2]), np.array(rows), t=2)


def test_check_resolvable_examples():
    a = parity_code()
    ok, _ = check_resolvable_projection(a, (0, 1))
    assert ok
    ok, why = check_resolvable_projection(a, (0,))
    assert not ok and "level product" in why
    fx, marked = load_fixture("oa20_2e8_5e1")
    ok, _ = check_resolvable_projection(fx, marked)
    assert ok and marked == (0, 1, 8)


def test_check_resolvable_duplicate_tuple():
    cells = [[0, 1], [0, 1], [1, 0], [1, 1]]
    a = SymbolMatrix(LevelProfile([2, 2]), cells)
    ok, why = check_resolvable_projection(a, (0, 1))
    assert not ok and why == "tuple (0, 1) occurs more than once on columns (0, 1)"


def lexsort_resolvable_projection(a, columns):
    """The first check_resolvable_projection: sort the projected rows and
    compare neighbours, kept as the reference."""
    columns = tuple(columns)
    level_product = prod(a.profile.levels[c] for c in columns)
    if level_product != a.n:
        return False, f"level product {level_product} != N={a.n}"
    sub = a.cells[:, columns]
    srt = sub[np.lexsort(sub.T[::-1])]
    dup = np.nonzero((srt[1:] == srt[:-1]).all(axis=1))[0]
    if dup.size:
        tup = tuple(int(x) for x in srt[dup[0]])
        return False, f"tuple {tup} occurs more than once on columns {columns}"
    return True, None


@st.composite
def projected_arrays(draw):
    """An array and 1..k distinct columns in any order: the projected rows
    are every tuple once, maybe with some rows overwritten by copies of
    others, or the row count misses the level product."""
    levels = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    columns = draw(st.permutations(range(len(levels))))
    columns = columns[:draw(st.integers(1, len(columns)))]
    n = prod(levels[c] for c in columns)
    if draw(st.booleans()):
        n = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.stack([rng.integers(0, v, n) for v in levels], axis=1)
    tuples = np.array(list(np.ndindex(*(levels[c] for c in columns))))
    if len(tuples) == n:
        cells[:, columns] = tuples[rng.permutation(n)]
        for _ in range(draw(st.integers(0, 3))):
            cells[rng.integers(n)] = cells[rng.integers(n)]
    return SymbolMatrix(LevelProfile(levels), cells), columns


@pytest.mark.parametrize("chunk", [arrays.CHUNK_TARGET_CELLS, 6])
@settings(max_examples=300, deadline=None)
@given(projected_arrays())
def test_resolvable_check_by_row_codes_matches_the_lexsort_reference(chunk, drawn):
    """At a chunk of 6 cells the occupancy pass marks one to six rows at a
    time, so repeats fall in one chunk and across two."""
    a, columns = drawn
    with mock.patch.object(arrays, "CHUNK_TARGET_CELLS", chunk):
        got = check_resolvable_projection(a, columns)
    assert got == lexsort_resolvable_projection(a, columns)


def test_find_resolvable_projection():
    ff = full_factorial(LevelProfile([2, 2, 2]))
    assert find_resolvable_projection(ff).columns == (0, 1, 2)
    constant = SymbolMatrix(LevelProfile([2, 2]), np.zeros((2, 2), dtype=int))
    assert find_resolvable_projection(constant) is None


def test_one_row_array_projects_onto_no_columns():
    # the one row maps bijectively to the empty tuple, and the expansion is
    # the full factorial in one-row members
    one_row = SymbolMatrix(LevelProfile([2, 3]), [[0, 1]])
    assert find_resolvable_projection(one_row) == ResolvableProjection((), 1)
    ls = expand_shift(one_row, ResolvableProjection((), 1))
    assert ls.m == 6 and verify_large_set(ls, 0).ok


def test_find_resolvable_on_sylvester_array():
    from oaforge.algebraic import sylvester_oa2

    a, proj = sylvester_oa2(3, 7)
    assert proj.columns == (0, 1, 2)  # the weight-one labels, rotated first
    found = find_resolvable_projection(a)
    ok, _ = check_resolvable_projection(a, found.columns)
    assert ok


def test_expand_shift_parity_classes():
    # independent enumeration: the two translates must be the even and odd
    # weight classes of all 8 binary triples
    a = parity_code()
    ls = expand_shift(a, ResolvableProjection((0, 1), 4))
    assert ls.m == 2
    classes = [
        {r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0},
        {r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 1},
    ]
    got = [set(map(tuple, m.cells.tolist())) for m in ls.members]
    assert got == classes
    assert verify_large_set(ls, 2).ok


def test_expand_shift_member_zero_is_seed():
    a, marked = load_fixture("oa40_5e1_2e6")
    ls = expand_shift(a, ResolvableProjection(marked, a.n))
    assert ls.m == 8
    assert np.array_equal(ls.members[0].cells, a.cells)
    assert verify_large_set(ls, 3).ok


def test_expand_shift_rejects_bad_projection():
    a = parity_code()
    with pytest.raises(VerificationError):
        expand_shift(a, ResolvableProjection((0,), 2))


def reference_expand_shift(a, columns) -> np.ndarray:
    """The (M, N, k) members of the shift expansion, built member by member:
    member i's column j is (seed[:, j] + digit_j(i)) % s_j, digit_j(i) the
    digit of i in the mixed radix of the complementary columns' levels
    (first most significant) and 0 for a resolvable column."""
    levels = a.profile.levels
    radix = [1 if j in columns else s for j, s in enumerate(levels)]
    members = []
    for i in range(prod(radix)):
        member = a.cells.astype(np.int64)
        for j, s in enumerate(levels):
            digit = i // prod(radix[j + 1:]) % radix[j]
            member[:, j] = (member[:, j] + digit) % s
        members.append(member)
    return np.array(members)


SHIFT_SEEDS = {
    # mixed levels, 64 members of 20 rows, resolvable columns (0, 1, 8)
    "oa20": lambda: load_fixture("oa20_2e8_5e1"),
    # mixed levels, 9 members, the complementary columns between resolvable ones
    "oa54": lambda: load_fixture("oa54_3e5_2e1"),
    # every column resolvable: one member, the seed
    "empty complement": lambda: (full_factorial(LevelProfile([3, 2])).with_t(2), (1, 0)),
    # N = 1: no resolvable column, and 30 one-row members, one per tuple
    "one row": lambda: (SymbolMatrix(LevelProfile([2, 3, 5]), [[1, 2, 4]], t=0), ()),
}


@pytest.mark.parametrize("chunk", ["default", "one cell", "a few rows", "seven members"])
@pytest.mark.parametrize("name", sorted(SHIFT_SEEDS))
def test_expand_shift_matches_the_member_by_member_reference(monkeypatch, name, chunk):
    """The members built a chunk at a time equal the naive ones, whether a
    chunk is one member, several, or the whole set; seven members a chunk
    leaves a short last chunk in every seed with more than one member."""
    import oaforge.arrays as arrays_mod

    a, columns = SHIFT_SEEDS[name]()
    target = {"default": arrays_mod.CHUNK_TARGET_CELLS, "one cell": 1,
              "a few rows": 3 * a.k, "seven members": 7 * a.n * a.k}[chunk]
    monkeypatch.setattr(arrays_mod, "CHUNK_TARGET_CELLS", target)
    ls = expand_shift(a, ResolvableProjection(columns, a.n))
    want = reference_expand_shift(a, columns)
    assert ls.cells.shape == want.shape and np.array_equal(ls.cells, want)
    assert ls.cells.dtype == a.profile.dtype and ls.cells.flags.c_contiguous
    assert not ls.cells.flags.writeable
    assert ls.member_t == (a.t,) * ls.m and ls.t == a.t
    assert ls.m * ls.n == a.profile.universe_size and verify_large_set(ls, a.t).ok


def test_expand_then_project_commutes_with_project_then_expand():
    a, marked = load_fixture("oa48_3e1_2e9")
    keep = list(marked) + [3, 4]
    direct = expand_shift(project_columns(a, keep),
                          ResolvableProjection(tuple(range(len(marked))), a.n))
    expanded = expand_shift(a, ResolvableProjection(marked, a.n))
    projected = [project_columns(m, keep) for m in expanded.members]
    direct_rows = {frozenset(map(tuple, m.cells.tolist())) for m in direct.members}
    proj_rows = {frozenset(map(tuple, m.cells.tolist())) for m in projected}
    assert direct_rows == proj_rows


def test_expand_full_strength_full_factorial():
    """An array of index 1 (strength t = log_v N) projects bijectively onto
    any t columns; the search takes the first t."""
    ff = full_factorial(LevelProfile([3, 3]))
    proj = find_resolvable_projection(ff)
    assert proj == ResolvableProjection((0, 1), 9)
    assert expand_shift(ff, proj).m == 1


def test_expand_full_strength_linear_oa():
    from oaforge.algebraic import linear_oa, projective_columns

    a, _ = linear_oa(projective_columns(3, 2), 4)
    proj = find_resolvable_projection(a)
    assert proj.columns == (0, 1)
    ls = expand_shift(a, proj)
    assert ls.m == 9
    # independent partition check over all 81 quadruples
    union = set()
    for member in ls.members:
        rows = set(map(tuple, member.cells.tolist()))
        assert len(rows) == 9
        union |= rows
    assert len(union) == 81
    assert verify_large_set(ls, 2).ok


def test_expand_full_strength_rejects_higher_index():
    # N = 4 = 2^2 on two binary columns, but the row (0, 1) repeats
    a = SymbolMatrix(LevelProfile([2, 2]), [[0, 0], [0, 1], [1, 0], [0, 1]])
    # doubled full factorial: no columns have level product N = 8
    doubled = SymbolMatrix(
        LevelProfile([2, 2]),
        np.vstack([full_factorial(LevelProfile([2, 2])).cells] * 2),
    )
    for b in (a, doubled):
        assert find_resolvable_projection(b) is None
        with pytest.raises(VerificationError):
            expand_shift(b, ResolvableProjection((0, 1), b.n))


def test_projection_search_budget(monkeypatch):
    from oaforge.errors import BudgetExceededError

    a, _ = load_fixture("oa44_2e16_11e1")
    monkeypatch.setattr(work, "SUBSET_SEARCH_CAP", 1)
    with pytest.raises(BudgetExceededError):
        find_resolvable_projection(a)


def test_expansion_member_count_and_translation_property():
    a, marked = load_fixture("oa54_3e5_2e1")
    ls = expand_shift(a, ResolvableProjection(marked, a.n))
    assert ls.m == a.profile.universe_size // a.n
    for member in ls.members:
        assert verify_strength(member, 3).ok
