"""Difference matrices, searches, and the 13/29-column developments."""

import numpy as np
import pytest

from oaforge.arrays import SymbolMatrix, verify_strength
from oaforge.diffmatrix import (
    AbelianGroup,
    DifferenceMatrix,
    abelian_groups,
    develop_chai1,
    develop_chai2,
    dm_for,
    dumps_dm,
    field_dm,
    loads_dm,
    product_dm,
    read_dm,
    search_dm,
    verify_dm,
    write_dm,
)
from oaforge.errors import (
    BudgetExceededError,
    DMUnavailableError,
    ParseError,
    VerificationError,
)
from oaforge.expand import expand_shift


@pytest.mark.parametrize("v", range(1, 33))
def test_group_tables_match_the_per_element_definition(v):
    for grp in abelian_groups(v):
        elements = [grp.element(a) for a in range(v)]
        add = [[grp.index([x + y for x, y in zip(ea, eb)]) for eb in elements]
               for ea in elements]
        neg = [grp.index([-x for x in ea]) for ea in elements]
        assert grp.add_table.dtype == grp.neg_table.dtype == np.int32
        assert grp.add_table.tolist() == add and grp.neg_table.tolist() == neg


def test_group_encoding_roundtrip():
    g = AbelianGroup((2, 2, 5))
    assert g.order == 20
    for idx in range(20):
        assert g.index(g.element(idx)) == idx
    assert g.element(0) == (0, 0, 0)
    assert g.add_table[g.index((1, 0, 3)), g.index((1, 1, 4))] == g.index((0, 1, 2))


def test_abelian_groups_enumeration():
    assert [g.factors for g in abelian_groups(4)] == [(4,), (2, 2)]
    assert [g.factors for g in abelian_groups(12)] == [(4, 3), (2, 2, 3)]
    assert [g.factors for g in abelian_groups(5)] == [(5,)]


def test_verify_dm_vacuous_and_failing():
    g = AbelianGroup((3,))
    single = DifferenceMatrix(g, np.zeros((3, 1), dtype=int))
    assert verify_dm(single).ok  # no pairs to check
    zeros = DifferenceMatrix(g, np.zeros((3, 2), dtype=int))
    report = verify_dm(zeros)
    assert not report.ok
    assert report.failures[0].columns == (0, 1)
    assert set(report.failures[0].missing) == {1, 2}
    assert report.failures[0].repeated == (0,)


def test_field_dm_small_orders():
    for q in (4, 5, 7, 8, 9):
        dm = field_dm(q, 4)
        assert verify_dm(dm).ok
        assert dm.v == q and dm.k == 4
    # differences alpha_i (alpha_h - alpha_l) sweep Z5: independent count
    dm = field_dm(5, 4)
    diffs = sorted((dm.entries[i, 3] - dm.entries[i, 1]) % 5 for i in range(5))
    assert diffs == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_field_dm_full_width_all_small_orders(q):
    assert verify_dm(field_dm(q, q)).ok


def test_field_dm_bounds():
    with pytest.raises(ValueError):
        field_dm(3, 4)
    with pytest.raises(ValueError):
        field_dm(6, 2)


def test_product_dm():
    d20 = product_dm(field_dm(4, 4), field_dm(5, 4))
    assert d20.v == 20 and verify_dm(d20).ok
    d35 = product_dm(field_dm(5, 4), field_dm(7, 4))
    assert d35.v == 35 and verify_dm(d35).ok
    with pytest.raises(ValueError):
        product_dm(field_dm(4, 4), field_dm(5, 3))


def test_product_dm_trivial_factor():
    d = field_dm(5, 4)
    trivial = DifferenceMatrix(AbelianGroup(()), np.zeros((1, 4), dtype=int))
    same = product_dm(d, trivial)
    assert same.v == 5 and verify_dm(same).ok
    assert np.array_equal(same.entries, d.entries)


def test_product_preserves_property_on_all_pairs():
    parts = {q: field_dm(q, 4) for q in (4, 5, 7, 8, 9)}
    for q1 in parts:
        for q2 in parts:
            assert verify_dm(product_dm(parts[q1], parts[q2])).ok


def test_search_dm_finds_and_proves():
    assert search_dm(5, 4, budget=10**6) is not None
    assert search_dm(7, 4, budget=10**6) is not None
    assert search_dm(3, 4, budget=10**6) is None  # full exhaustion
    with pytest.raises(BudgetExceededError):
        search_dm(7, 4, budget=3)
    with pytest.raises(ValueError):
        search_dm(100, 4)  # v*k beyond the search cap


def test_search_dm_normalization():
    dm = search_dm(5, 4)
    assert np.all(dm.entries[0] == 0)
    assert np.all(dm.entries[:, 0] == 0)


def test_dm_for():
    assert verify_dm(dm_for(4)).ok
    assert verify_dm(dm_for(5)).ok
    d20 = dm_for(20)
    assert d20.v == 20 and verify_dm(d20).ok
    with pytest.raises(ValueError):
        dm_for(6)
    with pytest.raises(ValueError):
        dm_for(3)


def test_dm_for_search_fallback():
    # 12 = 4 * 3 strands a bare factor 3; within the search cap a group search
    # either finds one or reports unavailability, never emits a wrong matrix
    try:
        dm = dm_for(12, search_budget=10**5)
    except DMUnavailableError as exc:
        assert "dm-file" in str(exc)
        return
    assert dm.v == 12
    assert verify_dm(dm).ok


def test_develop_chai1_v4():
    a, proj = develop_chai1(dm_for(4))
    assert (a.n, a.k) == (64, 13)
    assert proj.columns == (0, 1, 6)
    # builder already verified; re-check the full-factorial projection here
    triples = {tuple(r) for r in a.cells[:, [0, 1, 6]].tolist()}
    assert len(triples) == 64


def test_develop_chai1_v5_and_v7():
    for v in (5, 7):
        a, proj = develop_chai1(dm_for(v))
        assert (a.n, a.k) == (v**3, 13)
        assert verify_strength(a, 2).ok


def test_dm_for_stranded_large_order_unavailable():
    # 51 = 3 * 17 strands a bare 3 and exceeds the search cap
    with pytest.raises(DMUnavailableError, match="dm-file"):
        dm_for(51)


def test_develop_chai1_product_group():
    # v = 20 runs over Z2 x Z2 x Z5; exercises non-cyclic group encodings
    dm = dm_for(20)
    a, proj = develop_chai1(dm)
    assert (a.n, a.k) == (8000, 13)
    assert a.profile.levels == (20,) * 13
    assert proj.columns == (0, 1, 6)


def test_develop_chai1_rejects_bad_dm():
    g = AbelianGroup((4,))
    bad = DifferenceMatrix(g, np.zeros((4, 4), dtype=int))
    with pytest.raises(VerificationError):
        develop_chai1(bad)
    with pytest.raises(ValueError):
        develop_chai1(field_dm(5, 3))  # k != 4


def test_develop_chai2_verdict_is_the_duplicated_pair():
    # the 29-column row formula repeats the d1+u+w term at 1-indexed
    # positions 14 and 18; the self-check must reject exactly that pair
    for v in (4, 5):
        a, proj, report = develop_chai2(dm_for(v))
        assert (a.n, a.k) == (v**4, 29)
        assert proj.columns == (0, 1, 2, 3)
        assert not report.ok
        assert report.failing_subsets() == [(13, 17)]
        assert np.array_equal(a.cells[:, 13], a.cells[:, 17])
        # the first four columns still form the claimed full factorial
        quads = {tuple(r) for r in a.cells[:, :4].tolist()}
        assert len(quads) == v**4


def test_develop_chai2_all_other_pairs_balanced():
    a, _, report = develop_chai2(dm_for(4))
    bad = set(report.failing_subsets())
    for sub, lam in verify_strength(a, 2).lambda_by_subset.items():
        if sub not in bad:
            assert lam == a.n // (4 * 4)


def test_mutation_is_detected_and_localized():
    a, _ = develop_chai1(dm_for(4))
    cells = a.cells.copy()
    cells[0, 0] = (cells[0, 0] + 1) % 4
    mutated = SymbolMatrix(a.profile, cells)
    report = verify_strength(mutated, 2)
    assert not report.ok
    # every failing pair involves the mutated column, and all of them appear
    assert set(report.failing_subsets()) == {(0, j) for j in range(1, 13)}


def test_chai1_expansion_is_a_partition():
    a, proj = develop_chai1(dm_for(4))
    from oaforge.arrays import project_columns, verify_large_set
    keep = [0, 1, 6, 2, 3]
    b = project_columns(a, keep)
    ls = expand_shift(b, type(proj)((0, 1, 2), b.n))
    assert verify_large_set(ls, 2).ok
    assert ls.m == 4**5 // 64


def test_dm_file_roundtrip(tmp_path):
    for dm in (field_dm(5, 4), field_dm(4, 4), product_dm(field_dm(4, 4), field_dm(5, 4)),
               search_dm(1, 2)):
        path = tmp_path / "d.dm"
        write_dm(dm, path)
        back = read_dm(path)
        assert back.group == dm.group
        assert np.array_equal(back.entries, dm.entries)


def test_dm_format_examples():
    text = dumps_dm(field_dm(4, 4))
    assert text.splitlines()[0] == "DM v=4 k=4 group=Z2xZ2"
    with pytest.raises(ParseError) as err:
        loads_dm("DM v=2 k=1 group=Z2\n0\n5\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        loads_dm("DM v=2 k=1 group=Z3\n0\n1\n")  # order mismatch
