"""Coset large sets, juxtaposition, Kronecker pairing, and recipe plans."""

import numpy as np
import pytest

from oaforge import compose
from oaforge.arrays import (
    LargeSet,
    LevelProfile,
    SymbolMatrix,
    brute_force_strength,
    verify_large_set,
    verify_strength,
)
from oaforge.catalog import catalog
from oaforge.compose import (
    THEOREM_IDS,
    Claim,
    ConstructionPlan,
    Juxtapose,
    Kronecker,
    cosets_strength1,
    execute_plan,
    juxtapose,
    kronecker,
    leaf,
    plan_theorem,
    zero_sum_oa,
)
from oaforge.errors import ConstraintError, VerificationError
from oaforge.expand import expand_shift
from oaforge.fixtures import fixture_loa


def test_cosets_examples():
    ls = cosets_strength1(LevelProfile([2, 3]))
    assert (ls.n, ls.m) == (6, 1)
    ls = cosets_strength1(LevelProfile([2, 2]))
    assert (ls.n, ls.m) == (2, 2)
    # diagonal and antidiagonal
    assert {tuple(r) for r in ls.members[0].cells.tolist()} == {(0, 0), (1, 1)}
    assert {tuple(r) for r in ls.members[1].cells.tolist()} == {(0, 1), (1, 0)}


def test_cosets_4_6():
    # independent oracle: group the 24 pairs into cosets of the cyclic
    # subgroup generated by (1, 1)
    base = {(i % 4, i % 6) for i in range(12)}
    cosets = set()
    for a in range(4):
        for b in range(6):
            cosets.add(frozenset(((a + x) % 4, (b + y) % 6) for x, y in base))
    assert len(cosets) == 2
    ls = cosets_strength1(LevelProfile([4, 6]))
    assert (ls.n, ls.m) == (12, 2)
    got = {frozenset(map(tuple, m.cells.tolist())) for m in ls.members}
    assert got == cosets


def test_cosets_member_order_by_smallest_row():
    ls = cosets_strength1(LevelProfile([2, 2, 2]))
    firsts = [min(map(tuple, m.cells.tolist())) for m in ls.members]
    assert firsts == sorted(firsts)
    assert firsts[0] == (0, 0, 0)


def test_zero_sum_oa():
    a, proj = zero_sum_oa(3, 2)
    assert (a.n, a.k) == (9, 3)
    assert proj.columns == (0, 1)
    assert verify_strength(a, 2).ok
    rows = {tuple(r) for r in a.cells.tolist()}
    assert rows == {(x, y, (-x - y) % 3) for x in range(3) for y in range(3)}
    ls = expand_shift(*zero_sum_oa(2, 3))
    assert (ls.n, ls.m) == (8, 2)
    assert verify_large_set(ls, 3).ok


def test_juxtapose_strength1_toy():
    # two halves of the 2x2 coset set on a widened first column
    left = cosets_strength1(LevelProfile([2, 2]))
    right = cosets_strength1(LevelProfile([2, 2]))
    ls = juxtapose(left, right)
    assert ls.profile.levels == (4, 2)
    assert (ls.n, ls.m) == (4, 2)
    assert verify_large_set(ls, 1).ok


def test_juxtapose_seven_level_result():
    from oaforge.algebraic import sylvester_oa3

    a, proj = sylvester_oa3(3, 7)
    l16 = expand_shift(a, proj)
    l40 = fixture_loa("oa40_5e1_2e6")
    ls = juxtapose(l16, l40)
    assert ls.profile.levels == (7,) + (2,) * 6
    assert (ls.n, ls.m) == (56, 8)
    report = verify_large_set(ls, 3)
    assert report.ok and report.universe == 448


def test_juxtapose_table3_row():
    l20 = fixture_loa("oa20_2e8_5e1", lead_level=5)
    l28 = fixture_loa("oa28_2e12_7e1", lead_level=7, width=9)
    ls = juxtapose(l20, l28)
    assert ls.profile.levels == (12,) + (2,) * 8
    assert (ls.n, ls.m) == (48, 64)
    assert verify_large_set(ls, 2).ok


def test_juxtapose_errors():
    l22 = cosets_strength1(LevelProfile([2, 2]))
    l23 = cosets_strength1(LevelProfile([2, 3]))
    with pytest.raises(ValueError, match="beyond column 0"):
        juxtapose(l22, l23)
    l33 = cosets_strength1(LevelProfile([3, 2]))
    with pytest.raises(ValueError, match="ratio"):
        juxtapose(l22, l33)
    # member-count mismatch with matching ratio needs doctored inputs
    profile = LevelProfile([2, 2])
    half = LargeSet(profile, [l22.members[0]], t=1)
    with pytest.raises(ValueError, match="member counts"):
        juxtapose(half, l22)


def test_kronecker_toy_and_strengths():
    c22 = cosets_strength1(LevelProfile([2, 2]))
    out = kronecker(c22, c22)
    assert (out.n, out.k, out.t) == (8, 4, 3)
    assert verify_strength(out, 3).ok

    from oaforge.algebraic import sylvester_oa2

    a, proj = sylvester_oa2(2, 3)
    l4 = expand_shift(a, proj)
    out = kronecker(l4, l4)
    assert (out.n, out.k, out.t) == (32, 6, 5)
    assert verify_strength(out, 5).lambda_by_subset[(0, 1, 2, 3, 4)] == 1


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
)
def test_kronecker_adds_strengths_on_coset_sets(levels1, levels2):
    # pairing two strength-1 coset sets must yield a verified strength-3
    # array of exactly lcm(M1, M2) * N1 * N2 rows; kronecker itself raises
    # if the composition law ever failed
    l1 = cosets_strength1(LevelProfile(levels1))
    l2 = cosets_strength1(LevelProfile(levels2))
    if len(levels1) + len(levels2) < 3:
        return  # strength 3 needs at least 3 columns
    out = kronecker(l1, l2)
    from math import lcm

    assert out.n == lcm(l1.m, l2.m) * l1.n * l2.n
    assert out.t == 3


def test_kronecker_block_structure():
    c22 = cosets_strength1(LevelProfile([2, 2]))
    out = kronecker(c22, c22)
    # h = lcm(2,2) = 2 blocks of N1*N2 = 4 rows: (s mod 2, s mod 2) pairing
    first_block = out.cells[:4]
    a = c22.members[0].cells
    expected = np.hstack([np.repeat(a, 2, axis=0), np.tile(a, (2, 1))])
    assert np.array_equal(first_block, expected)


@pytest.mark.parametrize("pairing, changed", [
    ("cyclic", None), ("member 0", None), ("cyclic", (0, 0)), ("cyclic", (9, 0)),
    ("cyclic", (11, 4)),
])
def test_a_product_of_large_sets_is_counted_through_its_factors(monkeypatch, pairing, changed):
    """The 4 Kronecker blocks of the coset large set 2 x 2^3 with itself,
    or with its member 0 in every block, counted with the block-mode rule
    patched to always apply.  A member has strength 1 and the members'
    union strength 3, so per-block and union facts differ; at every t the
    report is verify_strength's and the verdict the oracle's.  A changed
    cell fails the certificate: one that P_s and Q_s are read from, a P cell
    in row (i, 1) of a block, or a Q cell in row (1, j)."""
    from oaforge import arrays

    ls = cosets_strength1(LevelProfile([2] * 3))
    right = ls.cells if pairing == "cyclic" else ls.cells[[0, 0, 0, 0]]
    cells = np.vstack([np.hstack([np.repeat(ls.cells[s], 2, axis=0), np.tile(right[s], (2, 1))])
                       for s in range(4)])
    if changed is not None:
        cells[changed] ^= 1
    a = SymbolMatrix(LevelProfile([2] * 6), cells)
    monkeypatch.setattr(arrays, "_by_factors", lambda levels, t, n: True)
    for t in range(1, 7):
        got, want = arrays._product_strength(a, 4, 2, 3, t), verify_strength(a, t)
        assert got.failures == want.failures and got.checked_subsets == want.checked_subsets
        assert got.lambda_by_subset == want.lambda_by_subset
        assert got.ok == brute_force_strength(a, t).ok
    assert verify_strength(a, 3).ok == (pairing == "cyclic" and changed is None)


def test_kronecker_with_full_factorial_singleton():
    # pairing with a one-member full factorial adds its column count to the
    # effective balance; on toy sizes the output is itself a full factorial
    from oaforge.algebraic import sylvester_oa2
    from oaforge.arrays import full_factorial

    a, proj = sylvester_oa2(2, 3)
    l4 = expand_shift(a, proj)
    ff = full_factorial(LevelProfile([2, 2]))
    singleton = LargeSet(ff.profile, [ff], t=2)
    out = kronecker(l4, singleton)
    assert (out.n, out.k, out.t) == (32, 5, 5)
    assert len({tuple(r) for r in out.cells.tolist()}) == 32


def test_kronecker_rejects_unverified_input():
    profile = LevelProfile([2, 2])
    bad_member = SymbolMatrix(profile, [[0, 0], [1, 0]], t=1)
    ok_member = SymbolMatrix(profile, [[0, 1], [1, 1]], t=1)
    bad = LargeSet(profile, [bad_member, ok_member], t=1)
    with pytest.raises(VerificationError):
        kronecker(bad, bad)


def test_kronecker_table4_row():
    l2 = cosets_strength1(LevelProfile([2, 2, 2]))
    l44 = fixture_loa("oa44_2e16_11e1", lead_level=11, width=5)
    out = kronecker(l2, l44)
    assert out.n == 352 and out.t == 4
    assert sorted(out.profile.levels) == sorted((2,) * 7 + (11,))


def test_plan_claims_match_spec_examples():
    plan = plan_theorem("doublev3-2", {"v": 4, "k": 5})
    assert plan.claim.n == 4**8
    assert plan.claim.profile_counts == ((4, 10),)
    assert plan.claim.t == 5

    plan = plan_theorem("qt2n2-3", {"q": 3, "t": 2, "k1": 3, "n": 2, "k2": 3})
    assert plan.claim.n == 2**2 * 3**2 * 6
    assert plan.claim.profile_counts == ((2, 3), (3, 3))
    assert plan.claim.t == 5

    plan = plan_theorem("v1+q4-3", {"v": 2, "k1": 3, "q": 3, "k2": 4})
    assert plan.claim.n == 2 * 81  # h = lcm(v^0, q^0) = 1
    assert plan.claim.t == 5


def test_plan_constraint_errors():
    with pytest.raises(ConstraintError):
        plan_theorem("nope", {})
    with pytest.raises(ConstraintError):
        plan_theorem("doublev3-2", {"v": 6, "k": 5})  # v = 2 (mod 4)
    with pytest.raises(ConstraintError):
        plan_theorem("doublev3-2", {"v": 4, "k": 30})
    with pytest.raises(ConstraintError):
        plan_theorem("doublev3-2", {"v": 4})
    with pytest.raises(ConstraintError):
        plan_theorem("v1+q4-3", {"v": 2, "k1": 3, "q": 6, "k2": 4})
    with pytest.raises(ConstraintError):
        plan_theorem("qt2n2-3", {"q": 3, "t": 2, "k1": 3, "n": 2, "k2": 9})


def test_execute_small_recipes():
    art = execute_plan(plan_theorem("v12n-4", {"v": 2, "k1": 4, "n": 2, "k2": 3}))
    assert (art.n, art.t) == (16, 4)
    art = execute_plan(plan_theorem("tt-1n2-3", {"s": 2, "t": 2, "n": 2, "k1": 3}))
    assert (art.n, art.t) == (16, 4)
    art = execute_plan(plan_theorem("qtp43", {"p": 3, "k1": 4, "q": 3, "t": 2, "k2": 2}))
    assert (art.n, art.t) == (729, 6)
    art = execute_plan(plan_theorem("q3323=7", {"q": 2, "k1": 3, "n": 2, "k2": 3}))
    assert (art.n, art.t) == (64, 6)


def test_execute_b3_branches():
    art = execute_plan(
        plan_theorem("v12n-4", {"v": 2, "k1": 4, "n": 2, "k2": 4, "b": 3}))
    assert (art.n, art.t) == (32, 5)
    art = execute_plan(
        plan_theorem("qn2n-com", {"q": 2, "m": 2, "k1": 3, "n": 2, "k2": 4, "b": 3}))
    assert (art.n, art.t) == (64, 6)


def test_qt2n2_t1_branch_uses_cosets():
    art = execute_plan(
        plan_theorem("qt2n2-3", {"q": 3, "t": 1, "k1": 2, "n": 2, "k2": 3}))
    # LOA(3, 2, 3, 1) x LOA(4, 3, 2, 2): h = lcm(3, 2) = 6 -> 72 runs
    assert (art.n, art.t) == (72, 4)
    assert sorted(art.profile.levels) == [2, 2, 2, 3, 3]


def test_execute_degenerate_full_factorial_leaf():
    from oaforge.compose import Claim, ConstructionPlan, leaf

    plan = ConstructionPlan(leaf("fullfact", v=2, k=3), Claim(8, ((2, 3),), 3))
    art = execute_plan(plan)
    assert (art.n, art.k) == (8, 3)
    assert len({tuple(r) for r in art.cells.tolist()}) == 8


def test_execute_plan_rejects_wrong_claims():
    from oaforge.compose import Claim, ConstructionPlan, Expand, leaf

    node = Expand(leaf("sylvester2", n=2, k=3))
    with pytest.raises(VerificationError, match="claimed N"):
        execute_plan(ConstructionPlan(node, Claim(5, ((2, 3),), 2)))
    with pytest.raises(VerificationError, match="profile"):
        execute_plan(ConstructionPlan(node, Claim(4, ((2, 4),), 2)))
    with pytest.raises(VerificationError, match="strength"):
        execute_plan(ConstructionPlan(node, Claim(4, ((2, 3),), 3)))


def test_all_theorem_ids_have_runnable_smallest_instance():
    smallest = {
        "v1+v3-2": {"v": 4, "k": 5},
        "doublev3-2": {"v": 4, "k": 5},
        "v1+q4-3": {"v": 2, "k1": 3, "q": 3, "k2": 4},
        "v12n-4": {"v": 2, "k1": 4, "n": 2, "k2": 3},
        "qn2n-com": {"q": 2, "m": 2, "k1": 3, "n": 2, "k2": 3},
        "qn2v32=5": {"q": 3, "m": 2, "k1": 4, "v": 4, "k2": 4},
        "qn2q43=6": {"p": 3, "k1": 4, "q": 3, "n": 2, "k2": 2},
        "qn3q43=7": {"p": 3, "k1": 4, "q": 3, "k2": 3},
        "q3323=7": {"q": 2, "k1": 3, "n": 2, "k2": 3},
        "t-1q43=t+3": {"s": 2, "t": 2, "q": 3, "k": 4},
        "qt2n2-3": {"q": 3, "t": 2, "k1": 3, "n": 2, "k2": 3},
        "tt-1n2-3": {"s": 2, "t": 2, "n": 2, "k1": 3},
        "qtp43": {"p": 3, "k1": 4, "q": 3, "t": 2, "k2": 2},
    }
    assert set(smallest) == set(THEOREM_IDS)
    for tid, params in smallest.items():
        plan = plan_theorem(tid, params)
        assert plan.claim.n >= 1


def _theorem_pairing(theorem, params):
    """The inputs of the last Kronecker pairing a theorem plan makes."""
    from unittest import mock

    calls = []
    engine = compose.kronecker

    def spy(l1, l2):
        calls.append((l1, l2))
        return engine(l1, l2)

    with mock.patch.object(compose, "kronecker", spy):
        execute_plan(plan_theorem(theorem, params))
    return calls[-1]


KRONECKER_INPUTS = {
    # compose kronecker t4_640
    "t4_640": lambda: (cosets_strength1(LevelProfile([2] * 4)), fixture_loa("oa40_5e1_2e6")),
    # M1 = 4, M2 = 3: h = 12 is above both, so a pairing on one M for both sides differs
    "M1=4 M2=3": lambda: (cosets_strength1(LevelProfile([2] * 3)),
                         cosets_strength1(LevelProfile([3, 3]))),
    # a uint8 side beside an int32 side (300 levels), on either side
    "uint8|int32": lambda: (cosets_strength1(LevelProfile([2] * 3)),
                            cosets_strength1(LevelProfile([300]))),
    "int32|uint8": lambda: (cosets_strength1(LevelProfile([300])),
                            cosets_strength1(LevelProfile([3, 3]))),
    # counted through its factors: 16,384 rows
    "v1+v3-2 v=4,k=6": lambda: _theorem_pairing("v1+v3-2", {"v": 4, "k": 6}),
}


@pytest.mark.parametrize("case", KRONECKER_INPUTS)
def test_kronecker_fills_the_block_formula_rows(case):
    """Block s is member s mod M1 (each row repeated N2 times) beside member
    s mod M2 (tiled N1 times), blocks stacked, against a nested-loop
    reference; the cells are C-contiguous, read-only and in the profile's dtype."""
    from math import lcm

    from oaforge.arrays import _by_factors

    l1, l2 = KRONECKER_INPUTS[case]()
    out = kronecker(l1, l2)
    h = lcm(l1.m, l2.m)
    expected = np.zeros((h * l1.n * l2.n, l1.profile.k + l2.profile.k), dtype=np.int64)
    for s in range(h):
        for i in range(l1.n):
            for j in range(l2.n):
                row = (s * l1.n + i) * l2.n + j
                expected[row, :l1.profile.k] = l1.cells[s % l1.m, i]
                expected[row, l1.profile.k:] = l2.cells[s % l2.m, j]
    assert out.n == len(expected) and out.profile.levels == l1.profile.levels + l2.profile.levels
    assert out.cells.dtype == out.profile.dtype == (
        np.int32 if max(out.profile.levels) > 256 else np.uint8)
    assert out.cells.flags.c_contiguous and not out.cells.flags.writeable
    assert np.array_equal(out.cells, expected)
    assert _by_factors(out.profile.levels, out.t, out.n) == (case == "v1+v3-2 v=4,k=6")
    if case == "t4_640":
        assert out.n == 640
    if case == "M1=4 M2=3":
        assert (l1.m, l2.m, h) == (4, 3, 12)


# every count of the plan: the inputs', then each side's block 0 (the other
# blocks are certified as block 0 relabelled) and union of h * N rows at the
# sizes the settling asks for; the output is never counted itself
PLAN_COUNTS = {
    "doublev3-2": [(1, 64, 13, 2), (1, 64, 5, 1), (1, 64, 5, 2), (1, 64, 5, 3),
                   (1, 64, 5, 4), (1, 64, 5, 5), (1, 64, 5, 1), (1, 64, 5, 2),
                   (1, 1024, 5, 2), (1, 1024, 5, 3), (1, 1024, 5, 4), (1, 1024, 5, 5),
                   (1, 1024, 5, 3), (1, 1024, 5, 4), (1, 1024, 5, 5)],
    "v1+v3-2": [(64, 4, 4, 1), (1, 64, 13, 2), (1, 4, 4, 1), (1, 4, 4, 2), (1, 4, 4, 3),
                (1, 4, 4, 4), (1, 64, 6, 1), (1, 64, 6, 2), (1, 4096, 6, 3),
                (1, 4096, 6, 4), (1, 256, 4, 2), (1, 256, 4, 3), (1, 256, 4, 4)],
}


@pytest.mark.parametrize("theorem, params, n, k, t", [
    ("doublev3-2", {"v": 4, "k": 5}, 4**8, 10, 5),
    ("v1+v3-2", {"v": 4, "k": 6}, 4**7, 10, 4),
])
def test_composite_output_is_counted_once(counts, theorem, params, n, k, t):
    """A Kronecker output of N >= 8192 rows is counted through its factors,
    and the output array itself never goes to the kernel."""
    art = execute_plan(plan_theorem(theorem, params))
    assert (art.n, art.k, art.t) == (n, k, t)
    assert counts == PLAN_COUNTS[theorem]
    assert not [c for c in counts if c[0] * c[1] == n and c[2] == k]


def test_equal_subtrees_are_built_and_counted_once(counts):
    # doublev3-2 pairs the projected chai1 large set with itself; its
    # 64 x 13 development is built and self-checked once, and the output is
    # counted through its two (equal) factors
    execute_plan(plan_theorem("doublev3-2", {"v": 4, "k": 5}))
    assert [c for c in counts if c[2] == 13] == [(1, 64, 13, 2)]
    assert counts == PLAN_COUNTS["doublev3-2"]


def test_juxtaposed_catalog_row_is_counted_once(counts):
    # every member of the juxtaposed output is certified as a relabelling
    # of member 0, so only member 0 is counted
    entry = next(e for e in catalog("table3")
                 if e.runner is not None and isinstance(e.runner.root, Juxtapose))
    ls = execute_plan(entry.runner)
    assert [c for c in counts if c[1:3] == (ls.n, ls.profile.k)] == \
        [(1, ls.n, ls.profile.k, ls.t)]


def test_expanded_catalog_row_counts_only_its_seed(counts):
    # table5's q4t3 q=3 row: the 81-row seed is counted at t=3 by its
    # builder; its 729 shifted members are not counted again
    entry = next(e for e in catalog("table5") if e.runner is not None
                 and e.runner.root == compose.Expand(leaf("q4t3", q=3, k=10)))
    ls = execute_plan(entry.runner)
    assert (ls.m, ls.n, ls.t) == (729, 81, 3)
    assert counts == [(1, 81, 10, 3)]


def test_expand_root_still_gets_its_large_set_checks(counts, monkeypatch):
    def repeat_member_zero(a, proj):  # member 1 becomes a copy of member 0
        ls = expand_shift(a, proj)
        cells = ls.cells.copy()
        cells[1] = cells[0]
        return LargeSet._stacked(ls.profile, cells, ls.member_t, ls.t)

    monkeypatch.setattr(compose, "expand_shift", repeat_member_zero)
    plan = ConstructionPlan(compose.Expand(leaf("sylvester2", n=3, k=7)), Claim(8, ((2, 7),), 2))
    with pytest.raises(VerificationError) as err:
        execute_plan(plan)
    assert {"kind": "union-repeat", "tuple": [0] * 7} in err.value.report.records()
    assert counts == [(1, 8, 7, 2)]  # the occupancy pass found it, not a count


def test_claim_above_the_seed_verdict_is_counted_and_rejected(counts):
    plan = ConstructionPlan(compose.Expand(leaf("sylvester2", n=3, k=7)), Claim(8, ((2, 7),), 3))
    with pytest.raises(VerificationError, match="claimed strength 3"):
        execute_plan(plan)
    # the seed, member 0 (the other 15 are certified relabellings of it),
    # then the first weak member to name its tuples
    assert counts == [(1, 8, 7, 2), (1, 8, 7, 3), (1, 8, 7, 3)]


def test_leaf_root_is_counted_once(counts):
    art = execute_plan(ConstructionPlan(leaf("q4t3", q=3, k=10), Claim(81, ((3, 10),), 3)))
    assert art.t == 3 and counts == [(1, 81, 10, 3)]


def test_claim_above_the_engine_verdict_is_counted_and_rejected(counts):
    # two strength-1 coset sets pair to strength 3; a claim of 4 is counted
    # (index 1 on 16 rows) and fails
    node = Kronecker(leaf("cosets", v=2, k=3), leaf("cosets", v=2, k=3))
    with pytest.raises(VerificationError, match="claimed strength 4"):
        execute_plan(ConstructionPlan(node, Claim(16, ((2, 6),), 4)))
    assert counts[-2:] == [(1, 16, 6, 3), (1, 16, 6, 4)]


def test_wrong_pairing_is_rejected_through_execute_plan(monkeypatch):
    engine = compose.kronecker

    def member_zero_only(l1, l2):  # pair every member s with member 0 of l2
        zeros = LargeSet._stacked(l2.profile, np.repeat(l2.cells[:1], l2.m, axis=0),
                                  l2.member_t, l2.t)
        return engine(l1, zeros)

    monkeypatch.setattr(compose, "kronecker", member_zero_only)
    with pytest.raises(VerificationError, match="Kronecker pairing failed"):
        execute_plan(plan_theorem("v12n-4", {"v": 2, "k1": 4, "n": 2, "k2": 3}))


def test_oracle_agrees_with_the_verdict_on_the_smallest_composite():
    plan = plan_theorem("v12n-4", {"v": 2, "k1": 4, "n": 2, "k2": 3})
    art = execute_plan(plan)
    assert art.n == 16 and plan.claim.t == 4
    assert brute_force_strength(art, plan.claim.t).ok


def test_the_plan_cache_holds_the_benchmark_deck():
    """The operations of the compose_recipes benchmark workload, run twice:
    its 14 theorem recipes, two juxtapositions and two Kronecker pairings
    of fixture and coset large sets.  The second pass makes no strength
    plan, and no product plan, that the first did not, so the plan caches
    hold a whole deck."""
    from oaforge import algebraic, arrays

    deck = [("doublev3-2", "v=4,k=5"), ("v1+v3-2", "v=4,k=5"), ("v1+v3-2", "v=4,k=6"),
            ("v1+v3-2", "v=4,k=7"), ("v1+v3-2", "v=5,k=6"),
            ("qn3q43=7", "p=3,k1=4,q=3,k2=3"), ("qn3q43=7", "p=3,k1=5,q=4,k2=3"),
            ("q3323=7", "q=2,k1=3,n=2,k2=3"), ("q3323=7", "q=4,k1=3,n=2,k2=3"),
            ("q3323=7", "q=2,k1=4,n=3,k2=4"), ("t-1q43=t+3", "s=2,t=2,q=3,k=4"),
            ("t-1q43=t+3", "s=2,t=3,q=3,k=5"), ("v1+q4-3", "v=2,k1=3,q=3,k2=4"),
            ("v1+q4-3", "v=2,k1=4,q=3,k2=5")]
    cosets = cosets_strength1(LevelProfile([2] * 4))
    oa40 = fixture_loa("oa40_5e1_2e6")
    pairs = [(juxtapose, fixture_loa("oa20_2e8_5e1", lead_level=5),
              fixture_loa("oa28_2e12_7e1", lead_level=7, width=9)),
             (juxtapose, fixture_loa("oa28_2e12_7e1", lead_level=7),
              fixture_loa("oa44_2e16_11e1", lead_level=11, width=13)),
             (kronecker, cosets, oa40),
             (kronecker, cosets, juxtapose(expand_shift(*algebraic.sylvester_oa3(3, 7)), oa40))]
    misses = []
    for _ in range(2):
        for theorem, params in deck:
            execute_plan(plan_theorem(theorem, compose.parse_params(params)))
        for engine, first, second in pairs:
            engine(first, second)
        misses.append((arrays._strength_plan.cache_info().misses,
                       arrays._product_plan.cache_info().misses))
    assert misses[1] == misses[0]
