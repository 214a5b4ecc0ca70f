"""Differential and mutation tests of verify_large_set against the
per-member loop it replaced.

The reference checks each member on its own (strength with verify_strength,
simplicity with verify_simple) and the union with a Counter over row tuples.
It counts a row repeated inside one member as a union repeat, as the hashed
branch of the per-member loop did; that loop's bitmap branch added
`occupancy[codes] += 1`, a buffered fancy-index add that counts each code once
per member, so it missed such repeats.
"""

import contextlib
import json
from collections import Counter
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oaforge.arrays as arrays_mod
from oaforge.algebraic import sylvester_oa2, sylvester_oa3
from oaforge.arrays import (
    LargeSet,
    LargeSetReport,
    LevelProfile,
    SymbolMatrix,
    project_columns,
    verify_large_set,
    verify_simple,
    verify_strength,
)
from oaforge.compose import cosets_strength1, zero_sum_large_set
from oaforge.diffmatrix import develop_chai1, dm_for
from oaforge.expand import ResolvableProjection, expand_shift
from oaforge.fixtures import fixture_loa


def reference_verify(ls: LargeSet, t: int) -> LargeSetReport:
    universe = ls.profile.universe_size
    report = LargeSetReport(m=ls.m, n=ls.n, universe=universe, t=t)
    report.count_ok = ls.m * ls.n == universe
    for idx, member in enumerate(ls.members):
        if t > 0:
            strength = verify_strength(member, t)
            if not strength.ok:
                report.member_problems.append((idx, "strength"))
                if report.first_bad_report is None:
                    report.first_bad_report = strength
        if not verify_simple(member)[0]:
            report.member_problems.append((idx, "simple"))
    rows = Counter(tuple(row) for m in ls.members for row in m.cells.tolist())
    repeats = sorted(row for row, count in rows.items() if count > 1)
    report.disjoint_ok = not repeats
    report.collision = repeats[0] if repeats else None
    return report


def _chai1_v4_w6():
    keep = [0, 1, 6, 2, 3, 4]
    a, _ = develop_chai1(dm_for(4))
    return expand_shift(project_columns(a, keep), ResolvableProjection((0, 1, 2), a.n))


BUILDERS = {
    "sylvester2 n=3 k=6": lambda: expand_shift(*sylvester_oa2(3, 6)),
    "sylvester3 n=3 k=7": lambda: expand_shift(*sylvester_oa3(3, 7)),
    "zero-sum s=3 t=2": lambda: zero_sum_large_set(3, 2),
    "chai1 v=4 w=6": _chai1_v4_w6,
    "cosets 2^4": lambda: cosets_strength1(LevelProfile([2] * 4)),
    "oa20": lambda: fixture_loa("oa20_2e8_5e1"),
    "oa40": lambda: fixture_loa("oa40_5e1_2e6"),
}


@lru_cache(maxsize=None)
def built(name: str) -> LargeSet:
    return BUILDERS[name]()


def mutate(ls: LargeSet, kind: str, data) -> tuple[LargeSet, set[int]]:
    """One fault of the given kind, and the members it puts at fault."""
    cells = ls.cells.copy()
    member = data.draw(st.integers(0, ls.m - 1), label="member")
    row = data.draw(st.integers(0, ls.n - 1), label="row")
    touched = {member}
    if kind == "cell":
        col = data.draw(st.integers(0, ls.profile.k - 1), label="column")
        s = ls.profile.levels[col]
        cells[member, row, col] = (cells[member, row, col] + data.draw(
            st.integers(1, s - 1), label="shift")) % s
    elif kind == "swap_rows":
        other = data.draw(st.integers(0, ls.m - 1).filter(lambda i: i != member),
                          label="other member")
        other_row = data.draw(st.integers(0, ls.n - 1), label="other row")
        cells[[member, other], [row, other_row]] = cells[[other, member], [other_row, row]]
        touched.add(other)
    elif kind == "dup_row":
        source = data.draw(st.integers(0, ls.n - 1).filter(lambda r: r != row),
                           label="source row")
        cells[member, row] = cells[member, source]
    elif kind == "dup_member":  # a sound member twice: N repeats, no member at fault
        other = data.draw(st.integers(0, ls.m - 1).filter(lambda i: i != member),
                          label="other member")
        cells[member] = cells[other]
        touched = set()
    else:
        touched = set()
    members = [SymbolMatrix(ls.profile, c, t) for c, t in zip(cells, ls.member_t)]
    return LargeSet(ls.profile, members, ls.t), touched


def union_branch(branch: str):
    """Force one of the occupancy pass's three ways of finding a repeat; the
    last two also in small chunks, so that chunk boundaries are crossed."""
    if branch == "sorted":
        return mock.patch.multiple(arrays_mod, OCCUPANCY_LIMIT=1, CHUNK_TARGET_CELLS=64)
    if branch == "lexsort":
        return mock.patch.multiple(arrays_mod, row_weights=lambda profile: None,
                                   CHUNK_TARGET_CELLS=64)
    return contextlib.nullcontext()


@pytest.mark.parametrize("branch", ["bitmap", "sorted", "lexsort"])
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BUILDERS)),
       kind=st.sampled_from(["clean", "cell", "swap_rows", "dup_row", "dup_member"]),
       data=st.data())
def test_verify_large_set_matches_per_member_reference(branch, name, kind, data):
    ls, touched = mutate(built(name), kind, data)
    with union_branch(branch):
        got = verify_large_set(ls, ls.t)
    want = reference_verify(ls, ls.t)
    assert json.loads(json.dumps(got.records())) == want.records()
    assert got.member_problems == want.member_problems
    assert (got.count_ok, got.disjoint_ok, got.collision) == \
        (want.count_ok, want.disjoint_ok, want.collision)
    if want.first_bad_report is None:
        assert got.first_bad_report is None
    else:
        assert got.first_bad_report.failures == want.first_bad_report.failures
    assert got.ok == (kind == "clean")
    assert touched <= {idx for idx, _ in got.member_problems}


def test_stacked_count_spans_member_chunks(monkeypatch):
    """Members counted one kernel call at a time or many at once give the
    same report."""
    ls = built("oa20")
    cells = ls.cells.copy()
    cells[37, 4, 8] = (cells[37, 4, 8] + 1) % 5
    bad = LargeSet._stacked(ls.profile, cells, ls.member_t, ls.t)
    want = reference_verify(bad, 2)
    for target in (1, 1 << 10, 1 << 24):
        monkeypatch.setattr(arrays_mod, "CHUNK_TARGET_CELLS", target)
        got = verify_large_set(bad, 2)
        assert got.member_problems == want.member_problems == [(37, "strength")]
        assert got.first_bad_report.failures == want.first_bad_report.failures
        assert verify_large_set(ls, 2).ok


def test_members_are_views_of_the_stacked_cells():
    ls = built("chai1 v=4 w=6")
    assert ls.cells.flags.c_contiguous and not ls.cells.flags.writeable
    assert ls.cells.dtype == np.int32 and ls.cells.shape == (ls.m, ls.n, ls.profile.k)
    assert all(np.shares_memory(m.cells, ls.cells) for m in ls.members)
    assert [m.t for m in ls.members] == list(ls.member_t)
    with pytest.raises(ValueError):
        ls.members[0].cells[0, 0] = 1
