"""Differential and mutation tests of verify_large_set against the
per-member loop it replaced.

The reference checks each member on its own (strength with verify_strength,
simplicity with verify_simple) and the union with a Counter over row tuples.
It counts a row repeated inside one member as a union repeat, as the hashed
branch of the per-member loop did; that loop's bitmap branch added
`occupancy[codes] += 1`, a buffered fancy-index add that counts each code once
per member, so it missed such repeats.  The relabelling certificate is checked
against a naive per-column dictionary, and its count savings with the
`counts` spy.
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
from oaforge.compose import cosets_strength1, zero_sum_oa
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


def reference_relabels(ls: LargeSet) -> list[bool]:
    """Per member j > 0, whether every column of member j is member 0's under
    a bijection of the column's symbols, row for row; nothing is certified
    when member 0 lacks a symbol in some column."""
    zero = ls.cells[0].tolist()
    if any(len({row[c] for row in zero}) < s for c, s in enumerate(ls.profile.levels)):
        return [False] * ls.m
    out = [False]
    for member in ls.cells[1:].tolist():
        ok = True
        for c, s in enumerate(ls.profile.levels):
            f = {}
            for r0, rj in zip(zero, member):
                ok &= f.setdefault(r0[c], rj[c]) == rj[c]
            ok &= len(set(f.values())) == s
        out.append(ok)
    return out


def _chai1_v4_w6():
    keep = [0, 1, 6, 2, 3, 4]
    a, _ = develop_chai1(dm_for(4))
    return expand_shift(project_columns(a, keep), ResolvableProjection((0, 1, 2), a.n))


BUILDERS = {
    "sylvester2 n=3 k=6": lambda: expand_shift(*sylvester_oa2(3, 6)),
    "sylvester3 n=3 k=7": lambda: expand_shift(*sylvester_oa3(3, 7)),
    "zero-sum s=3 t=2": lambda: expand_shift(*zero_sum_oa(3, 2)),
    "chai1 v=4 w=6": _chai1_v4_w6,
    "cosets 2^4": lambda: cosets_strength1(LevelProfile([2] * 4)),
    "oa20": lambda: fixture_loa("oa20_2e8_5e1"),
    "oa40": lambda: fixture_loa("oa40_5e1_2e6"),
}


@lru_cache(maxsize=None)
def built(name: str) -> LargeSet:
    return BUILDERS[name]()


def _column_maps(ls: LargeSet, data) -> list[list[int]]:
    return [data.draw(st.permutations(range(s)), label=f"map of column {c}")
            for c, s in enumerate(ls.profile.levels)]


def mutate(ls: LargeSet, kind: str, data) -> tuple[LargeSet, set[int]]:
    """One fault of the given kind, and the members it puts at fault.  Kinds
    past "dup_member" aim at the relabelling certificate: "relabel" makes a
    member a column-by-column bijection of member 0 (sound, certified);
    "collapse" maps two symbols of one column of member 0 to one (a member
    at fault that only a bijection check refuses); "row_permute" shuffles a
    member's rows (sound, counted); "weak_zero" puts a cell fault in member
    0 and carries it, relabelled, into every member certified before it, so
    that all of them fail with member 0."""
    cells = ls.cells.copy()
    member = data.draw(st.integers(0, ls.m - 1), label="member")
    row = data.draw(st.integers(0, ls.n - 1), label="row")
    touched = {member}
    if kind in ("cell", "weak_zero"):
        col = data.draw(st.integers(0, ls.profile.k - 1), label="column")
        s = ls.profile.levels[col]
        shift = data.draw(st.integers(1, s - 1), label="shift")
        if kind == "cell":
            cells[member, row, col] = (cells[member, row, col] + shift) % s
        else:
            touched = {0} | {j for j, ok in enumerate(reference_relabels(ls)) if ok}
            new = (cells[0, row, col] + shift) % s
            for j in touched:  # member j under its column map from member 0
                image = dict(zip(ls.cells[0, :, col].tolist(), ls.cells[j, :, col].tolist()))
                cells[j, row, col] = image[new]
    elif kind in ("relabel", "collapse"):
        maps = _column_maps(ls, data)
        if kind == "relabel":
            touched = set()
        else:
            col = data.draw(st.integers(0, ls.profile.k - 1), label="column")
            a, b = data.draw(st.lists(st.integers(0, ls.profile.levels[col] - 1),
                                      min_size=2, max_size=2, unique=True), label="merged")
            maps[col][b] = maps[col][a]
        for c, f in enumerate(maps):
            cells[member, :, c] = np.asarray(f)[ls.cells[0, :, c]]
    elif kind == "row_permute":
        order = data.draw(st.permutations(range(ls.n)), label="row order")
        cells[member] = cells[member, order]
        touched = set()
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
    """Force one of the occupancy pass's ways of finding a repeat: "bitmap"
    and "coverage" mark a map of the universe when M * N fills it and fall
    back to a bincount on a repeat or a short set, "sorted" sorts the codes
    and "lexsort" the rows.  All but "bitmap" run in small chunks, so that
    the occupancy pass, the relabelling certificate and the count all cross
    chunk boundaries."""
    if branch == "coverage":
        return mock.patch.multiple(arrays_mod, CHUNK_TARGET_CELLS=64)
    if branch == "sorted":
        return mock.patch.multiple(arrays_mod, OCCUPANCY_LIMIT=1, CHUNK_TARGET_CELLS=64)
    if branch == "lexsort":
        return mock.patch.multiple(arrays_mod, CODE_LIMIT=1, CHUNK_TARGET_CELLS=64)
    return contextlib.nullcontext()


@pytest.mark.parametrize("branch", ["bitmap", "coverage", "sorted", "lexsort"])
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BUILDERS)),
       kind=st.sampled_from(["clean", "cell", "swap_rows", "dup_row", "dup_member",
                             "relabel", "collapse", "row_permute", "weak_zero"]),
       data=st.data())
def test_verify_large_set_matches_per_member_reference(branch, name, kind, data):
    ls, touched = mutate(built(name), kind, data)
    with union_branch(branch):
        got = verify_large_set(ls, ls.t)
        certified = arrays_mod._relabels(ls.cells, ls.profile.levels).tolist()
    want = reference_verify(ls, ls.t)
    assert certified == reference_relabels(ls)
    if kind in ("clean", "relabel"):  # every built set is one relabelling class
        assert all(certified[1:])
    assert json.loads(json.dumps(got.records())) == want.records()
    assert got.member_problems == want.member_problems
    assert (got.count_ok, got.disjoint_ok, got.collision) == \
        (want.count_ok, want.disjoint_ok, want.collision)
    if want.first_bad_report is None:
        assert got.first_bad_report is None
    else:
        assert got.first_bad_report.failures == want.first_bad_report.failures
    if kind != "relabel":  # a relabelled member may repeat another's rows
        assert got.ok == (kind in ("clean", "row_permute"))
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
    assert ls.cells.dtype == ls.profile.dtype and ls.cells.shape == (ls.m, ls.n, ls.profile.k)
    assert all(np.shares_memory(m.cells, ls.cells) for m in ls.members)
    assert [m.t for m in ls.members] == list(ls.member_t)
    with pytest.raises(ValueError):
        ls.members[0].cells[0, 0] = 1


def _with_cells(ls: LargeSet, cells) -> LargeSet:
    return LargeSet._stacked(ls.profile, cells, ls.member_t, ls.t)


def test_shift_expansion_counts_member_zero_only(counts):
    ls = built("sylvester3 n=3 k=7")
    assert verify_large_set(ls, ls.t).ok
    assert counts == [(1, ls.n, ls.profile.k, ls.t)]


def test_a_faulted_member_is_counted_with_member_zero(monkeypatch):
    ls = built("sylvester3 n=3 k=7")
    cells = ls.cells.copy()
    cells[5, 3, 2] ^= 1
    bad = _with_cells(ls, cells)
    seen = []
    kernel = arrays_mod._off_walk

    def spy(cells, plan):
        seen.append(cells.copy())
        return kernel(cells, plan)

    monkeypatch.setattr(arrays_mod, "_off_walk", spy)
    report = verify_large_set(bad, bad.t)
    assert report.member_problems[0] == (5, "strength")
    assert [m for m, what in report.member_problems if what == "strength"] == [5]
    # members 0 and 5 in one count, then member 5 alone to name its tuples
    assert len(seen) == 2
    assert np.array_equal(seen[0], bad.cells[[0, 5]])
    assert np.array_equal(seen[1], bad.cells[[5]])


def test_member_zero_missing_a_symbol_certifies_nothing(counts):
    # member 0 lacks symbol 1 in column 0; every other member maps its 0 to
    # 1 there and relabels the other columns as before: injective, not onto
    ls = built("sylvester3 n=3 k=7")
    cells = ls.cells.copy()
    cells[0, :, 0] = 0
    cells[1:, :, 0] = 1
    bad = _with_cells(ls, cells)
    report = verify_large_set(bad, bad.t)
    assert [m for m, what in report.member_problems if what == "strength"] == \
        list(range(ls.m))
    assert counts[0] == (ls.m, ls.n, ls.profile.k, ls.t)


def _planted(ls: LargeSet, source: int, target: int) -> LargeSet:
    """ls with row `target` of all M * N, in member order, a copy of row `source`."""
    cells = ls.cells.reshape(-1, ls.profile.k).copy()
    cells[target] = cells[source]
    return _with_cells(ls, cells.reshape(ls.cells.shape))


@pytest.fixture
def code_chunks(monkeypatch):
    """The rows of each chunk whose codes the occupancy pass computes, with
    CHUNK_TARGET_CELLS at 10 rows of 7 columns."""
    monkeypatch.setattr(arrays_mod, "CHUNK_TARGET_CELLS", 70)
    calls = []
    codes = arrays_mod._row_codes

    def spy(rows, levels, out):
        calls.append(len(rows))
        return codes(rows, levels, out)

    monkeypatch.setattr(arrays_mod, "_row_codes", spy)
    return calls


@pytest.mark.parametrize("source, target, records", [
    # rows 20-29 are one chunk
    (21, 27, [{"kind": "member-strength", "member": 1}, {"kind": "member-simple", "member": 1},
              {"kind": "union-repeat", "tuple": [0, 1, 0, 1, 1, 0, 0]}]),
    # rows 40-49 and 90-99 are two
    (41, 95, [{"kind": "member-strength", "member": 5},
              {"kind": "union-repeat", "tuple": [1, 0, 1, 1, 0, 1, 1]}]),
])
def test_a_repeat_inside_a_chunk_or_across_two_leaves_the_map_uncovered(code_chunks, source,
                                                                         target, records):
    """The 128 rows fill the universe, so the coverage map alone proves the
    clean set repeat-free; a planted repeat leaves a slot unmarked, wherever
    its two rows are, and the codes are computed again to name it as
    before (the records are those the bincount of every code gave)."""
    ls = built("sylvester3 n=3 k=7")
    del code_chunks[:]  # those of its build's projection checks, if it was built here
    assert verify_large_set(ls, ls.t).ok
    assert code_chunks == [10] * 12 + [8]
    del code_chunks[:]
    bad = _planted(ls, source, target)
    report = verify_large_set(bad, bad.t)
    assert report.records() == records == reference_verify(bad, bad.t).records()
    assert code_chunks == ([10] * 12 + [8]) * 2


def test_a_set_short_of_the_universe_still_names_its_repeat(code_chunks):
    """M * N below the universe: no coverage map, every code is counted."""
    ls = built("sylvester3 n=3 k=7")
    del code_chunks[:]  # those of its build's projection checks, if it was built here
    short = LargeSet._stacked(ls.profile, ls.cells[:7], ls.member_t[:7], ls.t)
    count = {"kind": "member-count", "m": 7, "n": 16, "universe": 128}
    assert verify_large_set(short, short.t).records() == [count]
    bad = _planted(short, 60, 33)
    records = [count, {"kind": "member-strength", "member": 2},
               {"kind": "union-repeat", "tuple": [1, 1, 1, 0, 1, 1, 1]}]
    assert verify_large_set(bad, bad.t).records() == records == \
        reference_verify(bad, bad.t).records()
    assert code_chunks == ([10] * 11 + [2]) * 2
