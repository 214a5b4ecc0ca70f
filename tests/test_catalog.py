"""The table catalog: coverage, statuses, and reproduction runs."""

import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oaforge.arrays import (
    LargeSet,
    SymbolMatrix,
    verify_large_set,
    verify_strength,
)
from oaforge.catalog import catalog, run_entries
from oaforge.cli import main
from oaforge.compose import Expand, Leaf, Project, execute_plan, leaf, run_leaf
from oaforge.errors import VerificationError
from reference import colex_combinations

DATA = Path(__file__).parent / "data"


def test_every_row_appears_exactly_once():
    counts = {
        "table1": 44, "table2": 37, "table3": 24, "table4": 21,
        "table5": 5, "table6": 15, "theorems": 13,
    }
    for query, expected in counts.items():
        entries = catalog(query)
        assert len(entries) == expected, query
        assert len({e.source for e in entries}) == expected  # unique ids
    assert len(catalog("all")) == sum(counts.values())


def test_statuses_are_legal():
    legal = {"synthesizable", "fixture-required", "unreconciled", "out-of-scope"}
    for entry in catalog("all"):
        assert entry.status in legal, entry.source


def test_table1_is_mostly_fixture_required():
    entries = catalog("table1")
    assert all(e.status == "fixture-required" for e in entries)


def test_table5_all_synthesizable():
    entries = catalog("table5")
    assert len(entries) == 5
    assert all(e.status == "synthesizable" for e in entries)
    assert all(e.command for e in entries)


def test_transcribed_table2_rows_are_synthesizable():
    entries = catalog("table2")
    synth = [e for e in entries if e.status == "synthesizable"]
    assert len(synth) == 8
    assert all(e.command and "expand" in e.command for e in synth)


def test_unreconciled_rows_are_marked():
    t4 = {e.source: e for e in catalog("table4")}
    odd = [e for e in t4.values() if "1153" in e.result]
    assert len(odd) == 1 and odd[0].status == "unreconciled"
    mismatch = [e for e in t4.values() if "1056" in e.result]
    assert len(mismatch) == 1 and mismatch[0].status == "unreconciled"


def test_synthesizable_entries_have_runners():
    for entry in catalog("all"):
        if entry.status == "synthesizable":
            assert entry.runner is not None, entry.source
            assert entry.command is not None, entry.source


def test_run_outcomes_table3():
    outcomes = dict()
    for entry, outcome in run_entries(catalog("table3")):
        outcomes[entry.source] = outcome
    assert outcomes["table3 row 1"].startswith("LOA(48,12^1,2^8,2)")
    assert outcomes["table3 row 4"].startswith("LOA(64,16^1,2^8,2)")
    assert outcomes["table3 row 23"].startswith("LOA(80,5^1,2^9,3)")
    assert outcomes["table3 row 10"] == "unreconciled"
    assert outcomes["table3 row 2"] == "needs-fixture"


def test_run_outcomes_table4():
    outcomes = {e.source: o for e, o in run_entries(catalog("table4"))}
    assert outcomes["table4 row 1"].startswith("OA(352,")
    assert outcomes["table4 row 16"].startswith("OA(896,")
    assert outcomes["table4 row 18"] == "unreconciled"


def test_run_respects_budget():
    entries = [e for e in catalog("table2") if e.status == "synthesizable"]
    results = run_entries(entries, budget=100)
    assert all(outcome == "skipped(budget)" for _, outcome in results)


def test_run_reports_chai2_verdict():
    entries = [e for e in catalog("table5")]
    outcomes = {e.source: o for e, o in run_entries(entries)}
    assert outcomes["table5 row 4"].startswith("failed:")
    assert "(13, 17)" in outcomes["table5 row 4"]
    assert outcomes["table5 row 1"].endswith("verified")


def test_theorem_entries_runnable():
    entries = [e for e in catalog("theorems")
               if e.source in ("theorem v1+q4-3", "theorem tt-1n2-3",
                               "theorem qtp43")]
    for entry, outcome in run_entries(entries):
        assert outcome.endswith("verified"), (entry.source, outcome)


def test_unknown_query():
    with pytest.raises(ValueError):
        catalog("table9")


@pytest.mark.parametrize("argv, golden, exit_code", [
    ("catalog all", "catalog_all.txt", 0),
    ("catalog all --run", "catalog_all_run.txt", 1),  # 1: the chai2 row's verdict
])
def test_catalog_output_is_pinned(capsys, argv, golden, exit_code):
    code = main(argv.split())
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")
    assert code == exit_code


SMALL_ROWS = [e for e in catalog("all") if e.status == "synthesizable" and e.cost <= 10**6]


def _large_set_mutants(ls: LargeSet, rng):
    """(kind, mutant, members put at fault) for one changed cell, one
    duplicated row and one row swapped between two members."""
    m, r, c = rng.integers(ls.m), rng.integers(ls.n), rng.integers(ls.profile.k)
    cell = ls.cells.copy()
    s = ls.profile.levels[c]
    cell[m, r, c] = (cell[m, r, c] + rng.integers(1, s)) % s
    dup = ls.cells.copy()
    dup[m, r] = dup[m, (r + 1 + rng.integers(ls.n - 1)) % ls.n]
    swap = ls.cells.copy()
    other, r2 = (m + 1 + rng.integers(ls.m - 1)) % ls.m, rng.integers(ls.n)
    swap[[m, other], [r, r2]] = swap[[other, m], [r2, r]]
    for kind, cells, touched in (("cell", cell, {m}), ("dup_row", dup, {m}),
                                 ("swap_rows", swap, {m, other})):
        members = [SymbolMatrix(ls.profile, x, t) for x, t in zip(cells, ls.member_t)]
        yield kind, LargeSet(ls.profile, members, ls.t), touched


def _array_mutants(a: SymbolMatrix, rng):
    """(kind, mutant, mutated columns) for one changed cell and one row
    replaced by a copy of another."""
    r, c = rng.integers(a.n), rng.integers(a.k)
    cell = a.cells.copy()
    cell[r, c] = (cell[r, c] + rng.integers(1, a.profile.levels[c])) % a.profile.levels[c]
    dup = a.cells.copy()
    dup[r] = dup[(r + 1 + rng.integers(a.n - 1)) % a.n]
    for kind, cells, cols in (("cell", cell, {c}),
                              ("dup_row", dup, set(np.flatnonzero(dup[r] != a.cells[r])))):
        yield kind, SymbolMatrix(a.profile, cells, a.t), cols


@pytest.mark.parametrize("entry", SMALL_ROWS, ids=lambda e: e.source)
def test_catalog_plan_mutants_are_rejected(entry):
    try:
        artifact = execute_plan(entry.runner)
    except VerificationError:
        assert entry.source == "table5 row 4"  # chai2: its self-check is the verdict
        return
    t = entry.runner.claim.t
    rng = np.random.default_rng(zlib.crc32(entry.source.encode()))
    if isinstance(artifact, LargeSet):
        for kind, mutant, touched in _large_set_mutants(artifact, rng):
            report = verify_large_set(mutant, t)
            assert not report.ok, kind
            assert touched <= {idx for idx, _ in report.member_problems}, kind
    else:
        for kind, mutant, cols in _array_mutants(artifact, rng):
            subsets = verify_strength(mutant, t).failing_subsets()
            assert subsets and all(cols & set(s) for s in subsets), kind


def _leaves(node):
    if isinstance(node, Leaf):
        yield node
    elif isinstance(node, (Expand, Project)):
        yield from _leaves(node.child)
    else:
        yield from _leaves(node.left)
        yield from _leaves(node.right)


CATALOG_LEAVES = {lf for e in catalog("all") if e.runner is not None for lf in _leaves(e.runner.root)}


def _unused_constructor(data) -> Leaf:
    """A constructor leaf at parameters outside the catalog: fullfact,
    sylvester at n >= 5, and the linear families at q = 7, 8, 9."""
    kind = data.draw(st.sampled_from(
        ["fullfact", "sylvester2", "sylvester3", "projective", "bush", "q4t3"]), label="kind")
    if kind == "fullfact":
        node = leaf(kind, v=data.draw(st.integers(2, 5)), k=data.draw(st.integers(1, 4)))
    elif kind.startswith("sylvester"):
        n = data.draw(st.integers(5, 6), label="n")
        low = n if kind == "sylvester2" else n + 1
        node = leaf(kind, n=n, k=data.draw(st.integers(low, low + 16), label="k"))
    else:
        q = data.draw(st.sampled_from([7, 8, 9]), label="q")
        if kind == "projective":
            n = data.draw(st.integers(2, 3), label="n")
            node = leaf(kind, q=q, n=n, k=data.draw(st.integers(n, 12 if n == 3 else q + 1)))
        elif kind == "bush":
            t = data.draw(st.integers(2, 4), label="t")
            node = leaf(kind, q=q, t=t, k=data.draw(st.integers(t, q + 1), label="k"))
        else:
            node = leaf(kind, q=q, k=data.draw(st.integers(4, 10), label="k"))
    assume(node not in CATALOG_LEAVES)
    return node


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_constructor_mutants_are_rejected_and_located(data):
    """One changed cell or one duplicated row in a constructor's output is
    rejected at its strength and located: the failing subsets are, in colex
    order, exactly those holding a mutated column, since each of them sees
    one tuple fewer (the mutated row's old tuple)."""
    a = run_leaf(_unused_constructor(data)).matrix
    assert verify_strength(a, a.t).ok
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for kind, mutant, cols in _array_mutants(a, rng):
        want = [s for s in colex_combinations(a.k, a.t) if cols & set(s)]
        assert want and verify_strength(mutant, a.t).failing_subsets() == want, kind
