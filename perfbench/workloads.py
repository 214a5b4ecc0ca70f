"""The three workloads: their recipes, operations and inputs.

Every operation is the sequence of public oaforge calls behind one CLI
command, looked up through the module attribute at call time so that the
tracer in spans.py sees it.  A workload's deck holds each recipe once (and,
for loa_io, the verification of each emitted file and one mutated input of
each kind); a run shuffles the deck with its seed and plays it again and
again, so every seed times the same operations in a different order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from oaforge import algebraic, arrays, compose, diffmatrix, expand, fixtures, formats
from oaforge.errors import ParseError

CHAI1_KEEP = (0, 1, 6, 2, 3, 4, 5)
# left out of loa_io for run length only: its 16384-member large set
# (25 MB) takes longer to write or read than the chai1 v=7 set
BIG_FIXTURES = ("oa44_2e16_11e1",)


class Rejected(Exception):
    """The library's own verification refused an artifact it had built."""


# -- operations ------------------------------------------------------------------


def _verify_write(ls, out):
    report = arrays.verify_large_set(ls, ls.t)
    if not report.ok:
        raise Rejected(f"large set failed its own check: {report.records()[:3]}")
    formats.write_array(ls, out)


def chai1_loa(out, v, width):
    """construct chai1 --v V --keep 0,1,6,... --expand"""
    keep = list(CHAI1_KEEP[:width])
    a, proj = diffmatrix.develop_chai1(diffmatrix.dm_for(v))
    a = arrays.project_columns(a, keep)
    proj = expand.ResolvableProjection(tuple(keep.index(c) for c in proj.columns), a.n)
    _verify_write(expand.expand_shift(a, proj), out)


def sylvester_loa(out, b, n, k):
    """construct sylvester2|sylvester3 --n N --k K --expand"""
    build = algebraic.sylvester_oa2 if b == 2 else algebraic.sylvester_oa3
    a, proj = build(n, k)
    _verify_write(expand.expand_shift(a, proj), out)


def q4t3_loa(out, q, k):
    """construct q4t3 --q Q --k K --expand"""
    a, proj = algebraic.linear_oa(algebraic.q4_matrix(q), k)
    _verify_write(expand.expand_shift(a, proj), out)


def fixture_loa(out, name):
    """expand FIX: the fixture's large set, verified and written"""
    _verify_write(fixtures.fixture_loa(name), out)


def linear_oa(out, family, q, k, n=None, t=None):
    """construct q4t3|bush|projective without --expand"""
    if family == "q4t3":
        gc = algebraic.q4_matrix(q)
    elif family == "bush":
        gc = algebraic.bush_columns(q, t)
    else:
        gc = algebraic.projective_columns(q, n)
    a, _ = algebraic.linear_oa(gc, k)
    formats.write_array(a, out)


def theorem(out, theorem_id, params):
    """theorem ID --params ..."""
    plan = compose.plan_theorem(theorem_id, dict(params))
    formats.write_array(compose.execute_plan(plan), out)


def input_path(directory, name) -> Path:
    """Where setup writes the compose input `name` (see COMPOSE_INPUTS)."""
    return Path(directory) / ("input-" + name.replace(" ", "_").replace("^", "e") + ".loa")


def compose_files(out, operation, first, second):
    """compose juxtapose|kronecker FIRST SECOND on the large sets that setup
    wrote beside `out`"""
    l1 = formats.read_array(input_path(Path(out).parent, first))
    l2 = formats.read_array(input_path(Path(out).parent, second))
    engine = compose.juxtapose if operation == "juxtapose" else compose.kronecker
    formats.write_array(engine(l1, l2), out)


def check_loa(path):
    """verify loa FILE: the verdict as ('accept',), ('reject', members) or
    ('parse-error', line)."""
    try:
        obj = formats.read_array(path)
    except ParseError as exc:
        return ("parse-error", exc.line)
    report = arrays.verify_large_set(obj, obj.t or 0)
    if report.ok:
        return ("accept",)
    return ("reject", tuple(sorted({idx for idx, _ in report.member_problems})))


# -- recipes -----------------------------------------------------------------------


@dataclass(frozen=True)
class Recipe:
    key: str  # label, and the key of the pinned output digest
    op: object  # callable(out_path) doing one operation


def _r(key, fn, **params):
    return Recipe(key, partial(fn, **params))


EMIT = (
    *(_r(f"chai1 v={v} w={w}", chai1_loa, v=v, width=w) for v in (4, 5) for w in (6, 7)),
    _r("chai1 v=7 w=7", chai1_loa, v=7, width=7),
    *(_r(f"sylvester{b} n=4 k={k}", sylvester_loa, b=b, n=4, k=k)
      for b in (2, 3) for k in (6, 8, 10, 12)),
    _r("q4t3 q=3 k=10 expand", q4t3_loa, q=3, k=10),
    *(_r(f"fixture {f.name}", fixture_loa, name=f.name)
      for f in fixtures.FIXTURES if f.name not in BIG_FIXTURES),
)

# each design once: bush t=3 at k=5 and t=4 at k=6,
# projective n=3 at k=5 and n=4 at k=6
LINEAR = (
    *(_r(f"q4t3 q={q} k=6", linear_oa, family="q4t3", q=q, k=6) for q in (4, 5)),
    *(_r(f"bush q={q} t={t} k={t + 2}", linear_oa, family="bush", q=q, t=t, k=t + 2)
      for q in (7, 8, 9) for t in (3, 4)),
    *(_r(f"projective q={q} n={n} k={n + 2}", linear_oa, family="projective", q=q, n=n, k=n + 2)
      for q in (3, 4, 5) for n in (3, 4)),
)

# setup-written inputs of the compose operations: name -> builder
COMPOSE_INPUTS = {
    "oa20 lead 5": lambda: fixtures.fixture_loa("oa20_2e8_5e1", lead_level=5),
    "oa28 lead 7 w9": lambda: fixtures.fixture_loa("oa28_2e12_7e1", lead_level=7, width=9),
    "oa28 lead 7": lambda: fixtures.fixture_loa("oa28_2e12_7e1", lead_level=7),
    "oa44 lead 11 w13": lambda: fixtures.fixture_loa("oa44_2e16_11e1", lead_level=11,
                                                     width=13),
    "cosets 2^4": lambda: compose.cosets_strength1(arrays.LevelProfile([2] * 4)),
    "oa40": lambda: fixtures.fixture_loa("oa40_5e1_2e6"),
    "l56": lambda: compose.juxtapose(
        expand.expand_shift(*algebraic.sylvester_oa3(3, 7)),
        fixtures.fixture_loa("oa40_5e1_2e6")),
}


def _th(theorem_id, **params):
    label = ",".join(f"{k}={v}" for k, v in params.items())
    return _r(f"theorem {theorem_id} {label}", theorem,
              theorem_id=theorem_id, params=tuple(params.items()))


COMPOSE = (
    _th("doublev3-2", v=4, k=5),
    _th("v1+v3-2", v=4, k=5),
    _th("v1+v3-2", v=4, k=6),
    _th("v1+v3-2", v=4, k=7),
    _th("v1+v3-2", v=5, k=6),
    _th("qn3q43=7", p=3, k1=4, q=3, k2=3),
    _th("qn3q43=7", p=3, k1=5, q=4, k2=3),
    _th("q3323=7", q=2, k1=3, n=2, k2=3),
    _th("q3323=7", q=4, k1=3, n=2, k2=3),
    _th("q3323=7", q=2, k1=4, n=3, k2=4),
    _th("t-1q43=t+3", s=2, t=2, q=3, k=4),
    _th("t-1q43=t+3", s=2, t=3, q=3, k=5),
    _th("v1+q4-3", v=2, k1=3, q=3, k2=4),
    _th("v1+q4-3", v=2, k1=4, q=3, k2=5),
    _r("compose juxtapose t3_48", compose_files, operation="juxtapose",
       first="oa20 lead 5", second="oa28 lead 7 w9"),
    _r("compose juxtapose t3_72", compose_files, operation="juxtapose",
       first="oa28 lead 7", second="oa44 lead 11 w13"),
    _r("compose kronecker t4_640", compose_files, operation="kronecker",
       first="cosets 2^4", second="oa40"),
    _r("compose kronecker t4_896", compose_files, operation="kronecker",
       first="cosets 2^4", second="l56"),
)


# -- mutated inputs of loa_io ------------------------------------------------------------

MUTATIONS = ("cell", "dup_row", "swap_rows", "out_of_range", "truncated", "garbled_header")
# (mutation kind, exception) pairs of a known library defect: the parser sizes
# its row buffer from the header's N before reading a row, so N=10**12 ends in
# MemoryError (ROADMAP item 2).  Such a failure counts in error_rate like any
# other, but does not make the run incorrect.
KNOWN_DEFECTS = {("garbled_header", "MemoryError")}
# the emitted file each kind mutates: fixed, so a deck's cost does not depend on
# the seed; well-formed faults go into a small large set, parse faults into a
# mixed-level file
MUTATION_TARGETS = {
    "cell": "chai1 v=4 w=6",
    "dup_row": "chai1 v=4 w=6",
    "swap_rows": "chai1 v=4 w=6",
    "out_of_range": "fixture oa20_2e8_5e1",
    "truncated": "fixture oa20_2e8_5e1",
    "garbled_header": "fixture oa20_2e8_5e1",
}
GARBLED_N = 10**12


@dataclass(frozen=True)
class LoaLayout:
    """Where each member and row of a written LOA file sits (1-based lines)."""

    m: int
    n: int
    levels: tuple[int, ...]
    t: int

    @classmethod
    def of(cls, text: str) -> "LoaLayout":
        """The layout of a well-formed LOA file, read by the oracle's parser."""
        import oracle

        _, levels, t, members = oracle.parse(text)
        return cls(len(members), members[0].shape[0], levels, t)

    def header_line(self, member: int) -> int:
        return 2 + member * (self.n + 2)

    def row_line(self, member: int, row: int) -> int:
        return self.header_line(member) + 1 + row


@dataclass(frozen=True)
class Mutant:
    kind: str
    member: int
    line: int  # the mutated (or first removed) line, 1-based
    text: str
    expected: tuple  # the verdict check_loa must return


def mutate(text: str, layout: LoaLayout, kind: str, rng: random.Random) -> Mutant:
    """One seeded fault in a clean LOA file, with the verdict it must get.

    cell / dup_row / swap_rows keep the file well-formed and break the
    mutated member's strength (a changed or displaced row moves one tuple
    count in every column subset it touches); out_of_range, truncated and the
    garbled header must be refused by the parser."""
    lines = text.split("\n")
    m, n, levels = layout.m, layout.n, layout.levels
    member = rng.randrange(m)
    row = rng.randrange(n)
    line = layout.row_line(member, row)

    def cells(ln):
        return lines[ln - 1].split()

    if kind == "cell":
        col = rng.randrange(len(levels))
        fields = cells(line)
        fields[col] = str((int(fields[col]) + rng.randrange(1, levels[col])) % levels[col])
        lines[line - 1] = " ".join(fields)
        expected = ("reject", (member,))
    elif kind == "dup_row":
        other = (row + rng.randrange(1, n)) % n
        lines[line - 1] = lines[layout.row_line(member, other) - 1]
        expected = ("reject", (member,))
    elif kind == "swap_rows":
        other_member = (member + rng.randrange(1, m)) % m
        other = layout.row_line(other_member, rng.randrange(n))
        lines[line - 1], lines[other - 1] = lines[other - 1], lines[line - 1]
        expected = ("reject", tuple(sorted((member, other_member))))
    elif kind == "out_of_range":
        col = rng.randrange(len(levels))
        fields = cells(line)
        fields[col] = str(levels[col])
        lines[line - 1] = " ".join(fields)
        expected = ("parse-error", line)
    elif kind == "truncated":
        drop = rng.randrange(1, n)
        end = layout.row_line(member, n - 1)
        line = end - drop + 1
        del lines[line - 1:end]
        expected = ("parse-error", None)
    elif kind == "garbled_header":
        line = layout.header_line(member)
        lines[line - 1] = lines[line - 1].replace(f"N={n} ", f"N={GARBLED_N} ", 1)
        expected = ("parse-error", None)
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return Mutant(kind, member, line, "\n".join(lines), expected)


def verdict_ok(expected: tuple, got: tuple) -> bool:
    """True when check_loa's verdict matches the constructed one: the same
    kind, every mutated member among the rejected ones, and the parse error on
    the recorded line where one was recorded."""
    if got[0] != expected[0]:
        return False
    if expected[0] == "reject":
        return set(expected[1]) <= set(got[1])
    if expected[0] == "parse-error":
        return expected[1] is None or expected[1] == got[1]
    return True


# -- workloads ---------------------------------------------------------------------------


# workload -> recipes; the reason for each workload is in BENCHMARK.json.
# loa_io emits each EMIT recipe's file and then verifies it (verify loa FILE),
# plus one mutated input of each kind per deck.
WORKLOADS = {
    "loa_io": EMIT,
    "linear_field": LINEAR,
    "compose_recipes": COMPOSE,
}


def write_inputs(directory: Path):
    """Write every compose operation's input large set into `directory`."""
    for name, build in COMPOSE_INPUTS.items():
        formats.write_array(build(), input_path(directory, name))
