"""Transcribed reference arrays and their marked resolvable columns.

Each fixture ships as a plain array file with a `# marked=...` comment naming
the columns whose level product equals N and which project bijectively (the
seed of the shift expansion).  Transcription errors are data patches: the
check below re-verifies strength, marked-column resolvability, and the full
expansion of every installed fixture, and localizes any defect.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from pathlib import Path

from .arrays import LargeSet, SymbolMatrix, verify_large_set, verify_strength
from .errors import OAForgeError
from .expand import (ResolvableProjection, check_resolvable_projection, expand_shift,
                     find_resolvable_projection, project_resolvable)
from .formats import loads


@dataclass(frozen=True)
class Fixture:
    name: str
    n: int
    t: int
    profile: str
    marked: tuple[int, ...]


FIXTURES: tuple[Fixture, ...] = (
    Fixture("oa20_2e8_5e1", 20, 2, "2^8,5^1", (0, 1, 8)),
    Fixture("oa24_2e13_3e1_4e1", 24, 2, "2^13,3^1,4^1", (12, 13, 14)),
    Fixture("oa28_2e12_7e1", 28, 2, "2^12,7^1", (0, 11, 12)),
    Fixture("oa44_2e16_11e1", 44, 2, "2^16,11^1", (0, 11, 16)),
    Fixture("oa40_5e1_2e6", 40, 3, "5^1,2^6", (0, 1, 2, 3)),
    Fixture("oa48_4e1_3e1_2e4", 48, 3, "4^1,3^1,2^4", (0, 1, 2, 3)),
    Fixture("oa48_3e1_2e9", 48, 3, "3^1,2^9", (0, 1, 2, 7, 9)),
    Fixture("oa54_3e5_2e1", 54, 3, "3^5,2^1", (0, 1, 2, 5)),
)

_BY_NAME = {f.name: f for f in FIXTURES}


def fixture_dir() -> Path:
    return Path(importlib.resources.files("oaforge") / "fixtures")


def fixture_names() -> list[str]:
    return [f.name for f in FIXTURES]


def _parse_marked(text: str) -> tuple[int, ...] | None:
    m = re.search(r"^#\s*marked=([0-9,]+)\s*$", text, re.MULTILINE)
    if not m:
        return None
    return tuple(int(x) for x in m.group(1).split(","))


def load_fixture(name: str, directory: Path | None = None) -> tuple[SymbolMatrix, tuple[int, ...]]:
    """The transcribed array and its marked columns.  A file without marked
    metadata falls back to find_resolvable_projection (recorded as inferred)."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown fixture {name!r}; known: {fixture_names()}")
    path = (directory or fixture_dir()) / f"{name}.txt"
    if not path.exists():
        raise FileNotFoundError(f"fixture file {path} is not installed")
    text = path.read_text(encoding="utf-8")
    a = loads(text)
    if isinstance(a, LargeSet):
        raise OAForgeError(f"fixture {name} holds a large set, expected an array")
    marked = _parse_marked(text)
    if marked is None:
        proj = find_resolvable_projection(a)
        if proj is None:
            raise OAForgeError(f"fixture {name} has no resolvable projection")
        marked = proj.columns
    return a, marked


def fixture_loa(
    name: str,
    lead_level: int | None = None,
    width: int | None = None,
    directory: Path | None = None,
) -> LargeSet:
    """Expand a fixture into its large set, optionally rotating the marked
    column of a given level to the front and truncating to `width` columns
    (a width that drops a marked column is a ConstraintError)."""
    a, marked = load_fixture(name, directory)
    marked_list = list(marked)
    if lead_level is not None:
        leads = [c for c in marked_list if a.profile.levels[c] == lead_level]
        if len(leads) != 1:
            raise ValueError(
                f"fixture {name} has {len(leads)} marked columns of level"
                f" {lead_level}, need exactly 1"
            )
        marked_list = leads + [c for c in marked_list if c != leads[0]]
    order = marked_list + [c for c in range(a.k) if c not in set(marked_list)]
    proj = ResolvableProjection(tuple(marked_list), a.n)
    return expand_shift(*project_resolvable(a, proj, order[:width]))


@dataclass
class FixtureResult:
    name: str
    status: str  # "ok" | "missing" | failure text
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class FixtureReport:
    results: list[FixtureResult] = field(default_factory=list)
    corpus_empty: bool = False

    @property
    def ok(self) -> bool:
        return not self.corpus_empty and all(r.ok for r in self.results)


def fixtures_check(directory: Path | None = None) -> FixtureReport:
    """Verify every installed fixture: declared shape, strength at its claimed
    t, marked-column resolvability, and the full shift expansion.  An empty
    corpus is a distinct status, not a pass."""
    directory = directory or fixture_dir()
    report = FixtureReport()
    present = [f for f in FIXTURES if (directory / f"{f.name}.txt").exists()]
    if not present:
        report.corpus_empty = True
        return report
    for fx in FIXTURES:
        path = directory / f"{fx.name}.txt"
        if not path.exists():
            report.results.append(FixtureResult(fx.name, "missing"))
            continue
        try:
            a, marked = load_fixture(fx.name, directory)
        except Exception as exc:  # parse errors carry line numbers
            report.results.append(FixtureResult(fx.name, "parse-error", str(exc)))
            continue
        details = ""
        if _parse_marked(path.read_text(encoding="utf-8")) is None:
            details = "marked columns inferred by projection search"
        problems = []
        if a.n != fx.n:
            problems.append(f"N={a.n}, expected {fx.n}")
        if a.profile.format() != fx.profile:
            problems.append(f"profile {a.profile.format()}, expected {fx.profile}")
        if a.t != fx.t:
            problems.append(f"t={a.t}, expected {fx.t}")
        if marked != fx.marked:
            problems.append(f"marked {marked}, expected {fx.marked}")
        sr = verify_strength(a, fx.t)
        if not sr.ok:
            first = sr.failures[0]
            problems.append(
                f"strength-{fx.t} fails on columns {first.columns}"
                + (f" tuple {first.symbols} (observed {first.observed},"
                   f" expected {first.expected})" if first.symbols else "")
            )
        ok, why = check_resolvable_projection(a, marked)
        if not ok:
            problems.append(f"marked columns not resolvable: {why}")
        if not problems:  # the seed's count above covers every member
            ls = expand_shift(a, ResolvableProjection(marked, a.n))
            lr = verify_large_set(ls, 0)
            if not lr.ok:
                problems.append(f"expansion failed: {lr.records()[:1]}")
        report.results.append(
            FixtureResult(fx.name, "ok" if not problems else "; ".join(problems),
                          details)
        )
    return report
