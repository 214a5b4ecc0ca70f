#!/usr/bin/env python3
"""Independent confirmation of emitted files, and the digest pinning step.

    python3 perfbench/oracle.py      # rebuild every recipe, confirm, rewrite digests.json

A file is confirmed from its text alone, with a parser of our own:
- a single array at its claimed t with oaforge's brute_force_strength (the
  library's deliberately naive oracle, sharing no kernel with the verifier)
  when N * C(k, t) is at most BRUTE_FORCE_CAP, else with `strength_ok` below;
- a large set with the row-partition check (every k-tuple of the universe in
  exactly one row of one member) and `strength_ok` on every member.
Only confirmed files get a digest; run.py then compares every emitted file
byte for byte, by digest, against this table.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import sys
from math import comb
from pathlib import Path

import numpy as np

BRUTE_FORCE_CAP = 2 * 10**7


class Malformed(ValueError):
    """The text is not a well-formed OA or LOA file."""


def _block(lines, pos):
    """Parse one OA block at lines[pos]; returns (levels, t, cells, next pos)."""
    if not lines[pos].startswith("OA "):
        raise Malformed(f"line {pos + 1}: expected an OA header")
    head = dict(part.split("=", 1) for part in lines[pos].split()[1:])
    n, t = int(head["N"]), int(head["t"])
    levels = []
    for group in head["levels"].split(","):
        s, _, c = group.partition("^")
        levels.extend([int(s)] * int(c or 1))
    rows = lines[pos + 1:pos + 1 + n]
    if len(rows) != n or any(len(r.split()) != len(levels) for r in rows):
        raise Malformed(f"line {pos + 1}: block does not hold {n} rows of {len(levels)}")
    cells = np.array([r.split() for r in rows], dtype=np.int64).reshape(n, len(levels))
    if (cells < 0).any() or (cells >= np.array(levels)).any():
        raise Malformed(f"line {pos + 1}: symbol out of range")
    return tuple(levels), t, cells, pos + 1 + n


def parse(text: str):
    """('OA', levels, t, cells) or ('LOA', levels, t, [cells, ...])."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if lines[0].startswith("OA "):
        levels, t, cells, end = _block(lines, 0)
        if end != len(lines):
            raise Malformed("trailing lines after the array")
        return "OA", levels, t, cells
    if not lines[0].startswith("LOA M="):
        raise Malformed("unknown header")
    m = int(lines[0][len("LOA M="):])
    members, strengths, pos = [], [], 1
    for i in range(m):
        if i and lines[pos] != "":
            raise Malformed(f"line {pos + 1}: expected a blank separator")
        pos += 1 if i else 0
        levels, t, cells, pos = _block(lines, pos)
        members.append(cells)
        strengths.append(t)
    if pos != len(lines):
        raise Malformed("trailing lines after the last member")
    return "LOA", levels, min(strengths), members  # the set's t is its weakest member's


def strength_ok(cells, levels, t) -> bool:
    """Every t-tuple equally often in every t-subset of columns."""
    n = cells.shape[0]
    for sub in itertools.combinations(range(len(levels)), t):
        space = int(np.prod([levels[j] for j in sub]))
        if n % space:
            return False
        codes = np.zeros(n, dtype=np.int64)
        for j in sub:
            codes = codes * levels[j] + cells[:, j]
        if not (np.bincount(codes, minlength=space) == n // space).all():
            return False
    return True


def partition_ok(members, levels) -> bool:
    """The members' rows together hold every k-tuple of the universe once."""
    codes = np.zeros(sum(c.shape[0] for c in members), dtype=np.int64)
    cells = np.vstack(members)
    for j, s in enumerate(levels):
        codes = codes * s + cells[:, j]
    universe = int(np.prod(levels))
    return codes.size == universe and np.array_equal(np.sort(codes), np.arange(universe))


class Unconfirmed(Exception):
    """The file is not the artifact its header claims."""


def _require(ok: bool, why: str):
    if not ok:
        raise Unconfirmed(why)


def confirm(text: str) -> str:
    """How the file was confirmed; raises Unconfirmed if it is not what it claims."""
    kind, levels, t, body = parse(text)
    if kind == "LOA":
        _require(partition_ok(body, levels), "members do not partition the universe")
        _require(all(strength_ok(c, levels, t) for c in body), f"a member is not of strength {t}")
        return f"row partition of {len(body)} members + strength {t} of each"
    from oaforge.arrays import LevelProfile, SymbolMatrix, brute_force_strength

    if body.shape[0] * comb(len(levels), t) <= BRUTE_FORCE_CAP:
        report = brute_force_strength(SymbolMatrix(LevelProfile(levels), body, t), t,
                                      budget=BRUTE_FORCE_CAP)
        _require(report.ok, f"brute_force_strength rejects strength {t}")
        return f"brute_force_strength at t={t}"
    _require(strength_ok(body, levels, t), f"not of strength {t}")
    return f"per-subset count at t={t}"


def pin(out_path: Path):
    """Build every emitting recipe once, confirm it, and write the digests."""
    import workloads as wl

    work = Path(__file__).resolve().parent / ".work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        wl.write_inputs(work)
        for recipes in (wl.EMIT, wl.LINEAR, wl.COMPOSE):
            for recipe in recipes:
                out = work / "out"
                recipe.op(out)
                data = out.read_bytes()
                how = confirm(data.decode("utf-8"))
                digests[recipe.key] = hashlib.sha256(data).hexdigest()
                print(f"{recipe.key}: {how}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    pin(here / "digests.json")
