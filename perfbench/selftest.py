#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny seeded pass over all three workloads.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit, with
tracing off and on; that every loa_io mutation gets the verdict it was
built to get, confirmed by the independent parser and counters in oracle.py;
and that a deliberately corrupted pinned digest is reported as a failed
operation and an incorrect run.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

# cheap recipes only, so the pass takes seconds
TINY = {
    "loa_io": ("chai1 v=4 w=6", "sylvester2 n=4 k=6", "sylvester3 n=4 k=8",
               "fixture oa20_2e8_5e1"),
    "linear_field": ("bush q=7 t=3 k=5", "projective q=3 n=3 k=5"),
    "compose_recipes": ("theorem q3323=7 q=2,k1=3,n=2,k2=3", "compose juxtapose t3_48",
                        "compose kronecker t4_640"),
}


def tiny_recipes(wl, workload):
    by_key = {r.key: r for r in wl.WORKLOADS[workload]}
    return [by_key[key] for key in TINY[workload]]


def check_metrics(result, declared, problems, where):
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"{where}: metric {entry['name']} missing")
        elif got.get("unit") != entry["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {entry['name']} printed as {got}")
    extra = set(result["metrics"]) - {e["name"] for e in declared}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")


def check_mutations(wl, problems):
    """Each mutation kind, on a small large set, against the oracle's view."""
    import oracle

    out = bench.WORK / "selftest-mutations.loa"
    out.parent.mkdir(exist_ok=True)
    wl.EMIT[0].op(out)
    text = out.read_text(encoding="utf-8")
    out.unlink()
    layout = wl.LoaLayout.of(text)
    levels, t = layout.levels, layout.t
    rng = random.Random(7)
    for kind in wl.MUTATIONS:
        mutant = wl.mutate(text, layout, kind, rng)
        try:
            _, _, _, body = oracle.parse(mutant.text)
        except (oracle.Malformed, ValueError):
            oracle_says = ("parse-error",)
        else:
            valid = oracle.partition_ok(body, levels) and all(
                oracle.strength_ok(c, levels, t) for c in body)
            bad = tuple(i for i, c in enumerate(body) if not oracle.strength_ok(c, levels, t))
            oracle_says = ("accept",) if valid else ("reject", bad)
        if oracle_says[0] != mutant.expected[0] or (
                oracle_says[0] == "reject" and not set(mutant.expected[1]) <= set(oracle_says[1])):
            problems.append(f"mutation {kind}: built to get {mutant.expected},"
                            f" oracle says {oracle_says}")


def main() -> int:
    bench.import_library()
    import workloads as wl

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in bench.WORKLOAD_NAMES:
        recipes = tiny_recipes(wl, workload)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = bench.run(workload, 1, 0, trace, recipes=recipes, rounds=1)
            where = f"{workload} trace={trace}"
            check_metrics(result, declared[key], problems, where)
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed: {lines}")
        print(f"{workload}: ok" if not problems else f"{workload}: {problems}", flush=True)

    check_mutations(wl, problems)

    recipes = tiny_recipes(wl, "loa_io")
    digests = json.loads(bench.DIGESTS.read_text())
    digests[recipes[1].key] = "0" * 64
    result, _ = bench.run("loa_io", 1, 0, 0, recipes=recipes, digests=digests, rounds=1)
    if result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted digest not reported: {result}")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
