"""Committed mutants of the verdict paths, each of which named tests must catch.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these
    python tests/mutants.py --list

A mutant is one record of MUTANTS: a module under src/oaforge, an exact
snippet of its source, the snippet's replacement, and the tests expected to
catch the change.  For each record the runner copies src/ into a temporary
directory and replaces the snippet there; a snippet that does not occur
exactly once fails the record, so a refactor that moves the code must
update its mutants rather than lose them.  It then runs the named tests
against the copy with `pytest -x -q`, one pytest process at a time, and
the record passes when they fail.  Before any mutant, the named tests of
the records run must pass on the unchanged copy.

Tier-1 does not collect this file (pytest collects test_*.py only).  To add
a mutant, append a Mutant to MUTANTS whose snippet is unique in its module
and whose tests fail on the mutated copy, then run it by name.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/oaforge
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


CERTIFICATE_TEST = ("tests/test_arrays.py::"
                    "test_a_changed_cell_in_the_last_chunk_of_blocks_fails_the_certificate",)
BUILD_TEST = ("tests/test_compose.py::test_kronecker_fills_the_block_formula_rows",)
FACTORS_TEST = ("tests/test_compose.py::"
                "test_a_product_of_large_sets_is_counted_through_its_factors",)

NEAR_WRITER_TEST = "tests/test_formats.py::test_loads_matches_reference_parser_on_near_writer_text"
WALK_TESTS = ("tests/test_arrays.py::test_kernel_matches_the_oracle",
              "tests/test_arrays.py::test_block_kernel_matches_the_oracle")

MUTANTS = (
    # the Kronecker output's certificate (arrays._product_strength)
    Mutant("certificate always passes", "arrays.py",
           "if not np.array_equal(products[:m], cells[lo:lo + m]):",
           "if False:",
           CERTIFICATE_TEST),
    Mutant("certificate compares only the P part", "arrays.py",
           "if not np.array_equal(products[:m], cells[lo:lo + m]):",
           "if not np.array_equal(products[:m, ..., :k1], cells[lo:lo + m, ..., :k1]):",
           CERTIFICATE_TEST),
    # the strength plan's subsets and the walk over its cuts (arrays._colex, _walk)
    Mutant("subsets in lexicographic order", "arrays.py",
           "        rows = np.column_stack((rows[np.arange(len(tops)) - binom[tops, j]], tops))\n"
           "    return rows\n",
           "        rows = np.column_stack((rows[np.arange(len(tops)) - binom[tops, j]], tops))\n"
           "    return rows[np.lexsort(rows.T[::-1])]\n",
           # not the block tests: given ranks that are not row numbers, _cover never ends
           ("tests/test_arrays.py::test_colex_order",
            "tests/test_arrays.py::test_product_plan_ranks_are_rows_of_each_sides_colex_list",
            "tests/test_arrays.py::test_kernel_matches_the_oracle")),
    Mutant("walk skips a node's last child", "arrays.py",
           "    while i < len(edges) - 1:",
           "    while i < len(edges) - 2:",
           WALK_TESTS),
    Mutant("batch ends one child early", "arrays.py",
           "yield edges[i], _off_batch(x, code, plan, edges[i], edges[j], depth, members, bufs)",
           "yield edges[i], _off_batch(x, code, plan, edges[i], edges[j - 1], depth,"
           " members, bufs)",
           (*WALK_TESTS, "tests/test_arrays.py::test_block_reports_match_the_oracle")),
    # the Kronecker build (compose.kronecker)
    # (both give cells of the right shape: block s beside member s mod M1 mod M2
    # of the second side, or the second side's rows repeated and the first's tiled)
    Mutant("build pairs on M1 for both sides", "compose.py",
           'rows.reshape(h // m2, m2, l1.n, l2.n)["q"][...] = q[None, :, None, :]',
           'rows.reshape(h // m1, m1, l1.n, l2.n)["q"][...]'
           ' = q[np.arange(m1) % m2][None, :, None, :]',
           BUILD_TEST),
    Mutant("build swaps the repeated and the tiled side", "compose.py",
           """    rows.reshape(h // m1, m1, l1.n, l2.n)["p"][...] = p[None, :, :, None]
    rows.reshape(h // m2, m2, l1.n, l2.n)["q"][...] = q[None, :, None, :]
""",
           """    rows.reshape(h // m1, m1, l2.n, l1.n)["p"][...] = p[None, :, None, :]
    rows.reshape(h // m2, m2, l2.n, l1.n)["q"][...] = q[None, :, :, None]
""",
           BUILD_TEST),
    # the count through the factors: the settling of T = A + B
    Mutant("A and B swapped in the settling", "arrays.py",
           "on = each_a & uniform(sides[1], each_a, True)"
           " | each_b & uniform(sides[0], each_b, True)",
           "on = each_a & uniform(sides[0], each_a, True)"
           " | each_b & uniform(sides[1], each_b, True)",
           FACTORS_TEST),
    Mutant("each taken from the union", "arrays.py",
           "each_a = uniform(sides[0], np.ones(len(subsets), dtype=bool), False)",
           "each_a = uniform(sides[0], np.ones(len(subsets), dtype=bool), True)",
           FACTORS_TEST),
    Mutant("certified blocks dropped from the union", "arrays.py",
           """        if wanted and union:
            stack = stack.reshape(1, -1, len(part))
        elif wanted and len(stack) > 1:
            counted = np.flatnonzero(~_relabels(stack, part))
            stack = stack if len(counted) == len(stack) else stack[counted]
""",
           """        if wanted and len(stack) > 1:
            counted = np.flatnonzero(~_relabels(stack, part))
            stack = stack if len(counted) == len(stack) else stack[counted]
        if wanted and union:
            stack = stack.reshape(1, -1, len(part))
""",
           ("tests/test_arrays.py::"
            "test_a_certified_block_is_not_counted_alone_but_stays_in_the_union",)),
    # the relabelling certificate (arrays._relabels)
    Mutant("relabelling certifies every member", "arrays.py",
           "certified[lo:lo + len(block)] = function & bijection",
           "certified[lo:lo + len(block)] = True",
           ("tests/test_large_sets.py::test_a_faulted_member_is_counted_with_member_zero",)),
    # cells stored in the profile's dtype
    Mutant("juxtapose relabels in the inputs' dtype", "compose.py",
           "cells = np.concatenate([l1.cells, l2.cells], axis=1, dtype=profile.dtype)",
           "cells = np.concatenate([l1.cells, l2.cells], axis=1)",
           ("tests/test_cell_dtype.py::"
            "test_juxtapose_across_256_levels_widens_before_it_relabels",)),
    # the occupancy pass (arrays._smallest_repeat): a large set's union and a
    # resolvable projection
    Mutant("coverage always true", "arrays.py",
           "        if seen.all():\n",
           "        if True:\n",
           ("tests/test_expand.py::test_check_resolvable_duplicate_tuple",
            "tests/test_arrays.py::test_verify_large_set_detects_union_repeat")),
    Mutant("reversed digit places in the row codes", "arrays.py",
           """    out[:] = rows[:, 0]
    for j in range(1, len(levels)):
""",
           """    out[:] = rows[:, -1]
    for j in reversed(range(len(levels) - 1)):
""",
           ("tests/test_expand.py::test_check_resolvable_duplicate_tuple",
            "tests/test_large_sets.py::"
            "test_a_repeat_inside_a_chunk_or_across_two_leaves_the_map_uncovered")),
    Mutant("cells narrowed before the range check", "arrays.py",
           """        cells = np.asarray(cells)
        if cells.ndim != 2:""",
           """        cells = np.asarray(cells).astype(profile.dtype)
        if cells.ndim != 2:""",
           ("tests/test_cell_dtype.py::test_a_symbol_that_narrowing_would_wrap_is_refused",)),
    # a (symbol, separator) record narrowed before _read_records checks it
    # drops the separator byte, so a wrong separator reads as a symbol
    Mutant("records narrowed before _read_records' check", "formats.py",
           "records = np.empty((step, len(zero)), dtype=np.uint16)",
           "records = np.empty((step, len(zero)), dtype=profile.dtype)",
           ("tests/test_cell_dtype.py::test_a_wrong_separator_after_the_first_chunk_is_refused",
            "tests/test_formats.py::test_stride_faults_match_reference_parser")),
    # the decoder's direct checks of each line (formats._decode, _header_t)
    Mutant("token width unchecked", "formats.py",
           "(size <= np.append(np.tile(widths, r), len(text))).all(axis=1)",
           "(size > 0).all(axis=1)",
           (NEAR_WRITER_TEST,)),
    Mutant("header t above k accepted", "formats.py",
           "& ((slot[:, 0] > 0) | (digits == 1)) & (t <= profile.k))",
           "& ((slot[:, 0] > 0) | (digits == 1)))",
           ("tests/test_formats.py::test_header_strength_outside_zero_to_k_is_refused",)),
    Mutant("t slot read last digit first", "formats.py",
           "power = 10 ** np.maximum(digits[:, None] - 1 - np.arange(most), 0)",
           "power = 10 ** np.arange(most)",
           ("tests/test_formats.py::test_members_whose_t_differ_in_digits_read_back_equal",)),
    Mutant("any non-digit byte separates tokens", "formats.py",
           'gap = (text == ord(" ")) | (text == ord("\\n"))',
           "gap = (text < ord(\"0\")) | (text > ord(\"9\"))",
           (NEAR_WRITER_TEST,)),
    # the linear constructions' lead columns and their projection (algebraic)
    Mutant("a family's lead column off by one", "algebraic.py",
           "_Columns(q * q + 1, (0, 1, 2, q + 1), build)",
           "_Columns(q * q + 1, (0, 1, 2, q), build)",
           ("tests/test_algebraic.py::test_q4_matrix_q3",
            "tests/test_algebraic.py::"
            "test_columns_by_formula_are_the_greedy_basis_then_the_rest[q4t3 q=5]")),
    Mutant("linear_oa skips require_resolvable", "algebraic.py",
           "    return _self_check(a, gc.t, m)\n",
           "    return ((a, ResolvableProjection(tuple(range(m)), a.n))\n"
           "            if verify_strength(a, gc.t).ok else _self_check(a, gc.t, m))\n",
           ("tests/test_algebraic.py::test_linear_oa_refuses_lead_columns_that_do_not_span",)),
)


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _apply(src: Path, mutant: Mutant) -> str | None:
    """Replace the mutant's snippet in the copy; the reason it cannot be, or None."""
    path = src / "oaforge" / mutant.module
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        return f"snippet occurs {found} times in {mutant.module}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return None


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="oaforge-mutants-") as tmp:
        src = _copy(Path(tmp) / "clean")
        where = subprocess.run([sys.executable, "-c", "import oaforge; print(oaforge.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                               text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the copy is not what is imported: oaforge is {where}", file=sys.stderr)
            return 1
        clean = _pytest(src, sorted({t for m in chosen for t in m.tests}))
        if clean.returncode != 0:
            print(f"the named tests fail on the unchanged source:\n{clean.stdout}{clean.stderr}")
            return 1
        failed = 0
        for i, mutant in enumerate(chosen):
            start = time.perf_counter()
            src = _copy(Path(tmp) / str(i))
            why = _apply(src, mutant)
            if why is None:
                run = _pytest(src, mutant.tests)
                if run.returncode == 0:
                    why = "not caught: its tests pass"
                elif run.returncode != 1:  # 1 is failed tests; others are usage or collection
                    why = f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}"
            failed += why is not None
            print(f"{'caught' if why is None else 'FAILED'}  {mutant.name}"
                  f"  ({time.perf_counter() - start:.1f} s){'' if why is None else ': ' + why}",
                  flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
