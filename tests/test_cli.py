"""CLI surface: exit codes, machine-readable failure records, file flows."""

import hashlib
import json
import re
import shlex
import signal
import time
from pathlib import Path

import pytest

from oaforge.algebraic import sylvester_oa2
from oaforge import arrays, compose
from oaforge.arrays import LargeSet, LevelProfile, SymbolMatrix
from oaforge.catalog import FIX, catalog
from oaforge.cli import build_parser, main
from oaforge.diffmatrix import DifferenceMatrix, dm_for, field_dm, write_dm
from oaforge.expand import expand_shift
from oaforge.fixtures import FIXTURES, fixture_dir, fixture_loa
from oaforge.formats import read_array, write_array


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_fixture_ok(capsys):
    path = fixture_dir() / "oa20_2e8_5e1.txt"
    code, out = run(capsys, "verify", "oa", str(path), "--strength", "2")
    assert code == 0
    assert out.startswith("ok:")


def test_verify_mutated_fixture_names_failure(capsys, tmp_path):
    src = (fixture_dir() / "oa20_2e8_5e1.txt").read_text()
    lines = src.splitlines()
    header = next(i for i, l in enumerate(lines) if l.startswith("OA"))
    row = lines[header + 1].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[header + 1] = " ".join(row)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify", "oa", str(bad), "--strength", "2")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert any(r["kind"] == "count-imbalance" and 0 in r["columns"]
               for r in records)
    assert all("tuple" in r for r in records if r["kind"] == "count-imbalance")


def test_construct_expand_verify_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "l.loa"
    code, _ = run(capsys, "construct", "sylvester2", "--n", "3", "--k", "7",
                  "--expand", "-o", str(out_file))
    assert code == 0
    code, out = run(capsys, "verify", "loa", str(out_file), "--strength", "2")
    assert code == 0 and "M=16" in out


def _fixture_set_with_member_3(tmp_path, change):
    """The oa20 fixture's large set, written with member 3 replaced by
    change(member 3's cells, member 0's cells)."""
    ls = fixture_loa("oa20_2e8_5e1")
    members = list(ls.members)
    members[3] = SymbolMatrix(ls.profile, change(ls.cells[3], ls.cells[0]), ls.member_t[3])
    path = tmp_path / "l20.loa"
    write_array(LargeSet(ls.profile, members, ls.t), path)
    return path


def test_verify_loa_accepts_a_member_with_its_rows_reversed(capsys, tmp_path):
    # not a relabelling of member 0, so member 3 is counted, and it passes
    path = _fixture_set_with_member_3(tmp_path, lambda mine, zero: mine[::-1])
    code, out = run(capsys, "verify", "loa", str(path))
    assert code == 0 and out.startswith("ok:")


def test_verify_loa_rejects_a_non_injective_relabelling(capsys, tmp_path):
    def collapse(mine, zero):  # member 0 with symbol 4 of the 5-level column sent to 3
        cells = zero.copy()
        cells[:, 2][cells[:, 2] == 4] = 3
        return cells

    path = _fixture_set_with_member_3(tmp_path, collapse)
    code, out = run(capsys, "verify", "loa", str(path))
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert {"kind": "member-strength", "member": 3} in records
    assert all(r.get("member", 3) == 3 for r in records)


def test_expand_cli_with_explicit_columns(capsys, tmp_path):
    src = fixture_dir() / "oa40_5e1_2e6.txt"
    out_file = tmp_path / "l40.loa"
    code, out = run(capsys, "expand", str(src), "--columns", "0,1,2,3",
                    "-o", str(out_file))
    assert code == 0 and out_file.exists()


def test_compose_juxtapose_cli(capsys, tmp_path):
    l16 = tmp_path / "l16.loa"
    l40 = tmp_path / "l40.loa"
    out_file = tmp_path / "l56.loa"
    assert run(capsys, "construct", "sylvester3", "--n", "3", "--k", "7",
               "--expand", "-o", str(l16))[0] == 0
    assert run(capsys, "expand", str(fixture_dir() / "oa40_5e1_2e6.txt"),
               "-o", str(l40))[0] == 0
    code, out = run(capsys, "compose", "juxtapose", str(l16), str(l40),
                    "-o", str(out_file))
    assert code == 0 and "LOA(56,7^1,2^6,3)" in out
    code, out = run(capsys, "verify", "loa", str(out_file), "--strength", "3")
    assert code == 0


def test_compose_kronecker_cli(capsys, tmp_path):
    a = tmp_path / "a.loa"
    out_file = tmp_path / "k.oa"
    assert run(capsys, "construct", "sylvester2", "--n", "2", "--k", "3",
               "--expand", "-o", str(a))[0] == 0
    code, out = run(capsys, "compose", "kronecker", str(a), str(a),
                    "-o", str(out_file))
    assert code == 0 and "OA(32,2^6,5)" in out


def test_compose_kronecker_counts_its_output_once_and_no_input(capsys, counts, tmp_path):
    """The output's count at t1 + t2 + 1 proves it whatever the inputs are,
    so neither input is counted as a large set."""
    a = tmp_path / "a.loa"
    assert run(capsys, "construct", "sylvester2", "--n", "2", "--k", "3",
               "--expand", "-o", str(a))[0] == 0
    counts.clear()
    code, out = run(capsys, "compose", "kronecker", str(a), str(a), "-o", str(tmp_path / "k.oa"))
    assert code == 0 and counts == [(1, 32, 6, 5)]


def test_compose_kronecker_of_a_set_that_is_not_a_large_set_names_the_output_subsets(
        capsys, tmp_path):
    """Members whose column 1 is constant have no strength 1; the pairing's
    output is refused with its own failing subsets, and nothing is written."""
    profile = LevelProfile([2, 2])
    bad = tmp_path / "bad.loa"
    write_array(LargeSet(profile, [SymbolMatrix(profile, [[0, 0], [1, 0]], t=1),
                                   SymbolMatrix(profile, [[0, 1], [1, 1]], t=1)], t=1), bad)
    out_file = tmp_path / "k.oa"
    code, out = run(capsys, "compose", "kronecker", str(bad), str(bad), "-o", str(out_file))
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and not out_file.exists()
    assert records[-1]["kind"] == "VerificationError"
    assert records[-1]["message"].startswith("Kronecker pairing failed its strength-3 check"
                                             " on subsets [(")
    failures = records[:-1]  # one record per failing tuple of the output
    assert failures and all(r["kind"] == "count-imbalance" for r in failures)
    assert str(tuple(failures[0]["columns"])) in records[-1]["message"]


def test_compose_kronecker_of_empty_large_sets_counts_its_empty_output(capsys, tmp_path):
    """Two M = 1 sets of N = 0 members pair into a 0-row array on k1 + k2
    columns, which is counted like any array (as `verify oa` counts an N = 0
    file) and written."""
    empty = tmp_path / "empty.loa"
    empty.write_text("LOA M=1\nOA N=0 t=2 levels=2^3\n")
    out_file = tmp_path / "k.oa"
    code = main(["compose", "kronecker", str(empty), str(empty), "-o", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.startswith("OA(0,2^6,5)") and captured.err == ""
    assert "Traceback" not in captured.out + captured.err
    assert out_file.read_text() == "OA N=0 t=5 levels=2^6\n"


def test_theorem_cli(capsys, tmp_path):
    out_file = tmp_path / "t.oa"
    code, out = run(capsys, "theorem", "v1+v3-2", "--params", "v=4,k=5",
                    "-o", str(out_file))
    assert code == 0 and "OA(4096,4^8,4) verified" in out
    code, out = run(capsys, "verify", "oa", str(out_file), "--strength", "4")
    assert code == 0


def test_verify_verdicts_on_a_block_counted_array_are_pinned(capsys, tmp_path):
    """v1+v3-2 at v=4, k=6 (16,384 x 10, t = 4) is counted by blocks of
    columns; with one cell changed, `verify oa` and `verify oa --fail-fast`
    print what the one-table-per-subset kernel printed, byte for byte."""
    out = tmp_path / "t.oa"
    assert run(capsys, "theorem", "v1+v3-2", "--params", "v=4,k=6", "-o", str(out))[0] == 0
    a = read_array(out)
    assert arrays._strength_plan(a.profile.levels, 4, a.n).axes is not None
    cells = a.cells.copy()
    cells[1000, 7] = (cells[1000, 7] + 1) % 4
    bad = tmp_path / "bad.oa"
    write_array(SymbolMatrix(a.profile, cells, a.t), bad)
    pinned = (Path(__file__).parent / "data" / "verify_oa_v1v3-2_k6_cell.txt").read_text()
    assert run(capsys, "verify", "oa", str(bad)) == (1, pinned)
    assert run(capsys, "verify", "oa", "--fail-fast", str(bad)) == (1, (
        '{"columns": [0, 1, 2, 7], "expected": "64", "kind": "count-imbalance",'
        ' "observed": 63, "tuple": [3, 3, 3, 1]}\n'
        '{"columns": [0, 1, 2, 7], "expected": "64", "kind": "count-imbalance",'
        ' "observed": 65, "tuple": [3, 3, 3, 2]}\n'))


def test_theorem_constraint_violation_is_usage_error(capsys):
    code, _ = run(capsys, "theorem", "doublev3-2", "--params", "v=6,k=5")
    assert code == 2


def test_chai2_cli_reports_verdict(capsys, tmp_path):
    code, out = run(capsys, "construct", "chai2", "--v", "4",
                    "-o", str(tmp_path / "c.oa"))
    assert code == 1
    assert "self-check verdict: NOT an OA" in out
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    assert all(r["columns"] == [13, 17] for r in records)


def test_construct_linear_recipes_cli(capsys, tmp_path):
    code, out = run(capsys, "construct", "bush", "--q", "4", "--t", "3",
                    "--k", "6", "-o", str(tmp_path / "b.oa"))
    assert code == 0 and "OA(64,4^6,3)" in out
    code, out = run(capsys, "construct", "projective", "--q", "3", "--n", "2",
                    "--k", "4", "-o", str(tmp_path / "p.oa"))
    assert code == 0 and "OA(9,3^4,2)" in out
    code, out = run(capsys, "construct", "q4t3", "--q", "3", "--k", "10",
                    "-o", str(tmp_path / "q.oa"))
    assert code == 0 and "OA(81,3^10,3)" in out
    code, out = run(capsys, "construct", "q4t3", "--q", "3^1", "--k", "5",
                    "-o", str(tmp_path / "q2.oa"))
    assert code == 0  # --q accepts p^e form


def test_fixture_without_marked_comment_is_inferred(capsys, tmp_path):
    from oaforge.fixtures import FIXTURES, fixture_dir, fixtures_check

    for fx in FIXTURES:
        src = (fixture_dir() / f"{fx.name}.txt").read_text()
        if fx.name == "oa20_2e8_5e1":
            src = "\n".join(line for line in src.splitlines()
                            if not line.startswith("# marked")) + "\n"
        (tmp_path / f"{fx.name}.txt").write_text(src)
    report = fixtures_check(tmp_path, expand=False)
    assert report.ok
    by_name = {r.name: r for r in report.results}
    assert "inferred" in by_name["oa20_2e8_5e1"].details


def test_chai1_with_dm_file(capsys, tmp_path):
    from oaforge.diffmatrix import field_dm, write_dm

    dm_file = tmp_path / "d.dm"
    write_dm(field_dm(5, 4), dm_file)
    code, out = run(capsys, "construct", "chai1", "--v", "5",
                    "--dm-file", str(dm_file), "-o", str(tmp_path / "c.oa"))
    assert code == 0 and "OA(125,5^13,2)" in out


def test_dm_file_is_a_chai1_leaf_parameter(capsys, tmp_path):
    dm = dm_for(5)
    write_dm(dm, tmp_path / "d5.dm")
    assert run(capsys, "construct", "chai1", "--v", "5", "-o", str(tmp_path / "a.oa"))[0] == 0
    code, _ = run(capsys, "construct", "chai1", "--v", "5", "--dm-file",
                  str(tmp_path / "d5.dm"), "-o", str(tmp_path / "b.oa"))
    assert code == 0
    assert (tmp_path / "a.oa").read_bytes() == (tmp_path / "b.oa").read_bytes()

    entries = dm.entries.copy()
    entries[1, 1] = entries[2, 1]  # column 1 repeats a symbol
    write_dm(DifferenceMatrix(dm.group, entries), tmp_path / "bad.dm")
    code, out = run(capsys, "construct", "chai1", "--v", "5", "--dm-file",
                    str(tmp_path / "bad.dm"), "-o", str(tmp_path / "c.oa"))
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and not (tmp_path / "c.oa").exists()
    assert {r["kind"] for r in records[:-1]} == {"dm-pair"}
    assert {tuple(r["columns"]) for r in records[:-1]} == {(0, 1), (1, 2), (1, 3)}
    assert records[-1]["kind"] == "VerificationError"

    code, out = run(capsys, "construct", "chai1", "--v", "7", "--dm-file",
                    str(tmp_path / "d5.dm"), "-o", str(tmp_path / "c.oa"))
    assert code == 2 and out == "" and not (tmp_path / "c.oa").exists()


def test_construct_expand_counts_only_its_seed(capsys, counts):
    code, out = run(capsys, "construct", "q4t3", "--q", "3", "--k", "10", "--expand")
    assert code == 0 and "LOA(81,3^10,3) M=729" in out
    assert counts == [(1, 81, 10, 3)]


def test_construct_expand_is_not_charged_to_the_budget(capsys):
    # its members are not counted again, so 4096 x 256 rows fit the default
    code, out = run(capsys, "construct", "q4t3", "--q", "4", "--k", "10", "--expand")
    assert code == 0 and "LOA(256,4^10,3) M=4096" in out


# what each `expand` and `construct ... --expand` command of the README's CLI
# tour and of this file printed, returned and wrote (files by SHA-256) before
# `expand` ran as a plan tree, and last the 21 MB q4t3 q=4 file as it was
# written before expansions were built a chunk at a time; "setup" holds
# input files made in the directory
EXPAND_CAPTURES = json.loads((Path(__file__).parent / "data" / "expand_cli.json").read_text())


@pytest.mark.parametrize("capture", EXPAND_CAPTURES, ids=lambda c: c["command"])
def test_expand_commands_print_and_write_what_they_did_before(capsys, monkeypatch, tmp_path,
                                                             capture):
    monkeypatch.chdir(tmp_path)
    for name, text in capture["setup"].items():
        (tmp_path / name).write_text(text)
    fix = str(fixture_dir())
    try:
        code = main([arg.replace("$FIX", fix) for arg in shlex.split(capture["command"])])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir()) if path.name not in capture["setup"]}
    assert (code, out.replace(fix, "$FIX"), err.replace(fix, "$FIX"), written) == (
        capture["exit"], capture["stdout"], capture["stderr"], capture["files"])


def test_expand_counts_only_its_seed(capsys, counts, relabels, tmp_path):
    # the 24-row seed is counted at its header t = 2; the 4096 members get
    # the occupancy pass only, with no relabelling certificate
    code, out = run(capsys, "expand", str(fixture_dir() / "oa24_2e13_3e1_4e1.txt"),
                    "-o", str(tmp_path / "l24.loa"))
    assert code == 0 and "LOA(24,2^13,3^1,4^1,2) M=4096" in out
    assert counts == [(1, 24, 15, 2)] and relabels == []


def test_expand_of_a_changed_seed_names_its_failing_columns(capsys, tmp_path):
    a = read_array(fixture_dir() / "oa20_2e8_5e1.txt")
    cells = a.cells.copy()
    cells[0, 3] = 1 - cells[0, 3]
    bad = tmp_path / "bad20.oa"
    write_array(SymbolMatrix(a.profile, cells, a.t), bad)
    out_file = tmp_path / "l20.loa"
    code, out = run(capsys, "expand", str(bad), "-o", str(out_file))
    assert code == 1 and not out_file.exists()
    lines = out.splitlines()
    assert lines[0] == "using resolvable columns (0, 1, 8)"
    records = [json.loads(line) for line in lines[1:]]
    assert records[0] == {"columns": [0, 3], "expected": "5", "kind": "count-imbalance",
                          "observed": 4, "tuple": [0, 0]}
    assert {tuple(r["columns"]) for r in records[:-1]} == {
        tuple(sorted((j, 3))) for j in range(9) if j != 3}
    assert records[-1] == {"kind": "VerificationError",
                           "message": "input array failed its strength-2 check"}
    # the seed's failures, as `verify oa` names them
    assert run(capsys, "verify", "oa", str(bad)) == (1, "".join(
        line + "\n" for line in lines[1:-1]))


def test_expand_is_charged_its_seeds_count(capsys, monkeypatch, tmp_path):
    oa24 = str(fixture_dir() / "oa24_2e13_3e1_4e1.txt")
    # N x C(k, t) = 24 x 105 = 2520 counting operations, not M x N x C(k, t)
    code, _ = run(capsys, "expand", oa24, "--budget", "1e4", "-o", str(tmp_path / "a.loa"))
    assert code == 0 and (tmp_path / "a.loa").exists()
    expansions = []
    monkeypatch.setattr(compose, "expand_shift", lambda *args: expansions.append(args))
    code, out = run(capsys, "expand", oa24, "--budget", "1000", "-o", str(tmp_path / "b.loa"))
    assert code == 1 and not (tmp_path / "b.loa").exists() and expansions == []
    assert out.splitlines() == ["using resolvable columns (1, 2, 8, 13)", json.dumps(
        {"kind": "BudgetExceededError",
         "message": "strength check needs 2520 counting ops, budget 1000"}, sort_keys=True)]


def test_fixtures_counts_each_seed_once(capsys, counts, relabels):
    code, out = run(capsys, "fixtures")
    assert code == 0 and out.count(": ok") == 8
    assert counts == [(1, fx.n, LevelProfile.parse(fx.profile).k, fx.t) for fx in FIXTURES]
    assert relabels == []  # each expansion gets the occupancy pass only


def test_search_dm_cli(capsys, tmp_path):
    code, out = run(capsys, "search", "dm", "--v", "5", "--k", "4",
                    "-o", str(tmp_path / "d.dm"))
    assert code == 0 and "found (5,4,1)" in out
    code, out = run(capsys, "verify", "dm", str(tmp_path / "d.dm"))
    assert code == 0
    code, out = run(capsys, "search", "dm", "--v", "3", "--k", "4")
    assert code == 0 and "proven" in out


def test_search_dm_writes_files_that_verify(capsys, tmp_path):
    """The trivial group's element is written 0, so a v = 1 matrix reads
    back; other files keep their bytes."""
    for argv, want in (
        (("--v", "1", "--k", "2"), "DM v=1 k=2 group=Z1\n0 0\n"),
        (("--v", "7", "--k", "4"), "DM v=7 k=4 group=Z7\n0 0 0 0\n0 1 2 3\n0 2 4 6\n"
                                   "0 3 6 2\n0 4 1 5\n0 5 3 1\n0 6 5 4\n"),
    ):
        path = tmp_path / "d.dm"
        assert run(capsys, "search", "dm", *argv, "-o", str(path))[0] == 0
        assert path.read_text() == want
        code, out = run(capsys, "verify", "dm", str(path))
        assert code == 0 and out.startswith("ok:")


def test_oracle_cli(capsys):
    path = fixture_dir() / "oa54_3e5_2e1.txt"
    code, out = run(capsys, "oracle", str(path), "--strength", "3")
    assert code == 0 and out.startswith("ok:")


def test_fixtures_cli(capsys):
    code, out = run(capsys, "fixtures", "--no-expand")
    assert code == 0
    assert out.count(": ok") == 8


def test_fixtures_empty_dir(capsys, tmp_path):
    code, out = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 1 and "no fixtures installed" in out


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog", "table5")
    assert code == 0
    assert out.count("table5 row") == 5


def test_catalog_run_cli_reports_honest_failure(capsys):
    # the 29-column family's self-check failure must surface as a nonzero exit
    code, out = run(capsys, "catalog", "table5", "--run")
    assert code == 1
    assert "failed:" in out and "(13, 17)" in out
    assert out.count("verified") == 4


def test_catalog_run_cli_theorems_subset(capsys):
    code, out = run(capsys, "catalog", "table6", "--run", "--budget", "1e6")
    assert code == 0
    assert "skipped(budget)" in out
    assert "unreconciled" in out


def test_compose_wrong_kind_file(capsys, tmp_path):
    path = fixture_dir() / "oa54_3e5_2e1.txt"
    code, out = run(capsys, "compose", "juxtapose", str(path), str(path),
                    "-o", str(tmp_path / "x.loa"))
    assert code == 1
    assert "large-set" in out


def test_theorem_without_output(capsys):
    code, out = run(capsys, "theorem", "tt-1n2-3", "--params",
                    "s=2,t=2,n=2,k1=3")
    assert code == 0 and "no output file requested" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.oa"
    bad.write_text("OA N=1 t=1 levels=2^2\n0 7\n")
    code, out = run(capsys, "verify", "oa", str(bad))
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert record["kind"] == "parse-error" and record["line"] == 2


@pytest.mark.parametrize("kind, content, line", [
    ("oa", b"OA N=1 t=1 levels=2^2\n0 \xff\n", 2),
    ("oa", b"OA N=1 t=1 levels=2^2\n0 1\n5 5 5\n", 3),
    ("loa", b"LOA M=2\nOA N=1 t=0 levels=2^1\n0\n\n"
            b"OA N=1000000000000 t=0 levels=2^1\n1\n", 5),
    ("dm", b"DM v=4 k=1 group=Z2xQ\n0\n1\n2\n3\n", 1),
    ("dm", b"DM v=1 k=1000000000000 group=Z1\n0\n", 1),  # sized before any allocation
    ("dm", b"DM v=1 k=-3 group=Z1\n0\n", 1),
])
def test_garbled_file_is_a_parse_error_record(capsys, tmp_path, kind, content, line):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    code, out = run(capsys, "verify", kind, str(bad))
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert record["kind"] == "parse-error" and record["line"] == line


def test_huge_member_count_of_empty_members_is_a_parse_error_record(capsys, tmp_path):
    """M far beyond the file's lines, with N = 0 members: the members are
    bounded by the lines left, and the file is refused where it ends."""
    bad = tmp_path / "bad.loa"
    bad.write_text("LOA M=9999999999999999999993\n" + "OA N=0 t=0 levels=2^2\n\n" * 2)
    code, out = run(capsys, "verify", "loa", str(bad))
    assert code == 1 and capsys.readouterr().err == ""
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["kind"] == "parse-error" and record["line"] == 6
    assert "Traceback" not in out


@pytest.mark.parametrize("t", ["-1", "9"])
@pytest.mark.parametrize("command", ["verify oa {oa}", "verify loa {loa}", "expand {oa} -o {out}",
                                     "oracle {oa}", "compose juxtapose {loa} {loa} -o {out}"])
def test_header_strength_outside_zero_to_k_is_a_parse_error(capsys, tmp_path, command, t):
    oa = tmp_path / "a.oa"
    oa.write_text(f"OA N=2 t={t} levels=2^2\n0 1\n1 0\n")
    loa = tmp_path / "l.loa"
    loa.write_text("LOA M=2\nOA N=1 t=1 levels=2^2\n0 1\n\n"
                   f"OA N=1 t={t} levels=2^2\n1 0\n")
    out = tmp_path / "out.loa"
    code, stdout = run(capsys, *command.format(oa=oa, loa=loa, out=out).split())
    assert code == 1 and capsys.readouterr().err == ""
    (record,) = [json.loads(line) for line in stdout.splitlines()]
    assert record["kind"] == "parse-error" and f"t={t} is outside [0, 2]" in record["message"]
    assert record["line"] == (5 if "{loa}" in command else 1)
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["construct", "nonsense"])
    assert err.value.code == 2


def test_global_flags_accepted_after_subcommand(capsys):
    path = fixture_dir() / "oa54_3e5_2e1.txt"
    code, out = run(capsys, "verify", "oa", str(path), "--strength", "3",
                    "--budget", "1e8")
    assert code == 0 and out.startswith("ok:")
    code, out = run(capsys, "search", "dm", "--v", "7", "--k", "4",
                    "--budget", "25")
    assert code == 1 and "budget exhausted" in out
    code, out = run(capsys, "--budget", "25", "search", "dm", "--v", "7", "--k", "4")
    assert code == 1 and "budget exhausted" in out


# each row exits with the code given: 2 for a usage error, with one "error:"
# line on standard error; 1 for a size cap, with one line on standard output
CLI_ERRORS = [
    ("construct q4t3 --q 3 --k 11", 2),
    ("construct q4t3 --q 2 --k 5", 2),
    ("construct projective --q 3 --n 1 --k 3", 2),
    ("construct projective --q 3 --n 3 --k 2", 2),
    ("construct bush --q 3 --t 5 --k 4", 2),
    ("construct sylvester2 --n 1 --k 1", 2),
    ("construct chai1 --v 6", 2),
    ("search dm --v 4 --k 4 --group Z2xQ", 2),
    ("search dm --v 4 --k 4 --group Z2xZ3", 2),
    ("search dm --v 0 --k 0", 2),
    ("search dm --v -3 --k 3", 2),
    ("search dm --v 3 --k -1", 2),
    ("search dm --v 3 --k 0 -o {dir}/k0.dm", 2),
    ("verify oa {oa} --strength 99", 2),
    ("verify loa {loa} --strength 99", 2),
    ("oracle {oa} --strength 99", 2),
    ("--threads 0 verify oa {oa}", 2),
    ("verify oa {oa} --threads 0", 2),
    ("--budget -5 verify oa {oa}", 2),
    ("verify oa {oa} --budget -5", 2),
    ("compose juxtapose {loa} {loa4} -o {out}", 2),
    ("construct chai1 --v 7 --expand", 1),
    ("search dm --v 60 --k 4", 1),
    ("construct sylvester2 --n 3 --k 7 --keep 0,0,1,2", 2),
    ("construct sylvester2 --n 3 --k 7 --keep 0,1,2,99", 2),
    ("construct sylvester2 --n 3 --k 7 --keep 1,2,3 --expand", 2),
    ("expand {oa} --keep 0,0 -o {out}", 2),
    ("expand {oa} --columns 0,99 -o {out}", 2),
    ("expand {oa} --columns 0,0 -o {out}", 2),
    ("construct sylvester2 --n 3 --k 7 --q 5 --v 9 --dm-file nonexistent.dm -o {out}", 2),
    ("construct chai1 --v 5 --dm-file {dm3} -o {out}", 2),
    ("construct chai2 --v 5 --dm-file {dm3} -o {out}", 2),
    ("construct chai1 --v 4099", 2),
    ("construct chai1 --v 1000 -o {out}", 1),
    ("construct chai2 --v 200 -o {out}", 1),
    ("construct chai1 --v 1000000000000000003", 2),
    ("construct chai2 --v 1000000000000000003", 2),
    ("construct chai1 --v 4096", 1),
    ("theorem doublev3-2 --params v=1000,k=5 -o {out}", 1),
    ("theorem v1+v3-2 --params v=4,k -o {out}", 2),
    ("construct projective --q 2^20000 --n 2 --k 3", 2),
    ("construct projective --q 3^999999999 --n 2 --k 3", 2),
    ("construct projective --q 1000000000000000003 --n 2 --k 3", 2),
    ("construct projective --q 1000000000000000003^1 --n 2 --k 3", 2),
    ("theorem v1+q4-3 --params v=2,k1=3,q=1000000000000000003,k2=4 -o {out}", 2),
    # a path that is a directory, or below a file, cannot be opened
    ("verify loa {dir}", 2),
    ("verify oa {oa}/x", 2),
    ("oracle {dir}", 2),
    ("verify dm {dir}", 2),
    ("expand {dir} -o {out}", 2),
    ("compose juxtapose {dir} {loa} -o {out}", 2),
    ("theorem v1+v3-2 --params v=4,k=5 -o {dir}", 2),
    # recipe outputs that cannot fit (refused before a power is computed), a level
    # above 2^31, and a parameter given twice
    ("theorem v1+v3-2 --params v=99999999999,k=5 -o {out}", 1),
    ("theorem v1+q4-3 --params v=99999999999,k1=3,q=3,k2=4 -o {out}", 2),
    ("theorem v12n-4 --params v=2,k1=20000,n=2,k2=3 -o {out}", 1),
    ("theorem tt-1n2-3 --params s=2,t=99999,n=2,k1=3 -o {out}", 1),
    ("theorem tt-1n2-3 --params s=3,t=100000000,n=2,k1=3 -o {out}", 1),
    ("theorem v1+q4-3 --params v=3,k1=100000000,q=3,k2=4 -o {out}", 1),
    ("theorem v1+q4-3 --params v=2,k1=3,q=4093,k2=16752650 -o {out}", 1),
    ("theorem qn2n-com --params q=3,m=100000000,k1=100000000,n=2,k2=3 -o {out}", 1),
    ("theorem v12n-4 --params v=2,k1=3,n=1000000000000,k2=1000000000000 -o {out}", 1),
    ("theorem v1+v3-2 --params v=4,k=5,k=6 -o {out}", 2),
    # a parameter of more digits than Python converts to an int
    ("theorem v1+v3-2 --params v={nines},k=5 -o {out}", 2),
]

CLI_TIME_BOUND = 5.0  # seconds of wall time a CLI_ERRORS row may run before it is stopped


class _Expired(BaseException):
    """Raised by SIGALRM in a row still running after CLI_TIME_BOUND; not an
    Exception, so that no handler of the program catches it."""


def _expire(signum, frame):
    raise _Expired(f"still running after {CLI_TIME_BOUND} s")


@pytest.mark.parametrize("argv, exit_code", [pytest.param(a, c, id=a) for a, c in CLI_ERRORS])
def test_linear_parameter_errors_are_usage_errors(capsys, counts, tmp_path, argv, exit_code):
    loa = tmp_path / "l5.loa"  # a 5-column large set
    write_array(expand_shift(*sylvester_oa2(3, 5)), loa)
    loa4 = tmp_path / "l4.loa"  # and a 4-column one
    write_array(expand_shift(*sylvester_oa2(3, 4)), loa4)
    oa = fixture_dir() / "oa54_3e5_2e1.txt"
    dm3 = tmp_path / "k3.dm"  # a (5, 3, 1)-DM, one column short of a development's
    write_dm(field_dm(5, 3), dm3)
    out = tmp_path / "out.loa"
    counts.clear()  # those of building the inputs above
    # a row that hangs is stopped by SIGALRM in this thread, which starts no
    # thread or process
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, CLI_TIME_BOUND)
    start = time.perf_counter()
    try:
        code = main([arg.format(oa=oa, loa=loa, loa4=loa4, dm3=dm3, out=out, dir=tmp_path,
                                nines="9" * 5000) for arg in argv.split()])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == exit_code
    if exit_code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    else:
        assert captured.err == "" and len(captured.out.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()
    if argv.startswith("expand"):  # refused before its seed is counted
        assert counts == []


@pytest.mark.parametrize("argv, label", [
    ("construct q4t3 --q 16 --k 6", "OA(65536,16^6,3)"),
    ("construct bush --q 16 --t 5 --k 6", "OA(1048576,16^6,5)"),
])
def test_linear_constructions_at_q16_verify(capsys, argv, label):
    start = time.perf_counter()
    code, out = run(capsys, *argv.split())
    assert code == 0 and out.startswith(label)
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("argv, label", [
    ("construct q4t3 --q 32 --k 6", "OA(1048576,32^6,3)"),
    ("construct projective --q 64 --n 3 --k 5", "OA(262144,64^5,2)"),
])
def test_linear_constructions_are_charged_for_the_columns_they_emit(capsys, argv, label):
    # q^m rows x l columns would be over the cap (32^4 x 1025, 64^3 x 4161);
    # only the k columns emitted are built and counted
    start = time.perf_counter()
    code, out = run(capsys, *argv.split())
    assert code == 0 and out.startswith(label)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv", [
    "construct projective --q 512 --n 2 --k 3",
    "construct bush --q 512 --t 2 --k 3",
])
def test_linear_constructions_over_gf512_verify(capsys, argv):
    # GF(2^9): a binary field above degree 8, below the order cap
    code, out = run(capsys, *argv.split())
    assert code == 0 and out.startswith("OA(262144,512^3,2)")


def test_oversized_linear_construction_is_refused_at_once(capsys):
    code, out = run(capsys, "construct", "projective", "--q", "4093", "--n", "3",
                    "--k", "5")
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert record["kind"] == "BudgetExceededError" and "4093^3 rows" in record["message"]


def test_verify_dm_non_utf8_is_a_parse_error_record(capsys, tmp_path):
    from oaforge.diffmatrix import dm_for, dumps_dm

    lines = dumps_dm(dm_for(4)).encode().split(b"\n")
    lines[2] = lines[2] + b" \xff"
    bad = tmp_path / "bad.dm"
    bad.write_bytes(b"\n".join(lines))
    code, out = run(capsys, "verify", "dm", str(bad))
    assert code == 1
    record = json.loads(out.splitlines()[0])
    assert record["kind"] == "parse-error" and record["line"] == 3


def test_verify_dm_reads_crlf_files(capsys, tmp_path):
    from oaforge.diffmatrix import dm_for, dumps_dm

    path = tmp_path / "crlf.dm"
    path.write_bytes(dumps_dm(dm_for(4)).replace("\n", "\r\n").encode())
    code, out = run(capsys, "verify", "dm", str(path))
    assert code == 0 and out.startswith("ok:")


SUBCOMMANDS = ("construct", "expand", "verify", "oracle", "compose", "theorem", "catalog",
               "search", "fixtures")


def _documented_commands() -> list[str]:
    """Each `oaforge ...` line of the README's CLI tour, each distinct
    catalog command, and each whole command quoted in the README's prose: a
    subcommand, an argument and a flag, so not `construct --expand` or
    `expand FILE`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in tour.splitlines() if line.startswith("oaforge ")]
    lines += [e.command.replace(FIX, "$FIX") for e in catalog("all") if e.command]
    lines += ["oaforge " + " ".join(span.split()) for span in re.findall(
        rf"`((?:{'|'.join(SUBCOMMANDS)}) [^`.\-][^`]* -[^`]*)`", readme)]
    return list(dict.fromkeys(lines))


@pytest.mark.parametrize("command", _documented_commands())
def test_documented_commands_parse(capsys, command):
    argv = shlex.split(command, comments=True)
    assert argv[0] == "oaforge"
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit as exc:  # a usage error, named on standard error
        pytest.fail(f"{command!r} exits {exc.code}: {capsys.readouterr().err.strip()}")
