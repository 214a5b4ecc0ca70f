"""Cells are stored in their profile's dtype: uint8 when every level is at
most 256, int32 above.  Every producer builds its cells in that dtype, every
symbol is checked against its level before it is narrowed, and arithmetic
whose result can pass 255 is done wide."""

import hashlib
import json
import os
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oaforge
from oaforge import compose, formats
from oaforge.arrays import (
    LargeSet,
    LevelProfile,
    SymbolMatrix,
    brute_force_strength,
    full_factorial,
    project_columns,
    verify_large_set,
)
from oaforge.compose import cosets_strength1, juxtapose, kronecker, leaf, run_leaf
from oaforge.errors import ParseError, VerificationError
from oaforge.expand import ResolvableProjection, expand_shift
from oaforge.fixtures import fixture_loa

# -- narrowing cannot hide a bad symbol ---------------------------------------------


@pytest.mark.parametrize("symbol", [256, 257, -1, -255])
def test_a_symbol_that_narrowing_would_wrap_is_refused(symbol):
    with pytest.raises(ValueError) as err:
        SymbolMatrix(LevelProfile([2, 2]), [[0, 1], [1, symbol]])
    assert str(err.value) == f"symbol {symbol} out of range in column 1 (row 1)"


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_a_wide_array_is_range_checked_before_it_is_narrowed(dtype):
    cells = np.array([[0, 1], [1, 257]], dtype=dtype)
    with pytest.raises(ValueError, match="symbol 257 out of range in column 1"):
        SymbolMatrix(LevelProfile([2, 2]), cells)


def test_a_256_level_profile_takes_255_and_refuses_256():
    profile = LevelProfile([256, 2])
    a = SymbolMatrix(profile, [[255, 1], [0, 0]])
    assert a.cells.dtype == np.uint8 and a.cells[0, 0] == 255
    with pytest.raises(ValueError) as err:
        SymbolMatrix(profile, [[256, 1], [0, 0]])
    assert str(err.value) == "symbol 256 out of range in column 0 (row 0)"


def test_the_dtype_is_uint8_up_to_256_levels_and_int32_above():
    assert LevelProfile([2, 256]).dtype == np.uint8
    assert LevelProfile([257, 2]).dtype == np.int32
    assert LevelProfile([2**31]).dtype == np.int32


def test_cells_of_another_dtype_are_refused_where_they_are_not_copied():
    profile = LevelProfile([2, 2])
    with pytest.raises(TypeError, match="int32"):
        SymbolMatrix._trusted(profile, np.zeros((2, 2), dtype=np.int32), 1)
    with pytest.raises(TypeError, match="int32"):
        LargeSet._stacked(profile, np.zeros((1, 4, 2), dtype=np.int32), [1], 1)


def _records_text(levels):
    """Three members of 2 rows, single-digit writer text: read as 2-byte records."""
    profile = LevelProfile(levels)
    return formats.dumps(LargeSet(profile, [
        SymbolMatrix(profile, rows, t=1)
        for rows in ([[0, 1, 9], [2, 0, 7]], [[1, 1, 0], [0, 0, 9]], [[2, 1, 3], [1, 0, 5]])
    ], t=1))


@pytest.mark.parametrize("read", ["read_array", "loads"])
def test_a_wrong_separator_after_the_first_chunk_is_refused(monkeypatch, tmp_path, read):
    """Member 2's first row "2 1 3" with its first space made an "x": the
    symbol byte is intact, only the high byte of its 2-byte record is wrong.
    With two members a chunk the fault is in the second chunk, which the
    line reader refuses as it did when the cells were int32."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    text = _records_text([3, 2, 12])
    assert text.count("2 1 3") == 1
    bad = text.replace("2 1 3", "2x1 3")
    path = tmp_path / "l.loa"
    path.write_text(bad)
    with pytest.raises(ParseError) as err:
        formats.read_array(path) if read == "read_array" else formats.loads(bad)
    assert str(err.value) == "row has 2 symbols, expected 3 (line 11)"
    assert err.value.line == 11


# -- the 256 boundary in composition ---------------------------------------------------


def _one_member(levels) -> LargeSet:
    profile = LevelProfile(levels)
    return LargeSet(profile, [full_factorial(profile)], t=len(levels))


def test_juxtapose_across_256_levels_widens_before_it_relabels():
    """Levels 150 and 120 make 270: member 1's symbols 150 .. 269 would wrap
    in uint8, so the output is int32 and every verdict is the oracle's."""
    l1, l2 = _one_member([150, 2]), _one_member([120, 2])
    assert l1.cells.dtype == l2.cells.dtype == np.uint8
    out = juxtapose(l1, l2)
    assert out.profile.levels == (270, 2) and out.cells.dtype == np.int32
    wide = np.concatenate([l1.cells.astype(np.int64), l2.cells.astype(np.int64)], axis=1)
    wide[:, l1.n:, 0] += 150
    assert np.array_equal(out.cells, wide)
    assert verify_large_set(out, out.t).ok
    assert brute_force_strength(out.members[0], out.t).ok


def test_cosets_whose_sums_pass_255_before_the_modulo():
    """Levels (200, 250): N = lcm = 1000 and 50 members, so a first row plus
    its offset reaches 1049 before it is reduced."""
    levels = (200, 250)
    ls = cosets_strength1(LevelProfile(levels))
    n = lcm(*levels)
    firsts = np.indices((1, gcd(*levels))).reshape(2, -1).T
    want = (firsts[:, None, :] + np.arange(n)[None, :, None]) % np.asarray(levels)
    assert ls.cells.dtype == np.uint8 and ls.m == 50 and ls.n == n
    assert np.array_equal(ls.cells, want)


def test_projection_onto_narrow_columns_narrows():
    a = full_factorial(LevelProfile([300, 5, 5]))
    assert a.cells.dtype == np.int32
    b = project_columns(a, [2, 1])
    assert b.profile.levels == (5, 5) and b.cells.dtype == np.uint8
    assert np.array_equal(b.cells, a.cells[:, [2, 1]])
    assert b.cells.flags.c_contiguous and not b.cells.flags.writeable


# -- one dtype invariant over every producer --------------------------------------------


def _leaf(kind, **params):
    try:
        out = run_leaf(leaf(kind, **params))
    except VerificationError as exc:  # chai2's development fails its own check at v = 4
        out = exc.candidate
    return getattr(out, "matrix", out)


LEAF_PARAMS = {
    "fullfact": dict(v=2, k=1),
    "cosets": dict(v=2, k=1),
    "zerosum": dict(s=2, t=1),
    "sylvester2": dict(n=2, k=2),
    "sylvester3": dict(n=2, k=3),
    "projective": dict(q=2, n=2, k=2),
    "bush": dict(q=2, t=2, k=2),
    "q4t3": dict(q=3, k=4),
    "chai1": dict(v=4),
    "chai2": dict(v=4),
    "fixture": dict(name="oa20_2e8_5e1"),
}


def _read(text):
    def build():
        with mock.patch.object(formats, "CHUNK_CELLS", 12):  # the records two members a chunk
            return formats.loads(text)
    return build


def _wide_shift_seed():
    # column 0 resolves the two rows; column 1's 300 shifts make 300 members
    return SymbolMatrix(LevelProfile([2, 300]), [[0, 299], [1, 0]], t=0)


PRODUCERS = {
    **{f"leaf {kind}": (lambda kind=kind, p=p: _leaf(kind, **p))
       for kind, p in LEAF_PARAMS.items()},
    "leaf bush q=257 (int32)": lambda: _leaf("bush", q=257, t=2, k=2),
    "leaf cosets v=300 (int32)": lambda: _leaf("cosets", v=300, k=1),
    "records": _read(_records_text([3, 2, 12])),
    "records (int32)": _read(_records_text([3, 2, 300])),
    "_decode": _read(_records_text([3, 2, 12]).replace("9\n", "11\n")),
    "_decode (int32)": _read(_records_text([3, 2, 300]).replace("9\n", "299\n")),
    "_slow_rows": _read(_records_text([3, 2, 12]).replace("0 1 9", "0  1 9")),
    "_slow_rows (int32)": _read(_records_text([3, 2, 300]).replace("0 1 9", "0  1 299")),
    "expand_shift": lambda: expand_shift(*_leaf_with_projection("sylvester3", n=2, k=3)),
    "expand_shift (int32)": lambda: expand_shift(_wide_shift_seed(),
                                                 ResolvableProjection((0,), 2)),
    "juxtapose": lambda: juxtapose(_one_member([100, 2]), _one_member([50, 2])),
    "juxtapose (int32)": lambda: juxtapose(_one_member([150, 2]), _one_member([120, 2])),
    "kronecker": lambda: kronecker(cosets_strength1(LevelProfile([2] * 4)),
                                   fixture_loa("oa40_5e1_2e6")),
    "kronecker (int32)": lambda: kronecker(cosets_strength1(LevelProfile([300, 300])),
                                           cosets_strength1(LevelProfile([2, 2]))),
    "project_columns": lambda: project_columns(full_factorial(LevelProfile([300, 5, 5])),
                                               [1, 2]),
    "project_columns (int32)": lambda: project_columns(
        full_factorial(LevelProfile([300, 5, 5])), [0, 2]),
    "full_factorial": lambda: full_factorial(LevelProfile([2, 3])),
    "full_factorial (int32)": lambda: full_factorial(LevelProfile([300, 2])),
    "LargeSet": lambda: LargeSet(LevelProfile([2, 2]), [
        SymbolMatrix(LevelProfile([2, 2]), [[0, 0], [1, 1]], t=1),
        SymbolMatrix(LevelProfile([2, 2]), np.array([[0, 1], [1, 0]], dtype=np.int64), t=1),
    ], t=1),
    "LargeSet (int32)": lambda: _one_member([300, 2]),
}


def _leaf_with_projection(kind, **params):
    out = run_leaf(leaf(kind, **params))
    return out.matrix, out.projection


def test_every_leaf_kind_is_a_producer_case():
    assert set(LEAF_PARAMS) == set(compose.LEAVES)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_every_producer_stores_cells_in_the_profile_dtype(name):
    obj = PRODUCERS[name]()
    wide = name.endswith("(int32)")
    assert obj.profile.dtype == (np.int32 if wide else np.uint8)
    arrays = [obj.cells] + [m.cells for m in getattr(obj, "members", ())]
    for cells in arrays:
        assert cells.dtype == obj.profile.dtype
        assert cells.flags.c_contiguous and not cells.flags.writeable


# -- memory: the cells of an expansion take a byte a symbol ---------------------------

# The peak is read as VmHWM, the high-water mark of this process's own
# memory: ru_maxrss would carry over the peak of the process that started it.
MEMORY_SCRIPT = """
import sys
def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))
from oaforge import cli
before = peak()
code = cli.main(["construct", "q4t3", "--q", "4", "--k", "10", "--expand", "-o", sys.argv[1]])
print(code, peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_expanding_q4t3_q4_grows_rss_by_under_two_bytes_a_cell(tmp_path):
    """construct q4t3 --q 4 --k 10 --expand writes 4096 members of 256 x 10:
    10.5 million cells, held at one byte each.  In a fresh interpreter, the
    peak RSS grows by less than two bytes a cell past what importing took
    (measured: about 1.2 a cell; int32 cells took 4.2), and the file is the
    pinned one."""
    out = tmp_path / "l256.loa"
    src = str(Path(oaforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT, str(out)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    code, grown = (int(x) for x in run.stdout.split()[-2:])
    cells = 4 ** 6 * 4 ** 4 * 10
    assert code == 0 and grown < 2 * cells, f"RSS grew by {grown} bytes for {cells} cells"
    captures = json.loads((Path(__file__).parent / "data" / "expand_cli.json").read_text())
    pinned = next(c["files"]["l256.loa"] for c in captures
                  if c["command"] == "construct q4t3 --q 4 --k 10 --expand -o l256.loa")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned
