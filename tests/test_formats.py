"""Text format round trips and parse diagnostics."""

import io
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oaforge.formats as formats
from oaforge.arrays import LargeSet, LevelProfile, SymbolMatrix, full_factorial
from oaforge.errors import ParseError
from oaforge.formats import dumps, loads, read_array, write_array


def test_oa_block_roundtrip(tmp_path):
    ff = full_factorial(LevelProfile([2, 2, 2]))
    a = SymbolMatrix(ff.profile, ff.cells, t=2)
    path = tmp_path / "a.oa"
    write_array(a, path)
    assert read_array(path) == a


def test_header_example():
    text = "OA N=4 t=2 levels=2^3\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n"
    a = loads(text)
    assert a.n == 4 and a.t == 2 and a.profile.levels == (2, 2, 2)
    assert dumps(a) == text


def test_loa_roundtrip(tmp_path):
    profile = LevelProfile([2, 2, 2])
    even = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0]
    odd = [r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 1]
    ls = LargeSet(profile, [SymbolMatrix(profile, np.array(even), t=2),
                            SymbolMatrix(profile, np.array(odd), t=2)], t=2)
    path = tmp_path / "l.loa"
    write_array(ls, path)
    back = read_array(path)
    assert isinstance(back, LargeSet)
    assert back.m == 2 and back.t == 2
    for m1, m2 in zip(back.members, ls.members):
        assert m1 == m2


def test_symbol_out_of_range_names_line():
    text = "OA N=2 t=1 levels=4^1,2^1\n3 1\n5 0\n"
    with pytest.raises(ParseError) as err:
        loads(text)
    assert err.value.line == 3


def test_row_length_mismatch_names_line():
    text = "OA N=2 t=1 levels=2^2\n0 1\n0\n"
    with pytest.raises(ParseError) as err:
        loads(text)
    assert err.value.line == 3


def test_malformed_header():
    with pytest.raises(ParseError) as err:
        loads("OA N=x t=1 levels=2^2\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        loads("XX N=1\n")
    with pytest.raises(ParseError):
        loads("OA N=1 t=1\n0\n")  # missing levels
    with pytest.raises(ParseError):
        loads("")


def test_loa_requires_blank_separator():
    block = "OA N=1 t=0 levels=2^1\n0\n"
    with pytest.raises(ParseError, match="blank line"):
        loads("LOA M=2\n" + block + block)
    ls = loads("LOA M=2\n" + block + "\n" + "OA N=1 t=0 levels=2^1\n1\n")
    assert ls.m == 2


def test_comments_skipped_on_read():
    text = "# marked=0,1\nOA N=2 t=1 levels=2^2\n# a note\n0 1\n1 0\n"
    a = loads(text)
    assert a.n == 2


def test_write_requires_strength(tmp_path):
    a = SymbolMatrix(LevelProfile([2]), [[0]], t=None)
    path = tmp_path / "x.oa"
    with pytest.raises(ValueError):
        write_array(a, path)
    assert not path.exists()
    path.write_text("hello")
    with pytest.raises(ValueError):
        write_array(a, path)
    assert path.read_text() == "hello"


@pytest.mark.parametrize("t", [-1, 3])
def test_write_refuses_strength_outside_zero_to_k(tmp_path, t):
    a = SymbolMatrix(LevelProfile([2, 2]), [[0, 1]], t=t)
    ls = LargeSet(a.profile, [a.with_t(1), a], t=1)
    for obj in (a, ls):
        path = tmp_path / "x"
        path.write_text("hello")
        with pytest.raises(ValueError, match=f"strength {t} is outside"):
            write_array(obj, path)
        assert path.read_text() == "hello"
        with pytest.raises(ValueError):
            dumps(obj)


@pytest.mark.parametrize("text, line", [
    ("OA N=1 t=3 levels=2^2\n0 1\n", 1),
    ("OA N=1 t=-1 levels=2^2\n0 1\n", 1),
    ("# note\nOA N=1 t=2 levels=2^1,3^0\n0\n", 2),
    ("LOA M=2\nOA N=1 t=1 levels=2^2\n0 1\n\nOA N=1 t=9 levels=2^2\n1 0\n", 5),
])
def test_header_strength_outside_zero_to_k_is_refused(text, line):
    with pytest.raises(ParseError, match="is outside") as err:
        loads(text)
    assert err.value.line == line


@st.composite
def random_arrays(draw):
    k = draw(st.integers(1, 5))
    levels = draw(st.lists(st.integers(2, 6), min_size=k, max_size=k))
    n = draw(st.integers(1, 12))
    cells = [
        [draw(st.integers(0, levels[j] - 1)) for j in range(k)]
        for _ in range(n)
    ]
    t = draw(st.integers(0, k))
    return SymbolMatrix(LevelProfile(levels), np.array(cells, dtype=int), t=t)


@settings(max_examples=50, deadline=None)
@given(random_arrays())
def test_roundtrip_random(a):
    assert loads(dumps(a)) == a


# -- the vectorised reader and writer against per-symbol references -------------


def reference_dumps(obj):
    """The per-symbol writer: str() of every symbol."""
    def block(a):
        rows = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in a.cells)
        return f"OA N={a.n} t={a.t} levels={a.profile.format()}\n" + rows
    if isinstance(obj, SymbolMatrix):
        return block(obj)
    return f"LOA M={obj.m}\n" + "\n".join(block(a) for a in obj.members)


def reference_loads(text):
    """The per-symbol reader: every row split on whitespace and every symbol
    read with int().  Returns the array or large set, or the line of the
    ParseError loads must raise."""
    lines = text.split("\n")
    pos = 0

    def content():
        nonlocal pos
        while pos < len(lines):
            pos += 1
            line = lines[pos - 1]
            if line.strip() and not line.lstrip().startswith("#"):
                return line, pos
        return None, len(lines)

    def block(first=None):
        header, lineno = content()
        if header is None or header.split()[0] != "OA":  # a row or "0OA" read as a header
            return lineno
        kv = dict(part.split("=") for part in header.split()[1:])
        n, profile = int(kv["N"]), LevelProfile.parse(kv["levels"])
        # header sizes are checked against the file before any row is read
        if n > len(lines) - pos or max(n, 1) * profile.k > len(text.encode()):
            return lineno
        if first is not None and (n, profile) != (first.n, first.profile):
            return lineno  # every member has member 0's N and levels
        rows = []
        for _ in range(n):
            line, lineno = content()
            if line is None or len(line.split()) != profile.k:
                return lineno
            try:
                row = [int(f) for f in line.split()]
            except ValueError:
                return lineno
            if any(not 0 <= v < s for v, s in zip(row, profile.levels)):
                return lineno
            rows.append(row)
        return SymbolMatrix(profile, np.array(rows).reshape(n, profile.k), int(kv["t"]))

    def end(obj):  # only blank and comment lines may follow the last block
        extra, lineno = content()
        return obj if extra is None or isinstance(obj, int) else lineno

    header, _ = content()
    if header.startswith("OA"):
        pos = 0
        return end(block())
    members = []
    for i in range(int(header.split("=")[1])):
        if i:
            while lines[pos].lstrip().startswith("#"):
                pos += 1
            if lines[pos].strip():
                return pos + 1
            pos += 1
        member = block(members[0] if members else None)
        if isinstance(member, int):
            return member
        members.append(member)
    return end(LargeSet(members[0].profile, members, min(a.t for a in members)))


def _agrees(expected, read):
    """read() gives `expected`, the reference parser's object, or raises a
    ParseError on the line `expected` names."""
    if isinstance(expected, int):
        with pytest.raises(ParseError) as err:
            read()
        assert err.value.line == expected
        return
    got = read()
    if isinstance(expected, SymbolMatrix):
        assert got == expected
    else:
        assert isinstance(got, LargeSet) and got.t == expected.t
        assert list(got.members) == list(expected.members)


def same_result(text):
    _agrees(reference_loads(text), lambda: loads(text))


def same_file_result(text):
    """The twin of same_result through a file: read_array of `text` written
    as UTF-8 gives what the reference parser gives for the text with CR LF
    and CR read as LF."""
    expected = reference_loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "x.loa"
        path.write_bytes(text.encode("utf-8"))
        _agrees(expected, lambda: read_array(path))


@st.composite
def random_objects(draw):
    """A random array or large set; levels up to 13 and, now and then, up to
    1200 or 2^31, so that symbols of one to ten digits appear.  Its k is
    1-5 or 10-12, where members' t of one and two digits give headers of
    two lengths.  Returns it with a chunk size, in symbols, that puts 1-3
    whole members in each chunk or, half the time, less than one member (1
    to N * k - 1 symbols), so that each member is written and read a chunk
    of rows at a time."""
    k = draw(st.integers(1, 5) | st.integers(10, 12))
    top = draw(st.sampled_from([6, 13, 1200, 2**31]))
    levels = draw(st.lists(st.integers(2, top), min_size=k, max_size=k))
    n = draw(st.integers(0, 8))
    profile = LevelProfile(levels)

    def matrix():
        cells = [[draw(st.integers(0, s - 1)) for s in levels] for _ in range(n)]
        return SymbolMatrix(profile, np.array(cells, dtype=np.int64).reshape(n, k),
                            t=draw(st.integers(0, k)))

    chunk = n * k * draw(st.integers(1, 3))
    if n * k > 1 and draw(st.booleans()):
        chunk = draw(st.integers(1, n * k - 1))
    if draw(st.booleans()):
        return matrix(), chunk
    members = [matrix() for _ in range(draw(st.integers(1, 4)))]
    return LargeSet(profile, members, min(a.t for a in members)), chunk


PERTURBATIONS = ("spaces", "tab", "leading_zero", "plus", "comment", "blank",
                 "short_row", "out_of_range", "overlong", "joined_rows", "non_digit",
                 "header_t_zero", "header_space", "header_n", "deleted_row", "wide_token")


def perturb(text, kind, draw):
    """Apply one perturbation of `kind` to a random row of `text`, or to a
    random header for the header_* kinds."""
    lines = text.split("\n")
    if kind.startswith("header"):
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("OA ")]))
        if kind == "header_t_zero":
            lines[i] = lines[i].replace(" t=", " t=0")
        elif kind == "header_space":
            lines[i] = lines[i].replace(" ", "  ", draw(st.integers(1, 3)))
        else:
            n = int(lines[i].split()[1][2:])
            other = draw(st.integers(0, n + 2).filter(lambda x: x != n))
            lines[i] = lines[i].replace(f"N={n}", f"N={other}")
        return "\n".join(lines)
    rows = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    if not rows:
        return text
    i = draw(st.sampled_from(rows))
    if kind == "deleted_row":
        del lines[i]
        return "\n".join(lines)
    fields = lines[i].split()
    j = draw(st.integers(0, len(fields) - 1))
    if kind == "spaces":
        lines[i] = "  " + "   ".join(fields) + " "
    elif kind == "tab":
        lines[i] = "\t".join(fields)
    elif kind == "leading_zero":
        fields[j] = "00" + fields[j]
    elif kind == "plus":
        fields[j] = "+" + fields[j]
    elif kind == "comment":
        lines.insert(i, "# note")
    elif kind == "blank":
        lines.insert(i, "")
    elif kind == "short_row":
        del fields[j]
    elif kind == "out_of_range":
        fields[j] = str(draw(st.integers(1200, 5000)))
    elif kind == "joined_rows":
        lines[i:i + 2] = [" ".join(lines[i:i + 2])]
        return "\n".join(lines)
    elif kind == "non_digit":
        fields[j] = draw(st.sampled_from([":", "1:", "\u0663", "1\x01"]))
    elif kind == "wide_token":  # more digits than any column's width, ending in the symbol
        fields[j] = "1" + fields[j].zfill(10)
    elif kind == "overlong":
        fields[j] = draw(st.sampled_from(["4294967296", "18446744073709551617",
                                          "00000000000000000001"]))
    if kind not in ("spaces", "tab", "comment", "blank"):
        lines[i] = " ".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("rows", [[[0], [10]], [[7], [1000000000]]])
def test_a_row_shorter_than_its_columns_widest_token_reads_alone(rows):
    """A member read a row at a time, where a row's text is shorter than
    the ten digits a token of its column may take, reads back whole."""
    profile = LevelProfile([1000000001])
    ls = LargeSet(profile, [SymbolMatrix(profile, rows, t=0)], t=0)
    with mock.patch.object(formats, "CHUNK_CELLS", 1):
        assert np.array_equal(loads(dumps(ls)).cells, ls.cells)


@settings(max_examples=300, deadline=None)
@given(random_objects(), st.lists(st.sampled_from(PERTURBATIONS), max_size=2), st.data())
def test_loads_matches_reference_parser(obj_chunk, kinds, data):
    obj, chunk = obj_chunk
    text = reference_dumps(obj)
    for kind in kinds:
        text = perturb(text, kind, data.draw)
    with mock.patch.object(formats, "CHUNK_CELLS", chunk):
        same_result(text)
        same_file_result(text)


@pytest.mark.parametrize("text", [
    "OA N=2 t=1 levels=2^2\n0 1 1\n0\n",  # a symbol moved to the row above
    "LOA M=2\nOA N=1 t=1 levels=2^2\n0 1 1\n\nOA N=1 t=1 levels=2^2\n0\n",
    "OA N=1 t=1 levels=13^2\n: 1\n",  # decodes to 10 digit by digit
    "OA N=1 t=1 levels=13^2\n1\x0c 1\n",
    "OA N=1 t=1 levels=13^2\n\u0663 12\n",  # int() reads Arabic-Indic digits
    "OA N=1 t=1 levels=6^2\n1234 1\n",  # more digits than its column's largest symbol
    "OA N=1 t=1 levels=1000^2\n5 \n",  # an empty token where 3 digits may stand
    "OA N=1 t=1 levels=1000^2\n 5\n",
    "LOA M=2\nOA N=1 t=1 levels=2^2\n0 1\n5\nOA N=1 t=1 levels=2^2\n1 0\n",  # no blank line
    "OA N=1 t=1 levels=2^2\n0,1\n",  # a separator that is not a space
    "OA N=1 t=1 levels=12^2\n11;1\n",
])
def test_loads_matches_reference_parser_on_near_writer_text(text):
    same_result(text)


@settings(max_examples=100, deadline=None)
@given(random_objects())
def test_writer_matches_reference_writer(obj_chunk):
    obj, chunk = obj_chunk
    with mock.patch.object(formats, "CHUNK_CELLS", chunk):
        assert dumps(obj) == reference_dumps(obj)


def test_writer_two_digit_and_mixed_levels(tmp_path):
    profile = LevelProfile([11, 13, 2, 13])
    cells = [[i % 11, (3 * i) % 13, i % 2, 12 - i % 13] for i in range(26)]
    a = SymbolMatrix(profile, cells, t=1)
    ls = LargeSet(profile, [a, SymbolMatrix(profile, cells[::-1], t=1)], t=1)
    for obj in (a, ls):
        write_array(obj, tmp_path / "x")
        assert (tmp_path / "x").read_bytes() == reference_dumps(obj).encode()
        same_result(reference_dumps(obj))
    assert dumps(a).split("\n")[1:4] == ["0 0 0 12", "1 3 1 11", "2 6 0 10"]
    assert dumps(a).split("\n")[11] == "10 4 0 2"


def test_ten_digit_symbols_and_headers_of_two_widths(monkeypatch):
    """Symbols up to 2^31 - 1 and members whose t has one or two digits, so
    that the writer's template pads the shorter headers with NUL."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 2 * 2 * 11)  # two members a chunk
    profile = LevelProfile([2**31, 1000] + [2] * 9)
    rows = [[2**31 - 1, 999] + [1] * 9, [0, 0] + [0, 1] * 4 + [1]]
    members = [SymbolMatrix(profile, rows[::-1 if t % 2 else 1], t=t) for t in (9, 10, 11, 2, 10)]
    ls = LargeSet(profile, members, t=2)
    for obj in (ls, members[1]):
        assert dumps(obj) == reference_dumps(obj)
        same_result(reference_dumps(obj))
    assert dumps(members[1]).split("\n")[:2] == ["OA N=2 t=10 levels=2147483648^1,1000^1,2^9",
                                                  "2147483647 999 1 1 1 1 1 1 1 1 1"]


def test_large_set_in_several_runs_matches_reference(monkeypatch):
    """Runs of members are parsed together; a fault in one run is still found
    on its line, and the members before it are decoded."""
    import oaforge.formats as formats

    monkeypatch.setattr(formats, "CHUNK_CELLS", 6)
    profile = LevelProfile([3, 2])
    members = [SymbolMatrix(profile, [[i % 3, 0], [(i + 1) % 3, 1]], t=1) for i in range(7)]
    text = reference_dumps(LargeSet(profile, members, t=1))
    same_result(text)
    lines = text.split("\n")
    lines[-6] = "0 5"  # the last row of member 5
    same_result("\n".join(lines))
    lines[-6] = "0  1"
    same_result("\n".join(lines))


# -- the fixed-stride reader and writer of single-digit writer text -----------------


@st.composite
def single_digit_objects(draw):
    """A large set of 1-6 members (or, now and then, one array) whose symbols
    are single digits, though a level may be above 10; its members share a t
    unless `mixed_t` is drawn.  Returns it with a chunk size, in symbols,
    that puts 1-3 whole members in each chunk."""
    k = draw(st.integers(1, 4))
    level = st.integers(2, 9) | st.sampled_from([10, 11, 12])
    levels = draw(st.lists(level, min_size=k, max_size=k))
    n = draw(st.integers(1, 8))
    profile = LevelProfile(levels)
    t = draw(st.integers(0, k))
    mixed_t = draw(st.booleans()) and draw(st.booleans())

    def matrix():
        cells = [[draw(st.integers(0, min(s, 10) - 1)) for s in levels] for _ in range(n)]
        return SymbolMatrix(profile, cells, draw(st.integers(0, k)) if mixed_t else t)

    chunk = n * k * draw(st.integers(1, 3))
    if draw(st.integers(0, 4)) == 0:
        return matrix(), chunk
    members = [matrix() for _ in range(draw(st.integers(1, 6)))]
    return LargeSet(profile, members, min(a.t for a in members)), chunk


STRIDE_FAULTS = ("member_t", "drop_blank", "double_blank", "blank_byte", "swap_space_lf",
                 "drop_final_lf", "symbol_at_level", "slash", "colon", "loa_m_02",
                 "trailing_blank", "trailing_comment", "crlf")


def stride_fault(text, kind, draw):
    """`text` with one byte-level fault of `kind`, aimed at one check of the
    fixed-stride reader."""
    lines = text.split("\n")
    headers = [i for i, line in enumerate(lines) if line.startswith("OA ")]
    rows = [i for i, line in enumerate(lines)
            if line.strip() and not line.startswith(("OA ", "LOA ", "#"))]
    if kind == "member_t":
        i = draw(st.sampled_from(headers[1:] or headers))
        kv = dict(part.split("=") for part in lines[i].split()[1:])
        k = LevelProfile.parse(kv["levels"]).k
        t = draw(st.integers(0, k).filter(lambda x: x != int(kv["t"])))
        lines[i] = f"OA N={kv['N']} t={t} levels={kv['levels']}"
    elif kind in ("drop_blank", "double_blank", "blank_byte"):
        blanks = [i for i in range(1, len(lines) - 1)
                  if not lines[i] and lines[i + 1].startswith("OA ")]
        if not blanks:
            return text + "\n"
        i = draw(st.sampled_from(blanks))
        if kind == "blank_byte":  # the blank line's LF becomes another byte
            lines[i:i + 2] = [draw(st.sampled_from([" ", "#", "0"])) + lines[i + 1]]
        else:
            lines[i:i + 1] = [] if kind == "drop_blank" else ["", ""]
    elif kind == "swap_space_lf":  # a space and an LF, both in rows
        starts = np.cumsum([0] + [len(line) + 1 for line in lines])
        spaces = [starts[i] + j for i in rows for j, c in enumerate(lines[i]) if c == " "]
        feeds = [starts[i] + len(lines[i]) for i in rows if starts[i + 1] <= len(text)]
        if not spaces or not feeds:
            return text[:-1]
        a, b = draw(st.sampled_from(spaces)), draw(st.sampled_from(feeds))
        chars = list(text)
        chars[a], chars[b] = chars[b], chars[a]
        return "".join(chars)
    elif kind == "drop_final_lf":
        return text[:-1]
    elif kind in ("symbol_at_level", "slash", "colon"):
        i = draw(st.sampled_from(rows))
        header = lines[max(h for h in headers if h < i)]
        levels = LevelProfile.parse(header.split("levels=")[1]).levels
        fields = lines[i].split(" ")
        j = draw(st.integers(0, min(len(fields), len(levels)) - 1))
        fields[j] = {"symbol_at_level": str(levels[j]), "slash": "/", "colon": ":"}[kind]
        lines[i] = " ".join(fields)
    elif kind == "loa_m_02":
        if not lines[0].startswith("LOA"):
            return "LOA M=01\n" + text
        lines[0] = lines[0].replace("M=", "M=0")
    elif kind == "trailing_blank":
        return text + "\n"
    elif kind == "trailing_comment":
        return text + "# end\n"
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(single_digit_objects(), st.lists(st.sampled_from(STRIDE_FAULTS), min_size=1, max_size=2),
       st.data())
def test_stride_reader_matches_reference_parser(obj_chunk, kinds, data):
    obj, chunk = obj_chunk
    text = reference_dumps(obj)
    for kind in kinds:
        text = stride_fault(text, kind, data.draw)
    with mock.patch.object(formats, "CHUNK_CELLS", chunk):
        same_result(text)
        same_file_result(text)


STRIDE_TEXT = reference_dumps(LargeSet(LevelProfile([3, 2, 12]), [
    SymbolMatrix(LevelProfile([3, 2, 12]), rows, t=1)
    for rows in ([[0, 1, 9], [2, 0, 7]], [[1, 1, 0], [0, 0, 9]], [[2, 1, 3], [1, 0, 5]])
], t=1))


@pytest.mark.parametrize("old, new", [
    ("", ""),
    ("t=1 levels=3^1,2^1,12^1\n2 1 3", "t=0 levels=3^1,2^1,12^1\n2 1 3"),  # a member's t
    ("9\n\nOA", "9\nOA"),  # a blank line dropped,
    ("9\n\nOA", "9\n\n\nOA"),  # doubled,
    ("9\n\nOA", "9\n OA"),  # or its LF made another byte
    ("9\n\nOA", "9\n#OA"),
    ("9\n\nOA", "9\n0OA"),
    ("0 1 9\n2", "0\n1 9 2"),  # a space swapped with an LF
    ("2 0 7", "2 2 7"),  # a symbol equal to its level
    ("2 0 7", "3 0 7"),
    ("2 0 7", "2 / 7"),
    ("2 0 7", "2 0 :"),  # ':' - '0' is 10, below the level 12
    ("2 0 7", "2 0 10"),
    ("LOA M=3", "LOA M=03"),
    ("5\n", "5"),  # the final LF dropped
    ("5\n", "5\n\n"),
    ("5\n", "5\n# end\n"),
    ("\n", "\r\n"),
])
def test_stride_faults_match_reference_parser(old, new):
    text = STRIDE_TEXT.replace(old, new) if old == "\n" else STRIDE_TEXT.replace(old, new, 1)
    assert text != STRIDE_TEXT or not old
    with mock.patch.object(formats, "CHUNK_CELLS", 12):  # two members a chunk
        same_result(text)
        same_file_result(text)


@pytest.mark.parametrize("old, new, line", [
    ("2 1 3\n", "2 1 3\r\n", None),  # a CR LF line end: the file is read whole
    ("2 1 3\n", "2 1 3\r", None),  # a CR line end, as long as the LF
    ("2 1 3", "2 \xff 3", 11),  # a byte that is not UTF-8
    ("2 1 3", "2 2 3", 11),  # a symbol equal to its level
])
def test_faults_after_the_first_chunk_of_a_file(monkeypatch, tmp_path, old, new, line):
    """A fault in member 2 (lines 10-12), after the first chunk of two
    members: the file gives the object or the ParseError line it gave when
    it was read whole."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    path = tmp_path / "l.loa"
    path.write_bytes(STRIDE_TEXT.replace(old, new).encode("latin-1"))
    if line is None:
        back, expected = read_array(path), loads(STRIDE_TEXT)
        assert back.t == expected.t and list(back.members) == list(expected.members)
        return
    with pytest.raises(ParseError) as err:
        read_array(path)
    assert err.value.line == line


def test_a_header_after_the_first_chunk_is_bounded_by_the_whole_file(monkeypatch, tmp_path):
    """Member 2's N raised from 12 to 60 and its rows made as many blank
    lines: 60 rows of 3 symbols fit in the file, though not in the part of
    it read after the first chunk, so the header is refused for its N, as
    when the file is read whole."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 2 * 12 * 3)  # two members a chunk
    profile = LevelProfile([3, 2, 12])
    member = SymbolMatrix(profile, [[i % 3, i % 2, 9 - i % 10] for i in range(12)], t=1)
    lines = reference_dumps(LargeSet(profile, [member] * 3, t=1)).split("\n")
    lines[29] = lines[29].replace("N=12", "N=60")
    lines[30:] = [""] * (6 * 12 + 1)  # an LF for each byte of the rows
    path = tmp_path / "l.loa"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match="member 2 has N=60") as err:
        read_array(path)
    assert err.value.line == 30


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_whole_and_then_like_a_file(monkeypatch):
    """Text from a pipe, which has no size to lay out, is read whole and
    then read as a regular file is: single-digit writer text still goes to
    the record decoder, a chunk of two members at a time."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    lines = _Spy(formats._Lines)
    monkeypatch.setattr(formats, "_Lines", lines)
    read, write = os.pipe()
    try:
        os.write(write, STRIDE_TEXT.encode())  # far below a pipe's buffer
        os.close(write)
        back = read_array(f"/dev/fd/{read}")
    finally:
        os.close(read)
    expected = loads(STRIDE_TEXT)
    assert back.t == expected.t and list(back.members) == list(expected.members)
    assert lines.calls == 0


def test_a_file_longer_than_it_was_when_opened_is_read_whole(monkeypatch, tmp_path):
    """A file that goes on after its last member (here, as if it grew after
    its size was taken) is read again whole and refused as it is."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    path = tmp_path / "l.loa"
    path.write_text(STRIDE_TEXT + "1 0 5\n")
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        (*real(fd)[:6], len(STRIDE_TEXT), *real(fd)[7:10])))
    with pytest.raises(ParseError, match="content after the last block") as err:
        read_array(path)
    assert err.value.line == 13


def test_a_file_is_read_in_chunks_without_holding_its_bytes(tmp_path):
    """A 3 MB single-digit large set of 23 chunks: reading it holds its cells
    and about one chunk of text, not the whole file's bytes."""
    profile = LevelProfile([10, 7, 2, 9, 10, 3, 10, 5, 10, 10])
    cells = np.random.default_rng(23).integers(0, profile.levels, (500, 300, 10),
                                               dtype=profile.dtype)
    ls = LargeSet._stacked(profile, cells, [1] * 500, 1)
    path = tmp_path / "big.loa"
    write_array(ls, path)
    size = path.stat().st_size
    assert size >= 3_000_000 and cells.size > 20 * formats.CHUNK_CELLS
    tracemalloc.start()
    try:
        back = read_array(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cells.nbytes + size // 4
    assert list(back.members) == list(loads(path.read_text()).members)
    assert np.array_equal(back.cells, cells)


def _traced_peak(fn):
    """fn's result and the peak of memory traced while it runs, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("level", [4, 12])
def test_a_member_of_more_than_a_chunk_is_written_a_chunk_of_rows_at_a_time(tmp_path, level):
    """One 65,536 x 12 array, 1.57 MB of single-digit text (1.70 MB with two
    digits): the writer fills a template of about one chunk of rows, not of
    the whole member, and gives the bytes a whole-member template gives."""
    profile = LevelProfile([level] * 12)
    cells = np.random.default_rng(level).integers(0, level, (65536, 12), dtype=profile.dtype)
    a = SymbolMatrix._trusted(profile, cells, 3)
    path = tmp_path / "a.oa"
    _, peak = _traced_peak(lambda: write_array(a, path))
    assert peak < 1 << 20
    with mock.patch.object(formats, "CHUNK_CELLS", cells.size):  # the member fits in a chunk
        assert path.read_bytes() == dumps(a).encode()


def test_a_multi_digit_member_of_more_than_a_chunk_is_read_a_chunk_of_rows_at_a_time(tmp_path):
    """A 131,072 x 6 array of two-digit symbols (1.9 MB of text) is parsed
    a chunk of rows at a time: reading it holds its cells, the file's bytes
    and their index of lines (a byte and 8 bytes a line), and temporaries
    of one chunk, not int64 temporaries for every symbol.  A fault in its
    last chunk is still refused on its line."""
    profile = LevelProfile([16] * 6)
    cells = np.random.default_rng(16).integers(0, 16, (1 << 17, 6), dtype=profile.dtype)
    path = tmp_path / "a.oa"
    write_array(SymbolMatrix._trusted(profile, cells, 2), path)
    size = path.stat().st_size
    back, peak = _traced_peak(lambda: read_array(path))
    assert np.array_equal(back.cells, cells) and back.t == 2
    assert peak < cells.nbytes + 2 * size + 8 * len(cells) + 64 * formats.CHUNK_CELLS
    lines = path.read_text().split("\n")
    lines[-3] = "16" + lines[-3][lines[-3].index(" "):]  # a symbol equal to its level
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match="out of range") as err:
        read_array(path)
    assert err.value.line == len(lines) - 2


def test_a_single_digit_member_of_more_than_a_chunk_is_read_a_chunk_of_rows_at_a_time(tmp_path):
    """A 49,000 x 16 array of 7 levels (1.57 MB of text, 0.78 MB of cells)
    is checked as 2-byte records a chunk of rows at a time: reading it holds
    the file's bytes, its cells and temporaries of one chunk, not records
    for the whole member.  A fault in its first or last chunk declines the
    member, which is then refused on the fault's line."""
    profile = LevelProfile([7] * 16)
    cells = np.random.default_rng(7).integers(0, 7, (49000, 16), dtype=profile.dtype)
    path = tmp_path / "a.oa"
    write_array(SymbolMatrix._trusted(profile, cells, 2), path)
    size = path.stat().st_size
    back, peak = _traced_peak(lambda: read_array(path))
    assert np.array_equal(back.cells, cells) and back.t == 2
    assert peak < size + cells.nbytes + (1 << 19)
    text = path.read_text().split("\n")
    for row in (11, len(text) - 3):
        lines = list(text)
        lines[row] = "7" + lines[row][1:]  # a symbol equal to its level
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match="out of range") as err:
            read_array(path)
        assert err.value.line == row + 1


class _Spy:
    """Counts the calls of a wrapped function or class."""

    def __init__(self, wrapped):
        self.wrapped, self.calls = wrapped, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


def test_single_digit_writer_text_is_read_without_the_line_reader(monkeypatch, tmp_path):
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    profile = LevelProfile([3, 2, 12])
    members = [SymbolMatrix(profile, [[i % 3, 0, 9], [(i + 1) % 3, 1, i]], t=2)
               for i in range(7)]
    ls = LargeSet(profile, members, t=2)
    path = tmp_path / "l.loa"
    write_array(ls, path)
    lines, slow = _Spy(formats._Lines), _Spy(formats._slow_rows)
    monkeypatch.setattr(formats, "_Lines", lines)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    for read in (lambda: read_array(path), lambda: loads(path.read_text())):
        back = read()
        assert (lines.calls, slow.calls) == (0, 0)
        assert back.t == 2 and list(back.members) == members
        assert not back.cells.flags.writeable
    text = path.read_text().split("\n")
    text[-2] = "0 2 6"  # a symbol equal to its level in the last row
    path.write_text("\n".join(text))
    for calls, read in enumerate((lambda: read_array(path), lambda: loads(path.read_text())), 1):
        with pytest.raises(ParseError) as err:
            read()
        assert err.value.line == len(text) - 1
        assert (lines.calls, slow.calls) == (calls, calls)


def test_multi_digit_text_is_written_and_read_a_chunk_at_a_time(monkeypatch):
    """Multi-digit writer text takes one write per chunk and is read one run
    of members at a time, without the line-by-line parser."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 3 * 4 * 13)  # three members a chunk
    profile = LevelProfile([18] + [2] * 12)
    rng = np.random.default_rng(18)
    members = [SymbolMatrix(profile, np.column_stack([rng.permutation(18)[:4],
                                                      rng.integers(0, 2, (4, 12))]), t=2)
               for _ in range(7)]
    ls = LargeSet(profile, members, t=2)
    sizes = []  # of each write

    class Sink(io.BytesIO):
        def write(self, data):
            sizes.append(len(data))
            return super().write(data)

    sink = Sink()
    formats._write(ls, sink)
    text = sink.getvalue().decode()
    assert text == reference_dumps(ls) and len(sizes) == 1 + 3  # the LOA line and 3 chunks
    decode, slow = _Spy(formats._decode), _Spy(formats._slow_rows)
    monkeypatch.setattr(formats, "_decode", decode)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    back = loads(text)
    assert (decode.calls, slow.calls) == (3, 0)  # one per run of three members
    assert back.t == 2 and list(back.members) == members


def _members_of_t(member_t, zeros=0) -> LargeSet:
    """Members of 12 rows of 3^1,2^1,12^1 (two-digit symbols), then `zeros`
    binary columns of zeros, with these t's."""
    profile = LevelProfile([3, 2, 12] + [2] * zeros)
    rows = np.array([[i % 3, i % 2, i] + [0] * zeros for i in range(12)])
    return LargeSet(profile, [SymbolMatrix(profile, np.roll(rows, i, axis=0), t)
                              for i, t in enumerate(member_t)], min(member_t))


def test_members_of_different_t_are_read_a_run_at_a_time(monkeypatch, tmp_path):
    """Each header's t is read from its slot, so a run of members whose t
    differ (with as many digits) is one vectorised pass, not one per member."""
    mixed = _members_of_t([1 + i % 2 for i in range(5000)])
    write_array(mixed, tmp_path / "mixed")
    decode, slow = _Spy(formats._decode), _Spy(formats._slow_rows)
    monkeypatch.setattr(formats, "_decode", decode)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    monkeypatch.setattr(formats, "CHUNK_CELLS", 4 * 12 * 3)  # four members a run
    back = read_array(tmp_path / "mixed")
    assert back.member_t == mixed.member_t and back.t == 1
    assert list(back.members) == list(mixed.members)
    assert (decode.calls, slow.calls) == (1250, 0)


def test_a_member_of_more_than_a_chunk_is_decoded_a_chunk_of_rows_at_a_time(monkeypatch):
    """12 rows of 3 symbols, two rows a chunk: six decoder calls and no row
    line by line.  A fault the decoder refuses (a double space in row 8)
    ends the decoding at its chunk, and the member goes line by line."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 6)
    a = _members_of_t([1]).members[0]
    decode, slow = _Spy(formats._decode), _Spy(formats._slow_rows)
    monkeypatch.setattr(formats, "_decode", decode)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    lines = dumps(a).split("\n")
    assert loads("\n".join(lines)) == a and (decode.calls, slow.calls) == (6, 0)
    lines[8] = lines[8].replace(" ", "  ", 1)
    assert loads("\n".join(lines)) == a and (decode.calls, slow.calls) == (6 + 4, 1)


def test_members_whose_t_differ_in_digits_read_back_equal(monkeypatch):
    """t = 9 beside t = 10 gives headers of two lengths, which one run of
    blocks cannot hold; they are read back equal all the same."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 4 * 12 * 11)  # four members a run
    ls = _members_of_t([9, 10, 10, 9, 3, 3, 3, 3, 10, 9, 10], zeros=8)
    text = dumps(ls)
    assert text == reference_dumps(ls)
    back = loads(text)
    assert back.member_t == ls.member_t and list(back.members) == list(ls.members)
    same_result(text)


def test_headers_whose_t_differ_in_digits_are_read_a_run_at_a_time(monkeypatch):
    """5000 members of 3^1,2^1,12^1,2^8 with t alternating 9 and 10: each
    header's t is read with its own number of digits, so a run of members
    is one vectorised pass whatever their t, a chunk (496 members) at a
    time, and no member goes line by line."""
    ls = _members_of_t([9 + i % 2 for i in range(5000)], zeros=8)
    text = dumps(ls)
    decode, slow = _Spy(formats._decode), _Spy(formats._slow_rows)
    monkeypatch.setattr(formats, "_decode", decode)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    back = loads(text)
    assert back.member_t == ls.member_t and list(back.members) == list(ls.members)
    assert formats._members_per_chunk(12, 11) == 496
    assert (decode.calls, slow.calls) == (11, 0)


def test_runs_grow_back_after_a_block_read_line_by_line(monkeypatch):
    """One early fault the decoder refuses (a double space in member 1 of
    5000) sends that member line by line; the run after it starts again at
    a chunk, so the rest of the file takes 11 passes, not one per member."""
    ls = _members_of_t([10] * 5000, zeros=8)
    lines = dumps(ls).split("\n")
    lines[19] = lines[19].replace(" ", "  ", 1)  # member 1, row 3
    decode, slow = _Spy(formats._decode), _Spy(formats._slow_rows)
    monkeypatch.setattr(formats, "_decode", decode)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    back = loads("\n".join(lines))
    assert list(back.members) == list(ls.members)
    # member 0 before the fault, then runs of 496 from member 2
    assert (decode.calls, slow.calls) == (12, 1)


@pytest.mark.parametrize("bad_member", [0, 3, 5])
def test_a_fault_sends_only_its_member_to_the_line_reader(monkeypatch, bad_member):
    """A fault the decoder refuses (a double space) in member j of a run of
    six whole members: one decoder call takes the members before j, member
    j alone goes line by line, and the next decoder call starts at the
    header after it, with a whole run."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 6 * 12 * 3)  # six members a run
    ls = _members_of_t([1] * 12)
    text = dumps(ls).split("\n")
    header = 1 + 14 * bad_member  # the LOA line, then 14 lines a member
    text[header + 3] = text[header + 3].replace(" ", "  ", 1)
    calls = []

    def decode(lines, first, out, *args, fn=formats._decode):
        got = fn(lines, first, out, *args)
        calls.append(("decode", first, len(got)))
        return got

    def slow(lines, *args, fn=formats._slow_rows):
        calls.append(("slow", lines.pos))
        return fn(lines, *args)

    monkeypatch.setattr(formats, "_decode", decode)
    monkeypatch.setattr(formats, "_slow_rows", slow)
    back = loads("\n".join(text))
    assert list(back.members) == list(ls.members)
    assert calls[:3] == [("decode", 1, bad_member), ("slow", header + 1),
                         ("decode", header + 14, min(6, 11 - bad_member))]
    assert [call for call in calls if call[0] == "slow"] == [("slow", header + 1)]


@pytest.mark.parametrize("line, old, new, error", [
    (20, "0 1 3", "0 2 3", "symbol 2 out of range [0, 2) in column 1"),
    (7005, "1 1 7", "1 2 7", "symbol 2 out of range [0, 2) in column 1"),
    (7001, "t=10", "t=12", "t=12 is outside [0, 11]"),
    (7001, "N=12", "N=11", "member 500 has N=11 levels=3^1,2^1,12^1,2^8, member 0 has N=12"),
])
def test_errors_after_a_block_read_line_by_line_keep_their_lines(line, old, new, error):
    """After member 1 of 600 goes line by line (a double space), a fault in
    a row of it or of member 500, or in member 500's header, is refused
    with the error and on the line it had when every later member went
    alone."""
    lines = dumps(_members_of_t([10] * 600, zeros=8)).split("\n")
    lines[19] = lines[19].replace(" ", "  ", 1)
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    with pytest.raises(ParseError, match=re.escape(error)) as err:
        loads("\n".join(lines))
    assert err.value.line == line + 1


@pytest.mark.parametrize("bad_member", [0, 3, 6])
def test_a_declined_chunk_is_read_again_from_its_first_member(monkeypatch, bad_member):
    """A fault makes the stride reader decline the chunk it is in; the line
    reader then starts at that chunk's first header and reads no member
    before it again."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    profile = LevelProfile([3, 2, 12])
    lines = reference_dumps(LargeSet(profile, [
        SymbolMatrix(profile, [[i % 3, 0, 9], [(i + 1) % 3, 1, i]], t=2) for i in range(7)
    ], t=2)).split("\n")
    lines[4 * bad_member + 3] = "0 2 6"  # a symbol equal to its level in the member's last row
    starts = []  # the 0-based line at which each header or run of rows is read
    for name in ("_parse_oa_header", "_decode", "_slow_rows"):
        monkeypatch.setattr(formats, name, lambda lines, *args, fn=getattr(formats, name):
                            starts.append(lines.pos) or fn(lines, *args))
    same_result("\n".join(lines))
    assert min(starts) == 1 + 4 * (bad_member // 2 * 2)  # the declined chunk's first header


@pytest.mark.parametrize("bad_member", [0, 3, 6])
def test_a_declined_chunk_indexes_only_the_lines_from_its_first_member(monkeypatch, bad_member):
    """The line reader is handed the text from the blank line before the
    declined chunk's first member on, numbered as that line of the file, so
    the members the record decoder took are not indexed; a fault in the
    first chunk leaves nothing taken, and the whole file is indexed."""
    monkeypatch.setattr(formats, "CHUNK_CELLS", 12)  # two members a chunk
    profile = LevelProfile([3, 2, 12])
    lines = reference_dumps(LargeSet(profile, [
        SymbolMatrix(profile, [[i % 3, 0, 9], [(i + 1) % 3, 1, i]], t=2) for i in range(7)
    ], t=2)).split("\n")
    lines[4 * bad_member + 3] = "0 2 6"  # a symbol equal to its level in the member's last row
    text = "\n".join(lines)
    indexed = []  # (first line, text) per index

    class Spy(formats._Lines):
        def __init__(self, data, *args):
            super().__init__(data, *args)
            indexed.append((self.base, bytes(data)))

    monkeypatch.setattr(formats, "_Lines", Spy)
    same_result(text)  # the same ParseError line as the reference parser
    first = 4 * (bad_member // 2 * 2)  # the blank line before the chunk, or the LOA line
    assert indexed == [(first, "\n".join(lines[first:]).encode())]


@settings(max_examples=100, deadline=None)
@given(single_digit_objects())
def test_stride_writer_matches_reference_writer(obj_chunk):
    obj, chunk = obj_chunk
    with mock.patch.object(formats, "CHUNK_CELLS", chunk):
        assert dumps(obj) == reference_dumps(obj)


# -- header limits, trailing content and undecodable files ------------------------


@pytest.mark.parametrize("text, line", [
    ("OA N=-1 t=1 levels=2^2\n0 1\n", 1),
    ("OA N=1000000000000 t=1 levels=2^2\n0 1\n", 1),
    ("OA N=4 t=1 levels=2^1\n0\n# more bytes than N x k\n", 1),
    ("LOA M=2\nOA N=1 t=1 levels=2^2\n0 1\n\nOA N=1000000000000 t=1 levels=2^2\n0 1\n", 5),
    ("OA N=3 t=1 levels=2^100000\n0 1\n\n\n", 1),
    ("OA N=1 t=1 levels=3000000000^1\n5\n", 1),
    ("LOA M=1000000000000\nOA N=1 t=1 levels=2^2\n0 1\n", 4),
    ("LOA M=9999999999999999999993\nOA N=0 t=0 levels=2^2\n\nOA N=0 t=0 levels=2^2\n", 5),
])
def test_header_sizes_checked_before_allocating(text, line):
    with pytest.raises(ParseError) as err:
        loads(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, line", [
    ("OA N=1 t=1 levels=2^2\n0 1\n5 5 5\n", 3),
    ("OA N=1 t=1 levels=2^2\n0 1\n\n# note\n1 0\n", 5),
    ("LOA M=1\nOA N=1 t=1 levels=2^2\n0 1\n\nOA N=1 t=1 levels=2^2\n1 0\n", 5),
])
def test_content_after_the_last_block_is_refused(text, line):
    with pytest.raises(ParseError) as err:
        loads(text)
    assert err.value.line == line


def test_blank_and_comment_lines_may_follow_the_last_block():
    assert loads("OA N=1 t=1 levels=2^2\n0 1\n\n# end\n\n").n == 1
    assert loads("LOA M=1\nOA N=1 t=1 levels=2^2\n0 1\n# end\n").m == 1


def test_undecodable_file_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.oa"
    path.write_bytes(b"OA N=2 t=1 levels=2^2\n0 1\n1 \xff\n")
    with pytest.raises(ParseError) as err:
        read_array(path)
    assert err.value.line == 3


def test_cr_lf_and_cr_read_as_lf(tmp_path):
    text = "# comment é\nOA N=2 t=1 levels=2^2\n0 1\n1 0\n"
    for newline in ("\r\n", "\r"):
        path = tmp_path / "a.oa"
        path.write_bytes(text.replace("\n", newline).encode())
        assert read_array(path) == loads(text) == loads(text.replace("\n", newline))
    bad = "OA N=2 t=1 levels=2^2\r\n0 1\r7 0\r\n"
    path.write_bytes(bad.encode())
    for read in (lambda: read_array(path), lambda: loads(bad)):
        with pytest.raises(ParseError) as err:
            read()
        assert err.value.line == 3
