"""Text interchange format for arrays and large sets.

OA block:   `OA N=<int> t=<int> levels=<s1>^<k1>[,<s2>^<k2>...]`
            followed by N lines of k space-separated decimal symbols.
LOA file:   `LOA M=<int>` followed by M OA blocks separated by exactly one
            blank line.

UTF-8, LF line endings (files with CR LF or CR read as if they had LF),
column order significant.  Lines starting with `#` are skipped on input
(fixture files use them for marked-column metadata) and never emitted by the
writers, so read(write(x)) is the identity.  Only blank and `#` lines may
follow the last block.

A header's sizes are checked against the file before anything is allocated:
0 <= N <= the number of lines after the header, and N x k (k for N = 0) at
most the file's length in bytes, since every symbol takes at least one byte.
Every ParseError names its line.

A header's t must lie in [0, k]; the writers refuse an object whose t does
not (or is None) before they open the file.

Rows are read in one of three ways with the same result.  A file that is
exactly what the writers emit for an object whose symbols are all single
digits and whose members share one header has a fixed layout: the header,
N rows of 2k bytes, one blank line.  It is read as one strided byte view,
a chunk of whole members at a time, checking every byte against that
layout; nothing else is scanned or re-encoded.  Any other file is read from
the start as follows.  Text that is what the writers emit (one space between
symbols, no signs or leading zeros, no comments inside a block) is parsed
in one vectorised pass per run of blocks, and accepted only when encoding
the parsed symbols again gives back the same bytes.  Any other block is
parsed line by line, which is also where every row's ParseError comes from.
The writers emit the fixed layout from a per-chunk template whenever all
symbols are single digits and all members share one t.
"""

from __future__ import annotations

import io

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .arrays import LargeSet, LevelProfile, SymbolMatrix
from .errors import ParseError

CHUNK_CELLS = 1 << 16  # symbols encoded or decoded at once, to bound memory


def _members_per_chunk(n: int, k: int) -> int:
    """Members of N rows of k symbols taken at once: CHUNK_CELLS symbols, or one."""
    return max(1, CHUNK_CELLS // max(1, n * k))


class _Lines:
    """The lines of a UTF-8 buffer, located by one vectorised search for LF.

    A line is decoded only when read on its own; numbers are 1-based."""

    def __init__(self, data: bytes):
        self.data = data
        # line i (0-based) is data[bounds[i] + 1 : bounds[i + 1]], without its LF
        newlines = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        self.bounds = np.concatenate(([-1], newlines, [len(data)]))
        self.pos = 0

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def raw(self, i: int) -> bytes:
        return self.data[self.bounds[i] + 1:self.bounds[i + 1]]

    def text(self, i: int) -> str:
        return self.raw(i).decode("utf-8")

    def span(self, first: int, count: int) -> bytes:
        """Lines first .. first + count - 1, each with its LF."""
        return self.data[self.bounds[first] + 1:self.bounds[first + count] + 1]

    def next_content(self) -> tuple[str, int] | None:
        """Next non-blank, non-comment line."""
        while self.pos < len(self):
            line = self.text(self.pos)
            self.pos += 1
            if line.strip() and not line.lstrip().startswith("#"):
                return line, self.pos
        return None

    def peek_is_blank_separator(self) -> bool:
        """Consume one blank line (the LOA block separator); False at EOF."""
        while self.pos < len(self) and self.text(self.pos).lstrip().startswith("#"):
            self.pos += 1
        if self.pos < len(self) and not self.text(self.pos).strip():
            self.pos += 1
            return True
        return False


def _parse_kv(line: str, lineno: int, tag: str, keys: list[str]) -> dict[str, str]:
    parts = line.split()
    if not parts or parts[0] != tag:
        raise ParseError(f"expected '{tag}' header, got {line!r}", lineno)
    out = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(f"malformed header field {part!r}", lineno)
        key, _, value = part.partition("=")
        out[key] = value
    missing = [k for k in keys if k not in out]
    if missing:
        raise ParseError(f"header missing {missing}", lineno)
    return out


def _oa_header(n: int, t: int, levels: str) -> bytes:
    """The writers' header line of a block, with its LF."""
    return f"OA N={n} t={t} levels={levels}\n".encode()


def _header_fields(line: str, lineno: int, left: int, size: int
                   ) -> tuple[int, int, LevelProfile]:
    """N, t and the profile of the OA header `line`, followed by `left` lines
    in a file of `size` bytes."""
    kv = _parse_kv(line, lineno, "OA", ["N", "t", "levels"])
    try:
        n = int(kv["N"])
        t = int(kv["t"])
        k = sum(max(0, int(g.partition("^")[2] or 1)) for g in kv["levels"].split(","))
    except ValueError as exc:
        raise ParseError(f"malformed header: {exc}", lineno) from None
    if not 0 <= n <= left:
        raise ParseError(f"N={n} is outside [0, {left}], the lines after the header",
                         lineno)
    if max(n, 1) * k > size:
        raise ParseError(
            f"N={n} rows of {k} symbols cannot fit in a file of {size} bytes",
            lineno,
        )
    try:
        profile = LevelProfile.parse(kv["levels"])
    except ValueError as exc:
        raise ParseError(f"malformed header: {exc}", lineno) from None
    if not 0 <= t <= profile.k:
        raise ParseError(f"t={t} is outside [0, {profile.k}]", lineno)
    return n, t, profile


def _parse_oa_header(lines: _Lines) -> tuple[int, int, LevelProfile, int]:
    """The next OA header as (N, t, profile, line number)."""
    first = lines.next_content()
    if first is None:
        raise ParseError("unexpected end of file, expected OA header", len(lines))
    header, lineno = first
    left = len(lines) - lines.pos
    return (*_header_fields(header, lineno, left, len(lines.data)), lineno)


def _loa_members(line: str, lineno: int) -> int:
    """M of the LOA header `line`."""
    kv = _parse_kv(line, lineno, "LOA", ["M"])
    try:
        m = int(kv["M"])
    except ValueError as exc:
        raise ParseError(f"malformed header: {exc}", lineno) from None
    if m < 1:
        raise ParseError("M must be >= 1", lineno)
    return m


def _encode_rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The writer's text of the rows of `cells`: decimal symbols, one space
    apart, each row ending in LF.  Returns the bytes as a uint8 array and the
    length of each row."""
    n, k = cells.shape
    width = len(str(int(cells.max()))) if cells.size else 1
    out = np.empty((n, k, width + 1), dtype=np.uint8)
    rest = cells
    for d in range(width - 1, 0, -1):
        rest, digit = np.divmod(rest, 10)
        np.add(digit, ord("0"), out=out[..., d], casting="unsafe")
    np.add(rest, ord("0"), out=out[..., 0], casting="unsafe")
    out[..., width] = ord(" ")
    out[:, -1, width] = ord("\n")
    if width == 1:  # no zeros to drop
        return out.reshape(-1), np.full(n, 2 * k)
    keep = np.ones(out.shape, dtype=bool)
    for d in range(width - 1):  # drop the zeros in front of each symbol
        keep[..., d] = cells >= 10 ** (width - 1 - d)
    return out[keep], np.count_nonzero(keep.reshape(n, -1), axis=1)


def _fast_rows(lines: _Lines, n: int, profile: LevelProfile, out: np.ndarray) -> bool:
    """Fill `out`, a (count, n, k) int32 array, with the rows of count blocks
    of n rows from lines.pos on, parsed in one vectorised pass.  False
    (lines.pos unmoved) unless the text is exactly what the writer emits for
    them.  Blocks after the first must each follow one blank line and a copy
    of the header line before lines.pos."""
    count = len(out)
    first, step = lines.pos, n + 2
    starts = range(first, first + count * step, step)
    end = starts[-1] + n  # the line after the last row, which must end in LF
    if end >= len(lines):
        return False
    header = lines.raw(first - 1)
    if any(lines.raw(s - 2) or lines.raw(s - 1) != header for s in starts[1:]):
        return False
    body = np.frombuffer(b"".join([lines.span(s, n) for s in starts]), dtype=np.uint8)
    ends = np.flatnonzero(body <= ord(" "))  # the space or LF after each symbol
    if len(ends) != out.size:
        return False
    begins = np.concatenate(([0], ends + 1))[:-1]
    width = ends - begins
    if width.size and not 1 <= width.min() <= width.max() <= 10:
        return False
    cells = body[begins].astype(np.int64) - ord("0")
    for j in range(1, int(width.max(initial=0))):
        more = width > j
        cells[more] = cells[more] * 10 + body[begins[more] + j] - ord("0")
    cells = cells.reshape(-1, profile.k)
    if ((cells < 0) | (cells >= np.array(profile.levels))).any():
        return False
    out[...] = cells.reshape(out.shape)
    if not np.array_equal(_encode_rows(out.reshape(-1, profile.k))[0], body):
        return False
    lines.pos = end
    return True


def _slow_rows(lines: _Lines, n: int, profile: LevelProfile, out: np.ndarray) -> None:
    """Fill `out` (n x k) with the next n rows, read line by line with a
    ParseError for the first bad one."""
    for i in range(n):
        item = lines.next_content()
        if item is None:
            raise ParseError(f"expected {n} rows, found {i}", len(lines))
        line, lineno = item
        fields = line.split()
        if len(fields) != profile.k:
            raise ParseError(
                f"row has {len(fields)} symbols, expected {profile.k}", lineno
            )
        for j, f in enumerate(fields):
            try:
                v = int(f)
            except ValueError:
                raise ParseError(f"bad symbol {f!r}", lineno) from None
            if not 0 <= v < profile.levels[j]:
                raise ParseError(
                    f"symbol {v} out of range [0, {profile.levels[j]}) in column {j}",
                    lineno,
                )
            out[i, j] = v


def _parse_blocks(lines: _Lines, m: int) -> tuple[LevelProfile, np.ndarray, list[int]]:
    """The next m OA blocks as (profile, one (m, N, k) array, each block's t).
    Runs of blocks are tried on the fast path together until one run fails;
    then each block goes alone."""
    n, t, profile, _ = _parse_oa_header(lines)
    k = profile.k
    # every symbol takes a byte, so the file holds fewer than `fit` blocks
    fit = len(lines.data) // (n * k) + 1 if n else m
    cells = np.empty((min(m, fit), n, k), dtype=np.int32)
    member_t: list[int] = []
    runs = True
    while len(member_t) < m:
        i = len(member_t)
        if i:
            if not lines.peek_is_blank_separator():
                raise ParseError(f"expected a blank line before member {i + 1}",
                                 lines.pos + 1)
            n_i, t, profile_i, lineno = _parse_oa_header(lines)
            if (n_i, profile_i) != (n, profile):
                raise ParseError(
                    f"member {i} has N={n_i} levels={profile_i.format()},"
                    f" member 0 has N={n} levels={profile.format()}",
                    lineno,
                )
        block = cells[i:i + _members_per_chunk(n, k)]
        if runs and len(block) > 1:
            runs = _fast_rows(lines, n, profile, block)
        if not runs or len(block) == 1:
            block = block[:1]
            if not _fast_rows(lines, n, profile, block):
                _slow_rows(lines, n, profile, block[0])
        member_t += [t] * len(block)
    return profile, cells, member_t


def _read_strided(data: bytes) -> SymbolMatrix | LargeSet | None:
    """The object whose writer text `data` is, if its symbols are all single
    digits and its members share one header, read as one strided view of the
    bytes; None for any other text."""
    loa = data.startswith(b"LOA ")
    m, start = 1, 0
    if loa:
        start = data.find(b"\n") + 1
        m = _loa_members(data[:start].decode(), 1)
        if data[:start] != f"LOA M={m}\n".encode():
            return None
    end = data.find(b"\n", start) + 1
    if not end:
        return None
    # len(data) bounds the lines after the header; the length check below is exact
    n, t, profile = _header_fields(data[start:end].decode(), 1, len(data), len(data))
    header = _oa_header(n, t, profile.format())
    h, k = len(header), profile.k
    size = h + 2 * n * k + 1  # a member and the blank line after it
    if data[start:end] != header or len(data) != start + m * size - 1:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    members = as_strided(body, (m, size - 1), (size, 1), writeable=False)
    blanks = body[size - 1::size]
    header = np.frombuffer(header, dtype=np.uint8)
    # what follows each symbol of a member, and its bound; a byte below '0'
    # wraps to 208 or more, so one compare also refuses every non-digit
    separators = np.tile(np.array([ord(" ")] * (k - 1) + [ord("\n")], dtype=np.uint8), n)
    tops = np.tile(np.minimum(profile.levels, 10).astype(np.uint8), n)
    cells = np.empty((m, n * k), dtype=np.int32)
    step = _members_per_chunk(n, k)
    for lo in range(0, m, step):
        chunk = members[lo:lo + step]
        symbols = chunk[:, h::2] - ord("0")
        if not ((chunk[:, :h] == header).all() and (chunk[:, h + 1::2] == separators).all()
                and (blanks[lo:lo + step] == ord("\n")).all() and (symbols < tops).all()):
            return None
        cells[lo:lo + len(chunk)] = symbols
    cells = cells.reshape(m, n, k)
    if loa:
        return LargeSet._stacked(profile, cells, (t,) * m, t)
    return SymbolMatrix._trusted(profile, cells[0], t)


def _load(data: bytes) -> SymbolMatrix | LargeSet:
    try:
        obj = _read_strided(data)
    except ParseError:  # reported with its line by the reader below
        obj = None
    if obj is not None:
        return obj
    lines = _Lines(data)
    first = lines.next_content()
    if first is None:
        raise ParseError("empty file", 1)
    header, lineno = first
    tag = header.split()[0]
    if tag == "OA":
        lines.pos = lineno - 1
        profile, cells, (t,) = _parse_blocks(lines, 1)
        obj = SymbolMatrix._trusted(profile, cells[0], t)
    elif tag == "LOA":
        m = _loa_members(header, lineno)
        profile, cells, member_t = _parse_blocks(lines, m)
        obj = LargeSet._stacked(profile, cells, member_t, min(member_t))
    else:
        raise ParseError(f"unknown header tag {tag!r}", lineno)
    extra = lines.next_content()
    if extra is not None:
        raise ParseError(f"content after the last block: {extra[0][:40]!r}", extra[1])
    return obj


def loads(text: str) -> SymbolMatrix | LargeSet:
    return _load(text.encode("utf-8"))


def _writable(obj: SymbolMatrix | LargeSet) -> tuple[np.ndarray, tuple[int, ...]]:
    """obj's cells as an (M, N, k) array and each member's t, or an error if
    the text of obj would not read back as obj."""
    if isinstance(obj, SymbolMatrix):
        cells, member_t = obj.cells[None], (obj.t,)
    elif isinstance(obj, LargeSet):
        cells, member_t = obj.cells, obj.member_t
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if None in member_t:
        raise ValueError("array has no claimed strength; set t before writing")
    k = obj.profile.k
    bad = [t for t in member_t if not 0 <= t <= k]
    if bad:
        raise ValueError(f"claimed strength {bad[0]} is outside [0, {k}]")
    return cells, member_t


def _write(obj: SymbolMatrix | LargeSet, out) -> None:
    """Write obj's text to the binary stream `out`, encoding up to
    CHUNK_CELLS symbols at once.  Single-digit symbols under one t go into a
    template of the fixed layout, one write per chunk."""
    cells, member_t = _writable(obj)
    if isinstance(obj, LargeSet):
        out.write(f"LOA M={obj.m}\n".encode())
    levels = obj.profile.format()
    m, n, k = cells.shape
    step = _members_per_chunk(n, k)
    if len(set(member_t)) == 1 and (max(obj.profile.levels) <= 10
                                    or cells.max(initial=0) < 10):
        header = _oa_header(n, member_t[0], levels)
        h = len(header)
        size = h + 2 * n * k + 1  # a member and the blank line after it
        template = np.empty((min(step, m), size), dtype=np.uint8)
        template[:, :h] = np.frombuffer(header, dtype=np.uint8)
        rows = template[:, h:-1].reshape(len(template), n, k, 2)
        rows[..., 1] = ord(" ")
        rows[:, :, -1, 1] = ord("\n")
        template[:, -1] = ord("\n")
        text = template.reshape(-1)
        for lo in range(0, m, step):
            block = cells[lo:lo + step]
            np.add(block, ord("0"), out=rows[:len(block), ..., 0], casting="unsafe")
            out.write(text[:len(block) * size - (lo + step >= m)])
        return
    for lo in range(0, m, step):
        block = cells[lo:lo + step]
        text, row_len = _encode_rows(block.reshape(-1, k))
        view = memoryview(text)
        start = 0
        for i, size in enumerate(row_len.reshape(len(block), n).sum(axis=1).tolist()):
            if lo + i:
                out.write(b"\n")
            out.write(_oa_header(n, member_t[lo + i], levels))
            out.write(view[start:start + size])
            start += size


def dumps(obj: SymbolMatrix | LargeSet) -> str:
    buf = io.BytesIO()
    _write(obj, buf)
    return buf.getvalue().decode("ascii")


def read_utf8(path) -> bytes:
    """The bytes of a text file, with CR LF and CR line ends read as LF; a
    ParseError names the line of the first byte that is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}",
                             data.count(b"\n", 0, exc.start) + 1) from None
    return data


def read_array(path) -> SymbolMatrix | LargeSet:
    return _load(read_utf8(path))


def write_array(obj: SymbolMatrix | LargeSet, path) -> None:
    _writable(obj)  # refused before the file is opened, so it is left as it was
    with open(path, "wb") as f:
        _write(obj, f)
