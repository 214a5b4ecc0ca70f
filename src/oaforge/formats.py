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

Every text, a file's or a string's, is read by one function over a binary
file (`_read`).  Text that is exactly what the writers emit for an object
whose symbols are all single digits and whose members share one header has
a fixed layout: the header, N rows of 2k bytes, one blank line.  Its members
are read a chunk (or one member of more than a chunk) at a time into one
reused buffer, and decoded a chunk of rows at a time as 2-byte (symbol,
separator) records, one subtraction and one comparison per symbol checking
every byte against that layout (`_read_records`).  From the first chunk
that fails the check, only the rest of the file is read, and indexed by
lines; any other text is read whole and indexed by lines.  Either gets
`read_utf8`'s CR and UTF-8 handling first; a whole text whose bytes that
changes is read again from the changed bytes, so that a CR LF file of
single digits still goes to `_read_records`.  There one decoder
(`_decode`) takes a chunk of whole members, or of the rows of a member of
more than a chunk, and checks each line directly: a row is k tokens joined
by single spaces and ended by LF, each 1 to `width` ASCII digits (as many
as its column's largest symbol has) and below its level; a header is the
writers' header, its t its own digits; a blank line is empty.  The member
of the first line that fails goes line by line, where every ParseError
comes from, and the decoder starts again after it.

The writers emit a chunk of about CHUNK_CELLS symbols at a time: whole
members from one template, or a member of more than a chunk as its header,
its rows a chunk at a time from one template of rows, and its blank line,
so that neither writing nor reading makes a temporary as large as a
member of more than a chunk.

Every way stores the cells in the profile's dtype (uint8 when every level
is at most 256) and checks each symbol against its level before it is
narrowed into them.
"""

from __future__ import annotations

import functools
import io
import itertools
import os
import stat
from typing import NamedTuple

import numpy as np

from .arrays import LargeSet, LevelProfile, SymbolMatrix
from .errors import ParseError

CHUNK_CELLS = 1 << 16  # symbols encoded or decoded at once, to bound memory
# a file's first bytes, read for its layout; one whose first header ends later is read whole
HEAD_BYTES = 1 << 12


def _members_per_chunk(n: int, k: int) -> int:
    """Members of N rows of k symbols taken at once: CHUNK_CELLS symbols, or one."""
    return max(1, CHUNK_CELLS // max(1, n * k))


class _Lines:
    """The lines of a UTF-8 buffer whose first is line `base` (0-based) of
    the file, located by one vectorised search for LF; `before` is how many
    bytes of the file come before the buffer.

    A line is decoded only when read on its own; numbers are 1-based."""

    def __init__(self, data: bytes, base: int = 0, before: int = 0):
        self.data, self.size = data, before + len(data)  # the file's length in bytes
        # line i (0-based) is data[bounds[i - base] + 1 : bounds[i - base + 1]], without its LF
        newlines = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
        self.bounds = np.concatenate(([-1], newlines, [len(data)]))
        self.base = self.pos = base

    def __len__(self) -> int:
        return self.base + len(self.bounds) - 1

    def raw(self, i: int) -> bytes:
        return self.data[self.bounds[i - self.base] + 1:self.bounds[i - self.base + 1]]

    def text(self, i: int) -> str:
        return self.raw(i).decode("utf-8")

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


def _oa_header(n: int, t: int | str, levels: str) -> bytes:
    """The writers' header line of a block, with its LF; `t` may be a slot."""
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
    return (*_header_fields(header, lineno, left, lines.size), lineno)


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


@functools.lru_cache(maxsize=64)
def _layout(profile: LevelProfile) -> tuple[tuple[tuple[int, int, int, int], ...], bytes, str]:
    """(first column, end column, digits, first byte) of each run of columns
    whose largest symbols have equally many digits; the writer's template of
    a row, per symbol that many NULs and then its space or LF; its levels."""
    widths = [len(str(s - 1)) for s in profile.levels]
    at = list(itertools.accumulate([w + 1 for w in widths], initial=0))
    starts = [j for j in range(len(widths)) if j == 0 or widths[j] != widths[j - 1]]
    runs = [(a, b, widths[a], at[a]) for a, b in zip(starts, starts[1:] + [len(widths)])]
    return tuple(runs), b"".join(b"\0" * w + b" " for w in widths)[:-1] + b"\n", profile.format()


def _digits(values: np.ndarray, slots: np.ndarray) -> None:
    """Write `values` right-aligned in decimal into `slots` (..., width), NUL for leading zeros."""
    width, rest = slots.shape[-1], values
    for d in range(width - 1, 0, -1):
        quot = rest // 10
        np.add(rest - quot * 10, ord("0"), out=slots[..., d], casting="unsafe")
        rest = quot
    np.add(rest, ord("0"), out=slots[..., 0], casting="unsafe")
    for d in range(width - 1):
        slots[..., d] *= values >= 10 ** (width - 1 - d)


def _fill(rows: np.ndarray, block: np.ndarray, runs) -> None:
    """Write the symbols of `block` (..., k) into the row templates `rows`
    (..., bytes of a row) laid out as `runs` (see `_layout`)."""
    for a, b, width, at in runs:
        slots = rows[..., at:at + (b - a) * (width + 1)]
        _digits(block[..., a:b], slots.reshape(*rows.shape[:-1], b - a, width + 1)[..., :-1])


def _row_text(rows: np.ndarray, profile: LevelProfile):
    """Yield the writer's text of `rows` (N, k), a chunk of about
    CHUNK_CELLS symbols at a time from one reused template of rows, each
    valid until the next.  A chunk's rows are read only when it is made, so
    a reader may fill `rows` a chunk ahead of it."""
    n, k = rows.shape
    runs, row, _ = _layout(profile)
    step = min(n, max(1, CHUNK_CELLS // k))
    buf = bytearray(row * step)
    text = np.frombuffer(buf, dtype=np.uint8).reshape(step, len(row))
    strip = max(width for _, _, width, _ in runs) > 1
    for lo in range(0, n, step):
        c = len(block := rows[lo:lo + step])
        _fill(text[:c], block, runs)
        chunk = memoryview(buf)[:c * len(row)]
        yield (buf if c == step else chunk.tobytes()).translate(None, b"\0") if strip else chunk


def _text(cells: np.ndarray, member_t: tuple[int, ...] | list[int], profile: LevelProfile):
    """Yield the writer's text of the members `cells` (M, N, k) and their t's,
    a chunk of about CHUNK_CELLS symbols at a time, each valid until the
    next.  Members that fit in a chunk are filled into a template of whole
    members, each a header (with a slot for t if they differ), N rows (see
    `_layout`) and a blank LF; `_digits` fills the slots.  A larger member
    is written as its header, its rows a chunk at a time (`_row_text`) and
    its blank LF, so no chunk holds more than about CHUNK_CELLS symbols."""
    m, n, k = cells.shape
    runs, row, levels = _layout(profile)
    if n * k > CHUNK_CELLS:
        for i, t in enumerate(member_t):
            yield _oa_header(n, t, levels)
            yield from _row_text(cells[i], profile)
            if i < m - 1:
                yield b"\n"
        return
    slot = len(set(member_t)) > 1  # then each header has a slot for its member's t
    header = _oa_header(n, "\0" * len(str(max(member_t))) if slot else member_t[0], levels)
    h, at_t, tw = len(header), header.find(b"\0"), header.count(b"\0")
    step, size = min(m, _members_per_chunk(n, k)), h + n * len(row) + 1
    buf = bytearray(header + row * n + b"\n") * step
    text = np.frombuffer(buf, dtype=np.uint8).reshape(step, size)
    rows = text[:, h:-1].reshape(step, n, len(row))
    strip = tw > 1 or max(width for _, _, width, _ in runs) > 1
    for lo in range(0, m, step):
        block = cells[lo:lo + step]
        c = len(block)
        if slot:
            _digits(np.asarray(member_t[lo:lo + c]), text[:c, at_t:at_t + tw])
        _fill(rows[:c], block, runs)
        chunk = memoryview(buf)[:c * size]
        if strip:
            chunk = (buf if c == step else chunk.tobytes()).translate(None, b"\0")
        yield memoryview(chunk)[:-1] if lo + c == m else chunk


def _header_t(data: np.ndarray, starts: np.ndarray, stops: np.ndarray, n: int,
              profile: LevelProfile) -> tuple[np.ndarray, np.ndarray]:
    """Whether each line data[starts[i]:stops[i]] is the writers' header of a
    member of n rows of the profile, with a t of its own digits, no leading
    zero and at most k; and each line's t."""
    bare = _oa_header(n, "", _layout(profile)[2])
    cut, most = bare.index(b" levels="), len(str(profile.k))  # t's place and most digits
    digits = stops + 1 - starts - len(bare)
    fixed = np.concatenate((starts[:, None] + np.arange(cut),
                            stops[:, None] + np.arange(cut - len(bare) + 1, 1)), axis=1)
    slot = data.take(starts[:, None] + cut + np.arange(most), mode="clip") - np.uint8(ord("0"))
    inside = np.arange(most) < digits[:, None]
    power = 10 ** np.maximum(digits[:, None] - 1 - np.arange(most), 0)
    t = (np.where(inside, slot, 0) * power).sum(axis=1)
    ok = ((data.take(fixed, mode="clip") == np.frombuffer(bare, np.uint8)).all(axis=1)
          & (digits >= 1) & (digits <= most) & ((slot < 10) | ~inside).all(axis=1)
          & ((slot[:, 0] > 0) | (digits == 1)) & (t <= profile.k))
    return ok, t


def _decode(lines: _Lines, first: int, out: np.ndarray, profile: LevelProfile,
            headed: bool = True) -> list[int]:
    """Decode into `out` (c, r, k) the lines from `first` on: c members, each
    its header and r rows, a blank line between members, or, not `headed`,
    one group of r rows, each line checked as the module docstring says.
    Return the t of each member (0 without headers) before the first line
    that fails; only those are written into `out`."""
    c, r, k = out.shape
    head = int(headed)
    period = r + 2 * head  # lines a member takes, with the blank line after it
    c = min(c, max(0, (len(lines) - 1 - first - r - head) // period + 1))  # last rows end in LF
    if not c:
        return []
    # b[j] and b[j + 1] are the LFs before and after line first + j
    b = lines.bounds[first - lines.base:first - lines.base + c * period + 1]
    data = np.frombuffer(lines.data, np.uint8)
    # from the first header, or the LF before the first row, to the last row's LF
    start, stop = b[0] + head, b[len(b) - 1 - head] + 1
    text = np.empty(stop - start + 2, np.uint8)
    text[:-2], text[-2:] = data[start:stop], (ord("0"), ord("\n"))  # and one more gap
    ok, t = np.ones(c, bool), np.zeros(c, np.int64)
    if headed:
        starts, stops = b[:-1:period] + 1, b[1::period]
        ok, t = _header_t(data, starts, stops, r, profile)
        ok[1:] &= np.diff(b)[period - 1:-1:period] == 1  # the blank line before each member
        # from here on, each header and the blank line before it read as digits and an LF
        longest = len(_oa_header(r, k, _layout(profile)[2])) - 1
        heads = np.minimum(starts[:, None] + np.arange(longest), stops[:, None] - 1)
        text.put(heads - start, ord("0"), mode="clip")
        text[b[period:-1:period] - start] = ord("0")
    # every byte is a digit or a gap (a space or an LF), and no two gaps are adjacent
    digit = np.empty(len(text) + 1, np.uint8)  # digit[i] is byte i - 1 less '0'
    np.subtract(text, np.uint8(ord("0")), out=digit[1:])
    gap = (text == ord(" ")) | (text == ord("\n"))
    other = (digit[1:] >= 10) & ~gap
    other[1:] |= gap[1:] & gap[:-1]
    bad = int(np.searchsorted(b - start, other.argmax())) - 1 if other.any() else len(b)
    # each member's gaps from the LF before its first row: each row's LF k gaps on
    gaps = np.flatnonzero(gap)
    per = r * k + 1
    at = np.arange(c)[:, None] * per + np.arange(k * (1 - head), per, k)
    lfs = b[1:].reshape(c, period)[:, :r + head] - start  # each header's and row's LF
    found = ((at < len(gaps)) & (gaps.take(at, mode="clip") == lfs)).all(axis=1)
    # the members before the first with a bad line
    good = min((bad + head) // period, c if found.all() else int(found.argmin()))
    # each token's gap after it, its last digit and its length plus one
    ends = gaps[:good * per].reshape(good, per)[:, 1:].reshape(good, r, k)
    kind = np.uint16 if profile.dtype == np.uint8 else np.int64  # for 3 digits, or 10
    cells = digit.take(gaps[:good * per]).reshape(good, per)[:, 1:].reshape(good, r, k).astype(kind)
    size = np.diff(gaps[:good * per + 1]).reshape(good, per)
    runs = _layout(profile)[0]
    for a, e, width, _ in runs:
        for d in range(1, width):  # the digit d places left of the last, if the token has it
            more = size[:, :-1].reshape(good, r, k)[..., a:e] > d + 1
            cells[..., a:e] += np.where(more, digit.take(ends[..., a:e] - d), kind(0)) * 10**d
    widths = np.repeat([w + 1 for _, _, w, _ in runs], [e - a for a, e, _, _ in runs])
    ok[:good] &= ((size <= np.append(np.tile(widths, r), len(text))).all(axis=1)
                  & (cells < np.array(profile.levels, dtype=kind)).all(axis=(1, 2)))
    taken = good if ok[:good].all() else int(ok.argmin())
    out[:taken] = cells[:taken]
    return t[:taken].tolist()


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


def _next_header(lines: _Lines, i: int, n: int, profile: LevelProfile) -> int:
    """The t of member i's header, after its blank line; it must have member 0's N and levels."""
    if not lines.peek_is_blank_separator():
        raise ParseError(f"expected a blank line before member {i + 1}", lines.pos + 1)
    n_i, t, profile_i, lineno = _parse_oa_header(lines)
    if (n_i, profile_i) != (n, profile):
        raise ParseError(f"member {i} has N={n_i} levels={profile_i.format()},"
                         f" member 0 has N={n} levels={profile.format()}", lineno)
    return t


def _parse_blocks(lines: _Lines, m: int, read=None) -> tuple[LevelProfile, np.ndarray, list[int]]:
    """The next m OA blocks as (profile, one (m, N, k) array, each block's t),
    after those in `read`, such a triple with lines.pos at the blank line after
    them, decoded a chunk at a time; the member the decoder fails on goes
    line by line, and the next chunk starts after it."""
    if read is None:
        n, t, profile, _ = _parse_oa_header(lines)
        # every symbol takes a byte and every member a line, so the file holds fewer than `fit`
        fit = lines.size // (n * profile.k) + 1 if n else len(lines) - lines.pos + 1
        read = profile, np.empty((min(m, fit), n, profile.k), dtype=profile.dtype), []
    profile, cells, member_t = read
    n, k = cells.shape[1:]
    step = max(1, CHUNK_CELLS // k)  # rows of a member of more than a chunk decoded at once
    while (i := len(member_t)) < m:
        if i:
            t = _next_header(lines, i, n, profile)
        if n * k > CHUNK_CELLS:  # a chunk of rows at a time, its t read above
            block = cells[i:i + 1]
            got = [t] if all(_decode(lines, lines.pos + lo, block[:, lo:lo + step], profile, False)
                             for lo in range(0, n, step)) else []
        else:
            block = cells[i:i + _members_per_chunk(n, k)]
            got = _decode(lines, lines.pos - 1, block, profile)  # from member i's header
        if got:
            lines.pos += len(got) * (n + 2) - 2
            member_t += got
            if len(got) == len(block):
                continue
            t = _next_header(lines, len(member_t), n, profile)
        _slow_rows(lines, n, profile, cells[len(member_t)])
        member_t.append(t)
    return profile, cells, member_t


class _Form(NamedTuple):
    """The layout of single-digit writer text: whether it is an LOA file, its
    M, the byte at which its first member starts, the header every member
    has, and that header's N, t and profile."""

    loa: bool
    m: int
    start: int
    header: bytes
    n: int
    t: int
    profile: LevelProfile

    @property
    def size(self) -> int:
        """The bytes of a member and of the blank line after it."""
        return len(self.header) + 2 * self.n * self.profile.k + 1

    @property
    def step(self) -> int:
        """The members read at once."""
        return _members_per_chunk(self.n, self.profile.k)


def _form(head: bytes, size: int) -> _Form | None:
    """The layout of the file of `size` bytes that begins with `head`, if it
    can be what the writers emit for an object whose symbols are all single
    digits and whose members share one header; None otherwise."""
    loa, m, start = head.startswith(b"LOA "), 1, 0
    try:
        if loa:
            start = head.find(b"\n") + 1
            m = _loa_members(head[:start].decode(), 1)
        end = head.find(b"\n", start) + 1
        # the size bounds the lines after the header; the length check below is exact
        n, t, profile = _header_fields(head[start:end].decode(), 1, size, size)
    except (ParseError, UnicodeDecodeError):  # reported by the line reader
        return None
    form = _Form(loa, m, start, _oa_header(n, t, profile.format()), n, t, profile)
    if (head[:start] != (f"LOA M={m}\n".encode() if loa else b"")
            or head[start:end] != form.header or size != start + m * form.size - 1):
        return None
    return form


@functools.lru_cache(maxsize=64)
def _records(n: int, profile: LevelProfile) -> tuple[np.ndarray, np.ndarray | int]:
    """n rows as 2-byte (symbol, separator) records, each read as a
    little-endian uint16: the record of '0' followed by its separator (a
    space, or LF at the end of a row), and the bound of its symbol (its
    column's level, at most 10), one int if every column has the same.  A
    record minus its '0' is below the bound only if its symbol is a digit
    below it and its separator is the right one: any other byte wraps to 208
    or more in one of the two bytes."""
    separators = np.array([ord(" ")] * (profile.k - 1) + [ord("\n")], dtype=np.uint16)
    zero = np.tile(ord("0") | separators << 8, n)
    zero.flags.writeable = False
    tops = np.minimum(profile.levels, 10)
    if len(set(tops.tolist())) == 1:
        return zero, int(tops[0])
    tops = np.tile(tops.astype(np.uint16), n)
    tops.flags.writeable = False
    return zero, tops


def _read_records(form: _Form, f) -> tuple[LevelProfile, np.ndarray, list[int]] | None:
    """The profile, (M, N, k) array and member t's of the text laid out as
    `form` in the binary file `f`, read a chunk of members at a time into
    one reused buffer and decoded a chunk of rows at a time: the members
    before the first chunk that is not exactly the writers' text, or that
    the file ends in, or None if it is the first."""
    n, profile, h, m, size = form.n, form.profile, len(form.header), form.m, form.size
    rows = max(1, min(n, CHUNK_CELLS // profile.k))  # rows checked at once
    zero, tops = _records(rows, profile)
    header = np.frombuffer(form.header, dtype=np.uint8)
    cells = np.empty((m, n * profile.k), dtype=profile.dtype)
    lo, step = 0, min(m, form.step)
    buf = bytearray(step * size)  # members, each with the blank line after it
    grid = np.frombuffer(buf, dtype=np.uint8).reshape(step, size)
    # the whole 2-byte differences, whose high byte checks the separator, are
    # checked here before their symbols are copied into the cells
    records = np.empty((step, len(zero)), dtype=np.uint16)
    f.seek(form.start)
    while lo < m:
        c = min(step, m - lo)
        last = lo + c == m  # no blank line after the last member
        if f.readinto(memoryview(buf)[:c * size - last]) != c * size - last:
            break
        members, blanks = grid[:c, :-1], grid[:c - last, -1]
        text = members[:, h:].view("<u2")
        ok = True
        for a in range(0, text.shape[1], len(zero)):  # a chunk of rows at a time
            w = min(len(zero), text.shape[1] - a)
            symbols = np.subtract(text[:, a:a + w], zero[:w], out=records[:c, :w])
            ok = (symbols.max(initial=0) < tops if isinstance(tops, int)
                  else (symbols < tops[:w]).all())
            if not ok:
                break
            cells[lo:lo + c, a:a + w] = symbols
        if not (ok and (members[:, :h] == header).all() and (blanks == ord("\n")).all()):
            break
        lo += c
    return (profile, cells.reshape(m, n, profile.k), [form.t] * lo) if lo else None


def _finish(read, loa: bool, lines: _Lines | None = None) -> SymbolMatrix | LargeSet:
    """The object of a read (profile, cells, member t's); with `lines`, only
    blank and comment lines may be left in them."""
    extra = lines.next_content() if lines is not None else None
    if extra is not None:
        raise ParseError(f"content after the last block: {extra[0][:40]!r}", extra[1])
    profile, cells, member_t = read
    if loa:
        return LargeSet._stacked(profile, cells, member_t, min(member_t))
    return SymbolMatrix._trusted(profile, cells[0], member_t[0])


def _read(f, size: int) -> SymbolMatrix | LargeSet:
    """The object whose text is the binary file `f` of `size` bytes.  Text
    in single-digit writer form goes to `_read_records`; from the first
    chunk it declines, only the rest of the file is read, and parsed by
    lines.  Any other text, or a file that goes on after its last member,
    is read whole, and read again from its bytes if `_utf8` changed them."""
    form = _form(f.read(HEAD_BYTES), size)
    read = form and _read_records(form, f)
    taken = len(read[2]) if read else 0
    if 0 < taken < form.m:
        base = taken * (form.n + 2)  # the blank line before the first member not taken
        at = form.start - 1 + taken * form.size  # and its LF
        f.seek(at)
        lines = _Lines(_utf8(f.read(), base), base, at)
        return _finish(_parse_blocks(lines, form.m, read), True, lines)
    if taken and not f.read(1):
        return _finish(read, form.loa)
    f.seek(0)
    data = f.read()
    if (clean := _utf8(data)) is not data:
        return _read(io.BytesIO(clean), len(clean))
    lines = _Lines(data)
    first = lines.next_content()
    if first is None:
        raise ParseError("empty file", 1)
    header, lineno = first
    tag = header.split()[0]
    if tag not in ("OA", "LOA"):
        raise ParseError(f"unknown header tag {tag!r}", lineno)
    if tag == "OA":
        lines.pos = lineno - 1
    m = _loa_members(header, lineno) if tag == "LOA" else 1
    return _finish(_parse_blocks(lines, m), tag == "LOA", lines)


def loads(text: str) -> SymbolMatrix | LargeSet:
    data = text.encode("utf-8")
    return _read(io.BytesIO(data), len(data))


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
    """Write obj's text to the binary stream `out`, one write per chunk."""
    cells, member_t = _writable(obj)
    if isinstance(obj, LargeSet):
        out.write(f"LOA M={obj.m}\n".encode())
    for chunk in _text(cells, member_t, obj.profile):
        out.write(chunk)


def dumps(obj: SymbolMatrix | LargeSet) -> str:
    buf = io.BytesIO()
    _write(obj, buf)
    return buf.getvalue().decode("ascii")


def _utf8(data: bytes, base: int = 0) -> bytes:
    """`data` with CR LF and CR line ends read as LF; a ParseError names the
    line of the first byte that is not UTF-8, after `base` lines before data."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}",
                             base + data.count(b"\n", 0, exc.start) + 1) from None
    return data


def read_utf8(path) -> bytes:
    """The bytes of a text file, with CR LF and CR line ends read as LF; a
    ParseError names the line of the first byte that is not UTF-8."""
    with open(path, "rb") as f:
        return _utf8(f.read())


def read_array(path) -> SymbolMatrix | LargeSet:
    """The array or large set in the file `path`: a regular file is read
    through `_read` as it is, any other (a pipe) whole first."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read(f, info.st_size)
        data = f.read()
    return _read(io.BytesIO(data), len(data))


def write_array(obj: SymbolMatrix | LargeSet, path) -> None:
    _writable(obj)  # refused before the file is opened, so it is left as it was
    with open(path, "wb") as f:
        _write(obj, f)
