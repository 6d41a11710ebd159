"""Agent preference profiles over houses, with ties allowed."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ProfileError(ValueError):
    """Malformed profile or instance file. Carries the line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# the rank a removed house takes in the solver's masked matrix; no real rank
# may reach it, so a masked house never ties an available one
WORST_RANK = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """Complete weak ranking of every agent over every house.

    ``ranks[i, h]`` is the rank agent ``i + 1`` gives house ``h + 1``; lower
    is better and equal values encode ties. Rank values need not be dense,
    only the ordering they induce matters; they must be integers below
    ``WORST_RANK`` that fit in int64. Agent and house ids are 1-based at the
    API boundary.

    ``ranks`` may be given as rows of ints or as an integer array, at least
    one row of at least one rank. The profile copies it into a read-only
    ``(n_agents, n_houses)`` int64 array (``ranks.tolist()`` gives Python
    rows), so no later write to the given object reaches the profile; the
    two counts are read off its shape. Instances are immutable, hashable and
    safe to share across threads.
    """

    ranks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ranks", _rank_matrix(self.ranks))

    @property
    def n_agents(self) -> int:
        return self.ranks.shape[0]

    @property
    def n_houses(self) -> int:
        return self.ranks.shape[1]

    def __eq__(self, other):
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return np.array_equal(self.ranks, other.ranks)

    def __hash__(self):
        return hash((self.ranks.shape, self.ranks.tobytes()))


def _rank_matrix(ranks) -> np.ndarray:
    """A checked, read-only int64 copy of ``ranks``."""
    try:
        array = np.array(ranks)
    except ValueError:
        raise ProfileError("rank rows must all have the same length") from None
    if array.size == 0:
        raise ProfileError("profile needs at least one agent and one house")
    if array.ndim != 2:
        raise ProfileError(f"ranks must form a 2-d matrix, got shape {array.shape}")
    # numpy integers count as integers here, but bools (np.bool_ is no
    # np.integer) do not
    if array.dtype.kind == "O" and all(type(v) is int or isinstance(v, np.integer) for v in array.flat):
        low = int(np.iinfo(np.int64).min)
        wide = next((v for v in array.flat if not low <= int(v) <= WORST_RANK), None)
        if wide is not None:
            raise ProfileError(f"rank values must fit in int64, got {wide}")
        array = array.astype(np.int64)
    if array.dtype.kind not in "iu":
        raise ProfileError(f"ranks must be integers, got {array.dtype} values")
    if array.dtype.kind == "u" and array.max() > WORST_RANK:
        raise ProfileError(f"rank values must fit in int64, got {array.max()}")
    array = array.astype(np.int64, copy=False)
    if array.max() == WORST_RANK:
        raise ProfileError(f"rank values must lie below {WORST_RANK}")
    array.flags.writeable = False
    return array


def parse_profile(text: str) -> PreferenceProfile:
    """Parse an instance file into a profile.

    The format is a header line ``<n> <m>`` followed by one ranking line per
    agent. A ranking lists house ids separated by ``>`` for strict preference
    and ``=`` for ties, e.g. ``1 > 2 = 3 > 4``; whitespace around separators
    is ignored and every house id in 1..m must appear exactly once.

    Plain files (ASCII digits, spaces, tabs, ``>``, ``=`` and ``\\n`` only)
    are read with a few numpy passes; anything else, and any file that fails
    a check there, goes to the line parser, which words every error.
    """
    profile = _parse_plain(text)
    return profile if profile is not None else _parse_lines(text)


def _parse_lines(text: str) -> PreferenceProfile:
    """Line-by-line parser: takes any house id ``int()`` takes, words every error.

    Lines end only at ``\\r\\n``, ``\\r`` and ``\\n``, the newlines ``open()``
    translates; other characters ``str.splitlines`` breaks at (``\\f``,
    ``\\u2028`` and the like) are whitespace inside a line.
    """
    lines = [ln.strip() for ln in _NEWLINE.split(text)]
    if text.endswith(("\r", "\n")):
        lines.pop()  # a final newline ends the last line, it opens no new one
    if not lines or not lines[0]:
        raise ProfileError("missing `n m` header", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ProfileError("header must be two integers `n m`", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ProfileError("header must be two integers `n m`", line=1) from None
    if n < 1 or m < 1:
        raise ProfileError("agent and house counts must be positive", line=1)
    # a ranking lists every id, so it cannot be shorter than m characters;
    # checked before any per-house storage is allocated
    if m > len(text):
        raise ProfileError(f"{m} houses cannot be listed in {len(text)} characters", line=1)

    rows: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if len(rows) < n:
            rows.append(_parse_ranking(raw, line_no, m))
        elif raw:
            raise ProfileError("unexpected extra ranking line", line=line_no)
    if len(rows) < n:
        raise ProfileError(
            f"expected rankings for {n} agents, found only {len(rows)}",
            line=len(lines) + 1,
        )
    return PreferenceProfile(tuple(rows))


def _parse_ranking(raw: str, line: int, m: int) -> tuple[int, ...]:
    if not raw:
        raise ProfileError("empty ranking line", line=line)
    ranks = [0] * m
    position = 1
    for group in raw.split(">"):
        tokens = group.split("=")
        for token in tokens:
            # stripped first: int() would take surrounding whitespace too,
            # but not `\x1c`-`\x1f`, which `str.strip` counts as whitespace
            token = token.strip()
            try:
                house = int(token)
            except ValueError:
                if not token:
                    raise ProfileError("malformed ranking: empty entry", line=line) from None
                raise ProfileError(f"not a house id: {token!r}", line=line) from None
            if not 1 <= house <= m:
                raise ProfileError(f"house {house} out of range 1..{m}", line=line)
            if ranks[house - 1]:
                raise ProfileError(f"house {house} listed twice", line=line)
            # tied houses all take the rank of the group's first slot
            ranks[house - 1] = position
        position += len(tokens)
    if 0 in ranks:
        raise ProfileError(f"house {ranks.index(0) + 1} missing from ranking", line=line)
    return tuple(ranks)


_NEWLINE = re.compile(r"\r\n?|\n")
_HEADER = re.compile(r"[ \t]*([0-9]+)[ \t]+([0-9]+)[ \t]*\n")
# each byte's kind: a digit's value, then `>`, `=`, blank (space, tab or
# newline) and anything else
_GT, _EQ, _BLANK, _OTHER = 10, 11, 12, 13
_BYTE_KIND = bytearray([_OTHER]) * 256  # a `bytes.translate` table
_BYTE_KIND[ord("0") : ord("9") + 1] = range(10)
_BYTE_KIND[ord(">")] = _GT
_BYTE_KIND[ord("=")] = _EQ
_BYTE_KIND[ord(" ")] = _BYTE_KIND[ord("\t")] = _BYTE_KIND[ord("\n")] = _BLANK
_BLOCK_TOKENS = 1 << 12  # bounds the temporaries of one block of rows


def _parse_plain(text: str) -> PreferenceProfile | None:
    """The profile of a plain, valid file, or None to leave the file to the line parser."""
    header = _HEADER.match(text)
    if header is None or not text.isascii():
        return None
    n, m = int(header[1]), int(header[2])
    # every id takes a character: this bounds all that is allocated below
    if not 0 < n * m <= len(text):
        return None
    line_end = []
    start = header.end()
    for _ in range(n):
        end = text.find("\n", start)
        if end < 0:  # the last ranking may end the text without a newline
            if len(line_end) < n - 1:
                return None
            end = len(text)
        line_end.append(end)
        start = end + 1
    if text[start:].strip(" \t\n"):
        return None  # more than blank lines after the last ranking
    ranks = np.empty((n, m), np.int64)
    step = max(1, _BLOCK_TOKENS // m)
    for first in range(0, n, step):
        ends = line_end[first : first + step]
        lo = line_end[first - 1] + 1 if first else header.end()
        kind = np.frombuffer(text[lo : ends[-1]].encode("ascii").translate(_BYTE_KIND), np.uint8)
        if not _plain_rows(kind, np.array(ends[:-1], dtype=np.intp) - lo, ranks[first : first + step]):
            return None
    return PreferenceProfile(ranks)


def _plain_rows(kind: np.ndarray, breaks: np.ndarray, out: np.ndarray) -> bool:
    """Write into ``out`` the rank rows of ranking lines given by byte kind and split at ``breaks``.

    False if any line is off, leaving ``out`` partly written.
    """
    k, m = out.shape
    if not (kind < _OTHER).all():
        return False
    is_digit = kind < _GT
    is_sep = (kind < _BLANK) ^ is_digit
    if np.count_nonzero(is_sep) != k * (m - 1):
        return False
    first = is_digit.copy()
    first[1:] &= ~is_digit[:-1]
    # id starts and separators in text order: every line must read
    # id sep id ... sep id, so no two ids meet across bare whitespace
    items = np.flatnonzero(first | is_sep)
    if len(items) != k * (2 * m - 1):
        return False
    grid = items.reshape(k, 2 * m - 1)
    seps = grid[:, 1::2]
    if not is_sep[seps].all() or (grid[1:, 0] < breaks).any() or (grid[:-1, -1] > breaks).any():
        return False
    last = is_digit.copy()
    last[:-1] &= ~is_digit[1:]
    stops = np.flatnonzero(last)  # last digit of each id
    lead = stops - grid[:, 0::2].ravel()  # digits before the last
    places = len(str(m))
    if lead.max() >= places:
        return False  # leading zeros are left to the line parser
    ids = kind[stops].astype(np.intp)
    for place in range(1, places):
        digit = kind[stops - place].astype(np.intp)
        digit[lead < place] = 0
        ids += digit * 10**place
    if ids.min() < 1 or ids.max() > m:
        return False
    # a tie group ranks every member at the 1-based slot of its first member;
    # a group opens at each row start and after each `>` (the kind below `=`)
    slot = np.empty((k, m), np.intp)
    slot[:, 0] = 1
    np.multiply(kind[seps] < _EQ, np.arange(2, m + 1), out=slot[:, 1:])
    np.maximum.accumulate(slot, axis=1, out=slot)
    ranks = out.reshape(-1)  # a view: the block's rows are contiguous
    ranks[:] = 0
    ranks[ids.reshape(k, m) + np.arange(-1, k * m - 1, m)[:, None]] = slot
    # a repeated id leaves another house unranked
    return bool(ranks.all())


def format_profile(profile: PreferenceProfile) -> str:
    """Render a profile back into the instance file format."""
    lines = [f"{profile.n_agents} {profile.n_houses}"]
    for row in profile.ranks.tolist():
        order = sorted(range(profile.n_houses), key=row.__getitem__)  # stable: ties by id
        parts = [str(order[0] + 1)]
        for before, house in zip(order, order[1:]):
            parts.append(" = " if row[house] == row[before] else " > ")
            parts.append(str(house + 1))
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"
