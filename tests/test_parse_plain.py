"""The numpy reader of plain instance files against the line parser.

`parse_profile` reads plain ASCII files in a few numpy passes and hands
everything else, and every file it cannot accept, to `_parse_lines`. These
tests pin that the two always agree, and that plain files at benchmark sizes
never fall back.
"""

from __future__ import annotations

import gc
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_strict_profile, random_tie_profile, tiered_profile
from efhouse import prefs
from efhouse.prefs import PreferenceProfile, ProfileError, _parse_lines, format_profile, parse_profile

FUZZ_SEED = 20190502
FUZZ_CASES = 3000

NOISE = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0", "\xe9", "\u0663", "\uff13",
         "+", "-", "_", "0", "x", ",", "."]
BLANK_LINES = ["\n", "\n\n", "\n \t\n", " \n"]
SPACES = [" ", "\t", "  ", " \t"]


def _ids(text: str) -> list[re.Match]:
    return list(re.finditer(r"[0-9]+", text))


def _drop_token(rng: random.Random, text: str) -> str:
    ids = _ids(text)
    token = rng.choice(ids)
    return text[: token.start()] + text[token.end() :]


def _duplicate_token(rng: random.Random, text: str) -> str:
    ids = _ids(text)
    source, target = rng.choice(ids), rng.choice(ids)
    return text[: target.start()] + source[0] + text[target.end() :]


def _swap_tokens(rng: random.Random, text: str) -> str:
    ids = _ids(text)
    if len(ids) < 2:
        return text
    a, b = sorted(rng.sample(ids, 2), key=lambda token: token.start())
    return text[: a.start()] + b[0] + text[a.end() : b.start()] + a[0] + text[b.end() :]


def _insert(rng: random.Random, text: str, piece: str) -> str:
    at = rng.randrange(len(text) + 1)
    return text[:at] + piece + text[at:]


def _insert_separator(rng: random.Random, text: str) -> str:
    return _insert(rng, text, rng.choice(">="))


def _remove_separator(rng: random.Random, text: str) -> str:
    seps = [i for i, c in enumerate(text) if c in ">="]
    if not seps:
        return text
    at = rng.choice(seps)
    return text[:at] + text[at + 1 :]


def _insert_space(rng: random.Random, text: str) -> str:
    return _insert(rng, text, rng.choice(SPACES))  # also lands inside ids


def _insert_noise(rng: random.Random, text: str) -> str:
    return _insert(rng, text, rng.choice(NOISE))


def _insert_blank_line(rng: random.Random, text: str) -> str:
    breaks = [i for i, c in enumerate(text) if c == "\n"] + [len(text)]
    at = rng.choice(breaks)
    return text[:at] + rng.choice(BLANK_LINES) + text[at:]


def _crlf(rng: random.Random, text: str) -> str:
    return text.replace("\n", "\r\n")


def _retarget_header(rng: random.Random, text: str) -> str:
    header = re.match(r"([0-9]+) ([0-9]+)\n", text)
    if header is None:
        return text
    n, m = int(header[1]), int(header[2])
    if rng.random() < 0.5:
        n = max(0, n + rng.choice((-1, 1)))
    else:
        m = max(0, m + rng.choice((-1, 1)))
    return f"{n} {m}\n" + text[header.end() :]


MUTATIONS = [
    _drop_token, _duplicate_token, _swap_tokens, _insert_separator, _remove_separator,
    _insert_space, _insert_noise, _insert_blank_line, _crlf, _retarget_header,
]


def _respace(rng: random.Random, text: str) -> str:
    """Vary the whitespace around every separator and at the ends of lines."""
    def pad() -> str:
        return rng.choice(["", " ", "\t", "  ", " \t "])

    text = re.sub(r" ?([>=]) ?", lambda sep: pad() + sep[1] + pad(), text)
    return "\n".join(pad() + line + pad() for line in text.split("\n"))


def fuzz_text(rng: random.Random) -> str:
    """A formatted strict or tie profile, then zero to three random mutations."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 14) if rng.random() < 0.85 else rng.randint(90, 110)  # some three-digit ids
    if rng.random() < 0.5:
        profile = random_strict_profile(rng, n, m)
    else:
        profile = random_tie_profile(rng, n, m)
    text = format_profile(profile)
    if rng.random() < 0.3:
        text = _respace(rng, text)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        text = rng.choice(MUTATIONS)(rng, text)
    return text


def outcome(parse, text: str):
    """The profile, or the error's message and line number."""
    try:
        return parse(text)
    except ProfileError as exc:
        return str(exc), exc.line


def mismatches(seed: int, cases: int) -> tuple[list[str], int]:
    """Texts on which `parse_profile` and `_parse_lines` differ, and the count read plainly."""
    rng = random.Random(seed)
    differ, plain = [], 0
    for _ in range(cases):
        text = fuzz_text(rng)
        if outcome(parse_profile, text) != outcome(_parse_lines, text):
            differ.append(text)
        plain += prefs._parse_plain(text) is not None
    return differ, plain


@pytest.mark.parametrize("block_tokens", [prefs._BLOCK_TOKENS, 1 << 11, 4])
def test_fuzzed_files_parse_as_the_line_parser_parses_them(block_tokens, monkeypatch):
    # the default block, the smaller block it replaced, and a tiny block that
    # reads every row, or every few rows, in a block of its own
    monkeypatch.setattr(prefs, "_BLOCK_TOKENS", block_tokens)
    differ, plain = mismatches(FUZZ_SEED + block_tokens, FUZZ_CASES // 2)
    assert differ == []
    # both paths are exercised: valid plain files, and everything else
    assert FUZZ_CASES // 10 < plain < FUZZ_CASES * 2 // 5


BENCH_SIZES = [(100, 200, 1), (200, 400, 50), (200, 3179, 1)]


@pytest.fixture
def no_fallback(monkeypatch):
    def refuse(text):
        raise AssertionError("plain file fell back to the line parser")

    monkeypatch.setattr(prefs, "_parse_lines", refuse)


@pytest.mark.parametrize("n, m, tier", BENCH_SIZES, ids=[f"{n}x{m}/{t}" for n, m, t in BENCH_SIZES])
def test_bench_sized_files_round_trip_without_fallback(n, m, tier, no_fallback):
    profile = tiered_profile(n, m, tier, seed=n + m)
    assert parse_profile(format_profile(profile)) == profile


@pytest.mark.parametrize(
    "rows_per_block, tied_blocks",
    [(6, [False, False, True, True]), (9, [False, True, True])],
    ids=["one-kind-blocks", "mixed-block"],
)
def test_strict_and_tied_rows_parse_in_one_file(rows_per_block, tied_blocks, no_fallback, monkeypatch):
    # 12 strict rows, then 12 rows with ties: 6-row blocks each hold one kind,
    # and the middle 9-row block holds both, so strict rows take tie slots too
    m = 10
    strict = random_strict_profile(random.Random(12), 12, m)
    tied = tiered_profile(12, m, 3, seed=12)
    profile = PreferenceProfile(np.vstack([strict.ranks, tied.ranks]))
    text = format_profile(profile)
    seen = []
    plain_rows = prefs._plain_rows

    def recorded(block, breaks, out):
        seen.append(prefs._TIE in block)
        return plain_rows(block, breaks, out)

    monkeypatch.setattr(prefs, "_plain_rows", recorded)
    monkeypatch.setattr(prefs, "_BLOCK_TOKENS", rows_per_block * m)
    assert parse_profile(text) == _parse_lines(text) == profile
    assert seen == tied_blocks


def retained_bytes(parse, text: str) -> int:
    """Memory that dropping the returned profile frees, as tracemalloc counts it.

    Caches the parse leaves behind (numpy keeps a few small buffers) stay
    allocated on both sides of the difference, so they do not count.
    """
    gc.collect()
    gc.disable()  # a collection in between would free unrelated objects
    tracemalloc.start()
    try:
        profile = parse(text)
        with_profile = tracemalloc.get_traced_memory()[0]
        del profile
        return with_profile - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("n, m, tier", [(100, 200, 1), (200, 400, 50), (40, 600, 1)])
def test_plain_profile_keeps_no_more_memory_than_the_line_parser(n, m, tier):
    text = format_profile(tiered_profile(n, m, tier, seed=7))
    parse_profile(text)  # first calls may fill caches; they are not the profile
    _parse_lines(text)
    # the slack covers tracemalloc's own records, which drift by a few bytes per call
    assert retained_bytes(parse_profile, text) <= retained_bytes(_parse_lines, text) + 64
