"""Byte-for-byte regression corpus for the solver's wire format and `simulate`.

`golden_corpus.json` holds outputs recorded from a known-good build. Every
instance is regenerated here from `random.Random(seed)` (or, for the strict
samples, from `sample_strict_profile`'s own seed), so the fixture stores
only results. The `--dump-digraph` digests pin each pass's full maximum
matching, which the JSON trace does not carry. The large instances'
text-trace digests are held in this file, in `TEXT_TRACE_SHA256`. After a
deliberate output change, rewrite the fixture with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from conftest import random_strict_profile, random_tie_profile, solve_json
from efhouse import cli
from efhouse.prefs import format_profile
from efhouse.randmodel import sample_strict_profile

FIXTURE = Path(__file__).with_name("golden_corpus.json")

SMALL_SEEDS = range(300)
# (seed, n, ties); m = 2n
LARGE = [
    (1, 100, False),
    (2, 100, True),
    (3, 150, False),
    (4, 150, True),
    (5, 200, False),
    (6, 200, True),
]
# (n, m, seed) for sample_strict_profile, including m < n
STRICT_SAMPLES = [(1, 1, 0), (3, 7, 1), (8, 5, 2), (20, 20, 3), (50, 120, 4), (100, 200, 5)]
# SHA-256 of `solve --format text --trace` stdout for each LARGE seed
TEXT_TRACE_SHA256 = {
    1: "f318859e319c3bcfe0c09136707f5ceff9ad547619d66e53930ff5b73913957e",
    2: "3c03183e4914855766bed7b5beff04777691ebecb96c88d4497fadc662962c71",
    3: "2c4b56e2b8e0da4921279afae2d04de9531bfafbf557c30ea1e70e1b6634a55b",
    4: "1116171dda290a1eec44ec17913f44c6397102be286fec4e71f7d88e091cb1bb",
    5: "57606db357a481a0a09dd1e87738017605546df6592fba6646395fae3522b6be",
    6: "316bbca84641e6fa4b30da4df936e2879c59dacb909aa25fe32a1ec6f748c7b7",
}
SIMULATE = [
    ["simulate", "--n", "20", "--m", "20", "--trials", "200", "--seed", "0"],
    ["simulate", "--n", "10", "--sweep", "10:40:10", "--trials", "100"],
    ["simulate", "--n", "20", "--m", "3nlogn", "--trials", "200", "--seed", "0"],
    # seeds of two and three uint32 words
    ["simulate", "--n", "10", "--m", "20", "--trials", "200", "--seed", "4294967296"],
    ["simulate", "--n", "20", "--m", "3nlogn", "--trials", "200", "--seed", "18446744073709551619"],
    # inside the contested-tops screen's region (m - n < n // 2), with found trials
    ["simulate", "--n", "4", "--m", "5", "--trials", "200", "--seed", "0"],
    # m = 544 is about e * n, the existence threshold in the literature
    ["simulate", "--n", "200", "--m", "544", "--trials", "20", "--seed", "0"],
    ["simulate", "--n", "62", "--m", "3nlogn", "--trials", "40", "--seed", "0"],
    # one agent: the mechanism serves every trial
    ["simulate", "--n", "1", "--m", "4", "--trials", "30", "--seed", "5"],
    # from inside the screen's region to where the mechanism serves most trials
    ["simulate", "--n", "8", "--sweep", "8:64:8", "--trials", "100", "--seed", "3"],
    # a sweep across 512 houses near e * n
    ["simulate", "--n", "190", "--sweep", "496:528:16", "--trials", "20", "--seed", "2"],
]


def small_instance(seed: int):
    n = 1 + seed % 8
    m = n + (seed // 8) % 7
    return random_tie_profile(random.Random(seed), n, m)


def large_instance(seed: int, n: int, ties: bool):
    make = random_tie_profile if ties else random_strict_profile
    return make(random.Random(seed), n, 2 * n)


def large_digest(seed: int, n: int, ties: bool) -> str:
    return hashlib.sha256(solve_json(large_instance(seed, n, ties)).encode()).hexdigest()


def large_solve_output(seed: int, n: int, ties: bool, *flags: str) -> tuple[str, str]:
    """The stdout and stderr of `solve` with ``flags`` on one large instance."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        path.write_text(format_profile(large_instance(seed, n, ties)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["solve", *flags, str(path)]) in (0, 1)
    return out.getvalue(), err.getvalue()


def digraph_digest(seed: int, n: int, ties: bool) -> str:
    """SHA-256 of the `solve --dump-digraph` stderr for one large instance."""
    _, err = large_solve_output(seed, n, ties, "--dump-digraph")
    return hashlib.sha256(err.encode()).hexdigest()


def text_trace_digest(seed: int, n: int, ties: bool) -> str:
    """SHA-256 of the `solve --format text --trace` stdout for one large instance."""
    out, _ = large_solve_output(seed, n, ties, "--format", "text", "--trace")
    return hashlib.sha256(out.encode()).hexdigest()


def strict_sample_digest(n: int, m: int, seed: int) -> str:
    ranks = sample_strict_profile(n, m, seed).ranks
    return hashlib.sha256(json.dumps(ranks.tolist()).encode()).hexdigest()


def simulate_csv(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def build_corpus() -> dict:
    return {
        "small": {str(seed): solve_json(small_instance(seed)) for seed in SMALL_SEEDS},
        "large_sha256": {str(seed): large_digest(seed, n, ties) for seed, n, ties in LARGE},
        "digraph_sha256": {str(seed): digraph_digest(seed, n, ties) for seed, n, ties in LARGE},
        "strict_sample_sha256": {
            f"{n} {m} {seed}": strict_sample_digest(n, m, seed) for n, m, seed in STRICT_SAMPLES
        },
        "simulate": {" ".join(argv): simulate_csv(argv) for argv in SIMULATE},
    }


@pytest.fixture(scope="module")
def corpus():
    return json.loads(FIXTURE.read_text())


def test_small_instances_reproduce_byte_for_byte(corpus):
    assert len(corpus["small"]) == len(SMALL_SEEDS)
    for seed in SMALL_SEEDS:
        assert solve_json(small_instance(seed)) == corpus["small"][str(seed)], f"seed {seed}"


@pytest.mark.parametrize("seed, n, ties", LARGE)
def test_large_instances_reproduce_byte_for_byte(corpus, seed, n, ties):
    assert large_digest(seed, n, ties) == corpus["large_sha256"][str(seed)]


@pytest.mark.parametrize("seed, n, ties", LARGE)
def test_large_digraph_dumps_reproduce_byte_for_byte(corpus, seed, n, ties):
    assert digraph_digest(seed, n, ties) == corpus["digraph_sha256"][str(seed)]


@pytest.mark.parametrize("seed, n, ties", LARGE)
def test_large_text_traces_reproduce_byte_for_byte(seed, n, ties):
    assert text_trace_digest(seed, n, ties) == TEXT_TRACE_SHA256[seed]


@pytest.mark.parametrize("n, m, seed", STRICT_SAMPLES)
def test_strict_samples_reproduce(corpus, n, m, seed):
    assert strict_sample_digest(n, m, seed) == corpus["strict_sample_sha256"][f"{n} {m} {seed}"]


@pytest.mark.parametrize("argv", SIMULATE, ids=lambda argv: " ".join(argv))
def test_simulate_csv_reproduces_byte_for_byte(corpus, argv):
    assert simulate_csv(argv) == corpus["simulate"][" ".join(argv)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build_corpus(), indent=1, sort_keys=True) + "\n")
