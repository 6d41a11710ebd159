"""Byte-for-byte regression corpus for the solver's wire format and `simulate`.

`golden_corpus.json` holds outputs recorded from a known-good build. Every
instance is regenerated here from `random.Random(seed)` (or, for the strict
samples, from `sample_strict_profile`'s own seed), so the fixture stores
only results. The `--dump-digraph` digests pin each pass's full maximum
matching, which the JSON trace does not carry. After a deliberate output
change, rewrite the fixture with `PYTHONPATH=src python tests/test_golden.py`
and review the diff.
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

from conftest import random_strict_profile, random_tie_profile
from efhouse import cli
from efhouse.prefs import format_profile
from efhouse.randmodel import sample_strict_profile
from efhouse.solver import envy_free_assignment, result_json

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
SIMULATE = [
    ["simulate", "--n", "20", "--m", "20", "--trials", "200", "--seed", "0"],
    ["simulate", "--n", "10", "--sweep", "10:40:10", "--trials", "100"],
    ["simulate", "--n", "20", "--m", "3nlogn", "--trials", "200", "--seed", "0"],
]


def small_instance(seed: int):
    n = 1 + seed % 8
    m = n + (seed // 8) % 7
    return random_tie_profile(random.Random(seed), n, m)


def large_instance(seed: int, n: int, ties: bool):
    make = random_tie_profile if ties else random_strict_profile
    return make(random.Random(seed), n, 2 * n)


def solve_json(profile) -> str:
    _, trace = envy_free_assignment(profile)
    return json.dumps(result_json(trace, include_trace=True))


def large_digest(seed: int, n: int, ties: bool) -> str:
    return hashlib.sha256(solve_json(large_instance(seed, n, ties)).encode()).hexdigest()


def digraph_digest(seed: int, n: int, ties: bool) -> str:
    """SHA-256 of the `solve --dump-digraph` stderr for one large instance."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        path.write_text(format_profile(large_instance(seed, n, ties)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["solve", "--dump-digraph", str(path)]) in (0, 1)
    return hashlib.sha256(err.getvalue().encode()).hexdigest()


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


@pytest.mark.parametrize("n, m, seed", STRICT_SAMPLES)
def test_strict_samples_reproduce(corpus, n, m, seed):
    assert strict_sample_digest(n, m, seed) == corpus["strict_sample_sha256"][f"{n} {m} {seed}"]


@pytest.mark.parametrize("argv", SIMULATE, ids=lambda argv: " ".join(argv))
def test_simulate_csv_reproduces_byte_for_byte(corpus, argv):
    assert simulate_csv(argv) == corpus["simulate"][" ".join(argv)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build_corpus(), indent=1, sort_keys=True) + "\n")
