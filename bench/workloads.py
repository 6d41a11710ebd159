"""Benchmark workloads and the seeded instance generators they use.

Each workload is one kind of `efhouse` command line. Simulate workloads
vary only the `--seed` flag between operations; solve workloads write a
fresh instance file per operation in the documented format (header `n m`,
then one ranking per agent with `>` and `=` separators), produced here by
the benchmark's own formatter so the program sees nothing but that file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "simulate" or "solve"
    params: dict
    smoke: dict
    # self-time metric predicted to lead the traced run, if one is predicted
    predicted_leaders: tuple[str, ...] = field(default=())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-eq",
            "simulate n = m = 20, the paper's m = n point: one solve iteration per trial, "
            "so RNG, ranking and the mechanism dominate; shows randmodel gains, bypasses the solve loop",
            "simulate",
            {"n": 20, "m": "20", "trials": 200},
            {"n": 4, "m": "4", "trials": 20},
            ("randmodel.rank_s", "randmodel.rng_s"),
        ),
        Workload(
            "sim-log",
            "simulate n = 20, m = ceil(3 n ln n) = 180: success is near certain after "
            "several pruning iterations, so the found path and the solve loop show beside ranking",
            "simulate",
            {"n": 20, "m": "3nlogn", "trials": 50},
            {"n": 4, "m": "3nlogn", "trials": 10},
        ),
        Workload(
            "solve-none",
            "solve uniform strict profiles, n = 100, m = 200: no envy-free assignment, "
            "101 iterations that rescan every house, and an O(m^2) certificate",
            "solve",
            {"n": 100, "m": 200, "tier": 1},
            {"n": 6, "m": 12, "tier": 1},
            ("prefs.top_choices_s",),
        ),
        Workload(
            "solve-tiers",
            "solve popularity-correlated rankings in tie tiers of 50, n = 200, m = 400: "
            "wide favorites rows and large violators; the one workload where matching leads",
            "solve",
            {"n": 200, "m": 400, "tier": 50},
            {"n": 8, "m": 16, "tier": 4},
            ("bigraph.match_s",),
        ),
    )
}


def house_count(n: int, m_spec: str) -> int:
    """Resolve a simulate `--m` value the way the documentation defines it."""
    if m_spec == "3nlogn":
        return math.ceil(3 * n * math.log(n))
    return int(m_spec)


def operation_seed(workload_seed: int, index: int) -> int:
    """Seed of operation `index` of a run; index -1 is the warm-up."""
    return workload_seed * 1_000_003 + index + 1


def tiered_ranks(n: int, m: int, tier: int, rng: np.random.Generator) -> np.ndarray:
    """Tie-tier index of every house for every agent (lower is better).

    With `tier == 1` the rankings are independent uniform strict orders.
    Otherwise agent utility is 0.95 * popularity + 0.05 * noise, with one
    popularity vector per instance, and each ranking is cut into groups of
    `tier` consecutive houses that the agent ranks as ties.
    """
    if tier == 1:
        orders = np.stack([rng.permutation(m) for _ in range(n)])
    else:
        popularity = rng.random(m)
        utility = 0.95 * popularity + 0.05 * rng.random((n, m))
        orders = np.argsort(-utility, axis=1, kind="stable")
    ranks = np.empty((n, m), dtype=np.int64)
    np.put_along_axis(ranks, orders, np.arange(m) // tier, axis=1)
    return ranks


def format_instance(ranks: np.ndarray) -> str:
    """Instance file text for a tie-tier rank matrix."""
    n, m = ranks.shape
    lines = [f"{n} {m}"]
    for row in ranks:
        order = np.argsort(row, kind="stable")
        groups: list[list[str]] = []
        previous = None
        for house in order:
            if row[house] != previous:
                groups.append([])
                previous = row[house]
            groups[-1].append(str(house + 1))
        lines.append(" > ".join(" = ".join(g) for g in groups))
    return "\n".join(lines) + "\n"


def write_instance(directory: Path, params: dict, seed: int) -> tuple[Path, np.ndarray]:
    """Generate the instance for one solve operation and write it to a file."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    ranks = tiered_ranks(params["n"], params["m"], params["tier"], rng)
    path = directory / f"instance-{seed}.txt"
    path.write_text(format_instance(ranks), encoding="utf-8")
    return path, ranks
