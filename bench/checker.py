"""Output checks that share no code with efhouse.

`check_solve` audits a `solve --trace` JSON result against the rank matrix
the instance was generated from: it recomputes every iteration's favorites,
certifies each violator as deficient, and checks the envy condition of a
returned assignment. `SimulateReference` recomputes `simulate` counts from
the documented per-(seed, trial) PCG64 streams with the strict
contested-top rule and the 1 - 1/n threshold rule.
"""

from __future__ import annotations

import json

import numpy as np

SIMULATE_HEADER = "n,m,trials,successes,mechanism_successes,success_fraction,seed"


def check_solve(ranks: np.ndarray, code: int, stdout: str) -> str | None:
    """Return why the output is wrong, or None when it is a valid certificate."""
    n, m = ranks.shape
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return "expected exactly one output line"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if list(doc) != ["status", "assignment", "trace"]:
        return f"unexpected keys {list(doc)}"
    trace = doc["trace"]
    if not isinstance(trace, list) or not trace:
        return "missing trace"
    available = np.ones(m, dtype=bool)
    sentinel = ranks.max() + 1
    favorites = None
    for index, step in enumerate(trace):
        last = index == len(trace) - 1
        if step["houses"] != (np.flatnonzero(available) + 1).tolist():
            return f"iteration {index + 1}: house set does not chain"
        if available.sum() < n:
            return f"iteration {index + 1}: runs with fewer houses than agents"
        masked = np.where(available, ranks, sentinel)
        favorites = masked == masked.min(axis=1, keepdims=True)
        if step["saturating"]:
            if not last or step["violator"] is not None or step["removed"]:
                return f"iteration {index + 1}: saturating step must be final and prune nothing"
            continue
        violator = step["violator"]
        agents = violator["agents"] if violator else None
        if not agents or agents != sorted(set(agents)) or not 1 <= agents[0] <= agents[-1] <= n:
            return f"iteration {index + 1}: malformed violator"
        joint = np.flatnonzero(favorites[np.array(agents) - 1].any(axis=0)) + 1
        if len(agents) <= len(joint):
            return f"iteration {index + 1}: violator is not deficient"
        if violator["houses"] != joint.tolist() or step["removed"] != joint.tolist():
            return f"iteration {index + 1}: removed houses differ from the violator's neighborhood"
        available[joint - 1] = False

    if doc["status"] == "none":
        if trace[-1]["saturating"] or available.sum() >= n:
            return "nonexistence claimed while at least n houses remain"
        if doc["assignment"] is not None or code != 1:
            return f"nonexistence must print no assignment and exit 1, exit was {code}"
        return None
    if doc["status"] != "found" or code != 0 or not trace[-1]["saturating"]:
        return f"status {doc['status']!r} with exit code {code}"
    assignment = doc["assignment"]
    if list(assignment) != [str(a) for a in range(1, n + 1)]:
        return "assignment must list agents 1..n in order"
    houses = np.array(list(assignment.values())) - 1
    if len(set(houses.tolist())) != n or houses.min() < 0 or houses.max() >= m:
        return "assignment is not an injective map into the houses"
    if not favorites[np.arange(n), houses].all():
        return "an agent is not holding a favorite of the final house set"
    for agent in range(n):
        own = ranks[agent, houses[agent]]
        for house in houses:
            if ranks[agent, house] < own:
                return f"agent {agent + 1} envies the holder of house {house + 1}"
    return None


def contested_tops_found(utilities: np.ndarray) -> bool:
    """Strict-preference decision: drop every house that is the top of two or
    more agents until all tops differ (found) or fewer than n houses remain."""
    n, m = utilities.shape
    order = np.argsort(-utilities, axis=1, kind="stable")
    removed = np.zeros(m, dtype=bool)
    pointer = np.zeros(n, dtype=np.int64)
    agents = np.arange(n)
    remaining = m
    while True:
        tops = order[agents, pointer]
        stale = removed[tops]
        while stale.any():
            pointer[stale] += 1
            tops = order[agents, pointer]
            stale = removed[tops]
        contested = np.flatnonzero(np.bincount(tops, minlength=m) >= 2)
        if contested.size == 0:
            return True
        removed[contested] = True
        remaining -= contested.size
        if remaining < n:
            return False


def threshold_completes(utilities: np.ndarray) -> bool:
    """The 1 - 1/n mechanism serves everyone exactly when every agent values
    some house at or above the cutoff that every other agent values below it."""
    n = utilities.shape[0]
    if n == 1:
        return True
    above = utilities >= 1.0 - 1.0 / n
    claimable = above[:, above.sum(axis=0) == 1]
    return bool(claimable.any(axis=1).all())


class SimulateReference:
    """Expected `simulate` counts, computed once per (n, m, trials, seed)."""

    def __init__(self):
        self._cache: dict[tuple[int, int, int, int], tuple[int, int]] = {}

    def counts(self, n: int, m: int, trials: int, seed: int) -> tuple[int, int]:
        key = (n, m, trials, seed)
        if key not in self._cache:
            successes = mechanism = 0
            for trial in range(trials):
                bits = np.random.PCG64(np.random.SeedSequence([seed, trial]))
                utilities = np.random.Generator(bits).random((n, m))
                successes += contested_tops_found(utilities)
                mechanism += threshold_completes(utilities)
            self._cache[key] = (successes, mechanism)
        return self._cache[key]

    def check(self, n: int, m: int, trials: int, seed: int, code: int, stdout: str) -> str | None:
        """Return why the CSV is wrong, or None when it matches the reference."""
        if code != 0:
            return f"simulate exited {code}"
        lines = stdout.split("\n")
        if len(lines) != 3 or lines[0] != SIMULATE_HEADER or lines[2] != "":
            return "expected a header, one row and a final newline"
        successes, mechanism = self.counts(n, m, trials, seed)
        if mechanism > successes:
            return "reference mechanism successes exceed solver successes"
        expected = f"{n},{m},{trials},{successes},{mechanism},{successes / trials:.6f},{seed}"
        if lines[1] != expected:
            return f"row {lines[1]!r}, expected {expected!r}"
        return None
