"""Brute-force ground truth for small instances.

Everything here enumerates exhaustively and is meant for testing and
certification only. Size guards raise instead of sampling: an oracle that
silently truncates is not an oracle.
"""

from __future__ import annotations

import itertools
import math

from .bigraph import BipartiteGraph, HallViolator, neighborhood
from .prefs import PreferenceProfile
from .solver import Assignment, envy_free_houses, require_enough_houses, verify_envy_free

ENUMERATION_LIMIT = 10_000_000
HALL_SCAN_MAX_LEFT = 12


class InstanceTooLargeError(ValueError):
    """Instance exceeds the exhaustive-enumeration guard."""


def enumerate_ef_assignments(profile: PreferenceProfile) -> list[Assignment]:
    """All envy-free assignments, in lexicographic order of the house tuple.

    Walks every injective agent-to-house map, so the number of candidates
    m!/(m-n)! must stay within ENUMERATION_LIMIT.
    """
    n, m = profile.n_agents, profile.n_houses
    require_enough_houses(n, m)
    if math.perm(m, n) > ENUMERATION_LIMIT:
        raise InstanceTooLargeError(
            f"{math.perm(m, n)} candidate assignments exceed the guard of {ENUMERATION_LIMIT}"
        )
    ranks = profile.ranks.tolist()
    found = []
    for houses in itertools.permutations(range(1, m + 1), n):
        if envy_free_houses(ranks, houses):
            found.append(Assignment(houses))
    return found


def is_pareto_among_ef(profile: PreferenceProfile, candidate: Assignment) -> bool:
    """True when no other envy-free assignment dominates the candidate.

    Dominating means some agent ends up at a strictly lower rank and nobody
    ends up at a higher one; equal ranks (ties) count as not worse. The
    candidate must itself be envy-free.
    """
    if not verify_envy_free(profile, candidate):
        raise ValueError("candidate assignment is not envy-free")
    return undominated(profile, candidate, enumerate_ef_assignments(profile))


def undominated(
    profile: PreferenceProfile, candidate: Assignment, assignments: list[Assignment]
) -> bool:
    """True when no assignment in ``assignments`` dominates the candidate.

    Dominating is as in `is_pareto_among_ef`, which passes every envy-free
    assignment; a caller already holding that list passes it directly.
    """
    ranks = profile.ranks.tolist()
    held = [row[h - 1] for row, h in zip(ranks, candidate.houses)]
    for other in assignments:
        offered = [row[h - 1] for row, h in zip(ranks, other.houses)]
        if offered != held and all(a <= b for a, b in zip(offered, held)):
            return False
    return True


def brute_force_hall_check(graph: BipartiteGraph) -> list[HallViolator]:
    """Every inclusion-minimal left subset with fewer neighbors than members.

    Scans all 2^n_left subsets in increasing size order (guarded at
    HALL_SCAN_MAX_LEFT); a saturating-matchable graph yields an empty list.
    """
    if graph.n_left > HALL_SCAN_MAX_LEFT:
        raise InstanceTooLargeError(
            f"{graph.n_left} left vertices exceed the subset-scan guard of {HALL_SCAN_MAX_LEFT}"
        )
    minimal: list[HallViolator] = []
    vertices = range(1, graph.n_left + 1)
    for size in range(1, graph.n_left + 1):
        for subset in itertools.combinations(vertices, size):
            chosen = frozenset(subset)
            if any(v.vertices < chosen for v in minimal):
                continue
            neighbors = neighborhood(graph, chosen)
            if len(chosen) > len(neighbors):
                minimal.append(HallViolator(chosen, frozenset(neighbors)))
    return minimal
