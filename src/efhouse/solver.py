"""Envy-free assignment solver.

The solve loop repeatedly matches agents to their favorite houses among the
ones still on offer. When that favorites graph has no agent-saturating
matching, a minimal deficient agent set pinpoints houses that cannot appear
in any envy-free assignment; those are discarded and the loop retries on the
smaller house set. The loop ends with either a saturating matching (an
envy-free assignment, since everyone holds a favorite among the assigned
houses) or fewer houses than agents (a proof of nonexistence).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, NamedTuple

import numpy as np

from .bigraph import HallViolator, _violator_or_matching
from .prefs import WORST_RANK, PreferenceProfile


class InvalidInstanceError(ValueError):
    """Instance cannot admit any total injective assignment (fewer houses than agents)."""


def require_enough_houses(n: int, m: int) -> None:
    """Raise InvalidInstanceError unless ``m`` houses can serve ``n`` agents."""
    if m < n:
        raise InvalidInstanceError(f"{n} agents need at least {n} houses, instance has {m}")


@dataclass(frozen=True)
class Assignment:
    """Total injective map from agents to houses; ``houses[i]`` serves agent ``i + 1``."""

    houses: tuple[int, ...]

    def __post_init__(self):
        if not self.houses:
            raise ValueError("assignment must cover at least one agent")
        if min(self.houses) < 1:
            raise ValueError("house ids are 1-based")
        if len(set(self.houses)) != len(self.houses):
            raise ValueError("a house is assigned to two agents")

    def mapping(self) -> dict[int, int]:
        """Agent -> house dict view (both 1-based), keyed in ascending agent order."""
        return {agent + 1: house for agent, house in enumerate(self.houses)}


class IterationRecord(NamedTuple):
    """One pass of the solve loop, as `SolveTrace.passes` yields it.

    ``available`` is the house set on offer when the pass started, as an
    ascending list the caller owns. ``violator`` is what
    `violator_or_matching` found in the pass's favorites graph, whose
    neighborhood the pass removed, or None on the final, saturating pass.
    """

    available: list[int]
    violator: HallViolator | None


@dataclass(frozen=True)
class SolveTrace:
    """The solve loop's removals plus the outcome (None = proven nonexistence).

    ``violators`` holds, in order, the violator of each pass that removed
    its neighborhood; a found trace ends with one more, saturating pass.
    `passes` derives each pass's houses from ``n_houses`` and the removals.
    """

    n_houses: int
    violators: tuple[HallViolator, ...]
    assignment: Assignment | None

    def passes(self) -> Iterator[IterationRecord]:
        """Each pass as an `IterationRecord`, its houses in a fresh list.

        The caller owns each list: changing one leaves the passes after it
        as they were.
        """
        houses = list(range(1, self.n_houses + 1))
        for violator in self.violators:
            yield IterationRecord(houses.copy(), violator)
            for house in violator.neighborhood:
                at = bisect_left(houses, house)
                # a solve removes only houses on offer; a trace built by hand
                # may list others, which are skipped
                if houses[at : at + 1] == [house]:
                    del houses[at]
        if self.assignment is not None:
            yield IterationRecord(houses, None)

    @property
    def iterations(self) -> tuple[IterationRecord, ...]:
        """Every pass, held: the records `passes` yields."""
        return tuple(self.passes())


def envy_free_assignment(
    profile: PreferenceProfile,
) -> tuple[Assignment | None, SolveTrace]:
    """Compute an envy-free assignment, or prove that none exists.

    Returns the assignment (or None) together with the trace of removals.
    The trace doubles as a human-auditable certificate on the None side:
    every removed house is provably unusable by any envy-free assignment.
    Deterministic: ties and choices are always broken toward lower ids.

    Raises InvalidInstanceError when the profile has fewer houses than
    agents.
    """
    violators: list[HallViolator] = []
    assignment: Assignment | None = None
    for _, found in solve_passes(profile):
        if isinstance(found, HallViolator):
            violators.append(found)
        else:
            # a saturating matching maps every agent to a house
            assignment = Assignment(tuple(found[agent] for agent in range(1, profile.n_agents + 1)))
    return assignment, SolveTrace(profile.n_houses, tuple(violators), assignment)


def solve_passes(
    profile: PreferenceProfile,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], HallViolator | dict[int, int]]]:
    """Each pass of the solve loop: its favorites rows and its search result.

    Row ``i`` lists, ascending, the houses on offer that agent ``i + 1``
    ranks best: the adjacency of the pass's favorites graph. The result is
    that graph's `violator_or_matching`. Raises InvalidInstanceError, on the
    first pass, when the profile has fewer houses than agents.
    """
    n, m = profile.n_agents, profile.n_houses
    require_enough_houses(n, m)
    id_block = _house_ids(m, max(1, _BLOCK_CELLS // m))
    # removed houses are masked with a rank worse than any real one, so the
    # minimum of a row is the best rank still on offer
    masked = profile.ranks.copy()
    best = np.empty(n, np.int64)  # each row's minimum as of its last scan
    rows: list[tuple[int, ...]] = [()] * n
    stale = np.arange(n)
    left = m  # houses still on offer
    while True:
        _favorites(masked, stale, id_block, best, rows)
        adj = tuple(rows)
        found = _violator_or_matching(adj)
        yield adj, found
        if not isinstance(found, HallViolator):
            return
        removed = found.neighborhood
        left -= len(removed)
        if left < n:
            return
        columns = np.fromiter(removed, np.intp, len(removed)) - 1
        # a row that lost no favorite keeps its best rank, hence its members
        stale = np.flatnonzero((masked[:, columns] == best[:, None]).any(axis=1))
        masked[:, columns] = WORST_RANK


_BLOCK_CELLS = 1 << 13  # bounds the copy of one block of stale rows


# a sweep changes m once per row, so the last pool is the one asked for again
@lru_cache(maxsize=1)
def _house_ids(m: int, rows: int) -> np.ndarray:
    """House ids 1..m as ``rows`` read-only rows of one object pool.

    Every row of the block is a view of the one pool row. It is kept for
    speed: a boolean mask and one ``tolist`` of existing ints beat
    ``np.nonzero`` and a fresh int per id in `_favorites`.
    """
    pool = np.array(range(1, m + 1), dtype=object)
    pool.flags.writeable = False
    return np.broadcast_to(pool, (rows, m))


def _favorites(
    masked: np.ndarray,
    stale: np.ndarray,
    id_block: np.ndarray,
    best: np.ndarray,
    rows: list[tuple[int, ...]],
) -> None:
    """Set ``rows[i]`` and ``best[i]`` for every row ``i`` in ``stale`` from its masked ranks.

    ``rows[i]`` holds the house ids, in order, at the positions of the
    minimum of ``masked[i]``, and ``best[i]`` that minimum. Each row of
    ``id_block`` lists the house ids; the stale rows are scanned as many at
    a time as it has rows.
    """
    step = len(id_block)
    for first in range(0, len(stale), step):
        agents = stale[first : first + step]
        block = masked[agents]
        low = block.min(axis=1, keepdims=True)
        best[agents] = low[:, 0]
        hits = block == low
        houses = id_block[: len(agents)][hits].tolist()  # row by row, each in id order
        if len(houses) == len(agents):
            # every row attains its minimum, so as many hits as rows means
            # one favorite per row: no row counts are needed
            for agent, house in zip(agents.tolist(), houses):
                rows[agent] = (house,)
            continue
        end = 0
        for agent, count in zip(agents.tolist(), hits.sum(axis=1).tolist()):
            rows[agent] = tuple(houses[end : end + count])
            end += count


def verify_envy_free(profile: PreferenceProfile, assignment: Assignment) -> bool:
    """True when no agent strictly prefers another agent's house to her own."""
    if len(assignment.houses) != profile.n_agents:
        raise ValueError(
            f"assignment covers {len(assignment.houses)} agents, profile has {profile.n_agents}"
        )
    if not all(type(h) is int or isinstance(h, np.integer) for h in assignment.houses):
        raise ValueError(f"house ids must be integers, got {assignment.houses}")
    if any(h > profile.n_houses for h in assignment.houses):
        raise ValueError("assignment uses a house outside the profile")
    return envy_free_houses(profile.ranks.tolist(), assignment.houses)


def envy_free_houses(ranks: list[list[int]], houses: tuple[int, ...]) -> bool:
    """The envy check behind `verify_envy_free`, on raw rank rows.

    ``houses[i]`` is agent ``i + 1``'s house. Nothing is validated, so
    enumerations that test many candidates pay only for the check itself.
    """
    for i, own_house in enumerate(houses):
        row = ranks[i]
        own = row[own_house - 1]
        for house in houses:
            if row[house - 1] < own:
                return False
    return True


def result_json(trace: SolveTrace, include_trace: bool = True) -> dict[str, Any]:
    """JSON-ready dict in the documented wire format.

    ``{"status": "found"|"none", "assignment": {agent: house, ...} | null,
    "trace": [...] | null}`` with agents as string keys and the trace listing
    each iteration's house set, saturation flag, violator, and removals.
    """
    found = trace.assignment is not None
    return {
        "status": "found" if found else "none",
        "assignment": {str(a): h for a, h in trace.assignment.mapping().items()} if found else None,
        "trace": list(_trace_steps(trace)) if include_trace else None,
    }


def _trace_steps(trace: SolveTrace) -> Iterator[dict[str, Any]]:
    """Each pass of ``trace`` as its wire-format trace entry, in order.

    `result_json` lists the entries; the text trace prints each as it is
    yielded, so it holds one pass at a time.
    """
    for houses, violator in trace.passes():
        if violator is None:
            yield {"houses": houses, "saturating": True, "violator": None, "removed": []}
            continue
        removed = sorted(violator.neighborhood)  # one list, under both keys
        violator_entry = {"agents": sorted(violator.vertices), "houses": removed}
        yield {"houses": houses, "saturating": False, "violator": violator_entry, "removed": removed}
