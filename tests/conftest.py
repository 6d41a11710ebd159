"""Shared test helpers: instance builders, random samplers, brute-force checkers."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import numpy as np
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from efhouse.bigraph import BipartiteGraph, Matching, maximum_matching
from efhouse.prefs import PreferenceProfile, ProfileError


def profile_from_orders(*orders: tuple[int, ...]) -> PreferenceProfile:
    """Build a strict profile from per-agent house orders (most preferred first)."""
    m = len(orders[0])
    rows = []
    for order in orders:
        assert sorted(order) == list(range(1, m + 1))
        ranks = [0] * m
        for position, house in enumerate(order, start=1):
            ranks[house - 1] = position
        rows.append(tuple(ranks))
    return PreferenceProfile(tuple(rows))


def top_choices(profile: PreferenceProfile, agent: int, available: set[int]) -> set[int]:
    """Houses in ``available`` that ``agent`` likes best (all tied at the best rank).

    The reference for the solver's favorites rows: a plain scan of the
    available houses, with the agent and every house range-checked.
    """
    if not 1 <= agent <= profile.n_agents:
        raise ProfileError(f"agent {agent} out of range 1..{profile.n_agents}")
    if not available:
        raise ProfileError("available house set is empty")
    row = profile.ranks[agent - 1].tolist()
    for house in available:
        if not 1 <= house <= profile.n_houses:
            raise ProfileError(f"house {house} out of range 1..{profile.n_houses}")
    best = min(row[house - 1] for house in available)
    return {house for house in available if row[house - 1] == best}


def weakly_prefers(profile: PreferenceProfile, agent: int, h1: int, h2: int) -> bool:
    """True when ``agent`` likes ``h1`` at least as much as ``h2``."""
    row = profile.ranks[agent - 1].tolist()
    return row[h1 - 1] <= row[h2 - 1]


def graph_from_edges(n_left: int, n_right: int, edges) -> BipartiteGraph:
    """Graph with the given (left, right) edges; repeats collapse.

    Right ends are range-checked by `BipartiteGraph` itself.
    """
    neighbors: list[set[int]] = [set() for _ in range(n_left)]
    for x, y in edges:
        if not 1 <= x <= n_left:
            raise ValueError(f"left vertex {x} out of range 1..{n_left}")
        neighbors[x - 1].add(y)
    return BipartiteGraph(n_right, tuple(tuple(sorted(s)) for s in neighbors))


def random_strict_profile(rng: random.Random, n: int, m: int) -> PreferenceProfile:
    orders = []
    for _ in range(n):
        order = list(range(1, m + 1))
        rng.shuffle(order)
        orders.append(tuple(order))
    return profile_from_orders(*orders)


def random_tie_profile(
    rng: random.Random, n: int, m: int, tie_prob: float = 0.35
) -> PreferenceProfile:
    """Random weak-order profile: shuffled houses merged into tie groups."""
    rows = []
    for _ in range(n):
        order = list(range(1, m + 1))
        rng.shuffle(order)
        ranks = [0] * m
        group_rank = 1
        ranks[order[0] - 1] = 1
        for position in range(1, m):
            if rng.random() >= tie_prob:
                group_rank = position + 1
            ranks[order[position] - 1] = group_rank
        rows.append(tuple(ranks))
    return PreferenceProfile(tuple(rows))


def tiered_profile(n: int, m: int, tier: int, seed: int, popularity: float = 0.0) -> PreferenceProfile:
    """Random orders cut into tie groups of `tier` consecutive houses.

    Each agent orders the houses by ``popularity * p + (1 - popularity) * noise``,
    best first, with one vector ``p`` per profile; at 0 the orders are
    uniform and independent, and near 1 most agents want the same houses.
    """
    rng = np.random.default_rng(seed)
    score = rng.random((n, m))
    if popularity:
        score = popularity * rng.random(m) + (1 - popularity) * score
    orders = np.argsort(score, axis=1)
    ranks = np.empty((n, m), dtype=np.int64)
    np.put_along_axis(ranks, orders, np.arange(m) // tier * tier + 1, axis=1)
    return PreferenceProfile(ranks)


def random_bipartite_graph(
    rng: random.Random, n_left: int, n_right: int, density: float
) -> BipartiteGraph:
    edges = [
        (x, y)
        for x in range(1, n_left + 1)
        for y in range(1, n_right + 1)
        if rng.random() < density
    ]
    return graph_from_edges(n_left, n_right, edges)


def reference_matching_sizes(graph: BipartiteGraph) -> tuple[int, int]:
    """Maximum matching size by scipy's csgraph and by networkx's Hopcroft-Karp."""
    rows = [x for x, row in enumerate(graph.adj) for _ in row]
    cols = [y - 1 for row in graph.adj for y in row]
    biadjacency = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(graph.n_left, graph.n_right)
    )
    scipy_size = int((maximum_bipartite_matching(biadjacency, perm_type="column") >= 0).sum())
    left = [("L", x) for x in range(1, graph.n_left + 1)]
    g = nx.Graph()
    g.add_nodes_from(left)
    g.add_nodes_from(("R", y) for y in range(1, graph.n_right + 1))
    g.add_edges_from((("L", x), ("R", y)) for x, row in enumerate(graph.adj, start=1) for y in row)
    networkx_size = len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)) // 2
    return scipy_size, networkx_size


def brute_force_max_matching_size(graph: BipartiteGraph) -> int:
    """Exhaustive maximum matching size; independent of the library's search."""

    def best(x: int, used: frozenset[int]) -> int:
        if x > graph.n_left:
            return 0
        result = best(x + 1, used)
        for y in graph.adj[x - 1]:
            if y not in used:
                result = max(result, 1 + best(x + 1, used | {y}))
        return result

    return best(1, frozenset())


def has_augmenting_path(graph: BipartiteGraph, matching: Matching) -> bool:
    """True when some unmatched left vertex can reach an unmatched right vertex."""
    owner = {y: x for x, y in matching.pairs}
    matched_left = {x for x, _ in matching.pairs}
    for start in range(1, graph.n_left + 1):
        if start in matched_left:
            continue
        seen_right: set[int] = set()
        stack = [start]
        while stack:
            x = stack.pop()
            for y in graph.adj[x - 1]:
                if y in seen_right:
                    continue
                seen_right.add(y)
                back = owner.get(y)
                if back is None:
                    return True
                stack.append(back)
    return False


def alternating_reach(graph: BipartiteGraph) -> set[int] | None:
    """Left vertices alternating paths reach from the lowest unmatched left vertex.

    The matching is `maximum_matching(graph)`; None when it covers every left
    vertex. The walk reads only `graph.adj` and the matching's pairs, so it
    pins the violator independently of the library's tree search.
    """
    owner = {y: x for x, y in maximum_matching(graph).pairs}
    matched = set(owner.values())
    start = next((x for x in range(1, graph.n_left + 1) if x not in matched), None)
    if start is None:
        return None
    reached = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in graph.adj[x - 1]:
            assert y in owner, "augmenting path: the matching is not maximum"
            if owner[y] not in reached:
                reached.add(owner[y])
                stack.append(owner[y])
    return reached


def violator_is_subset_minimal(graph: BipartiteGraph, vertices: frozenset[int]) -> bool:
    """Check by enumeration that no proper subset of `vertices` is deficient."""
    from efhouse.bigraph import neighborhood

    for size in range(1, len(vertices)):
        for subset in itertools.combinations(sorted(vertices), size):
            if len(subset) > len(neighborhood(graph, subset)):
                return False
    return True


@st.composite
def tie_profiles(draw, max_agents: int = 4, max_houses: int = 5, min_houses: int = 1):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(min_houses, max_houses))
    rows = []
    for _ in range(n):
        order = draw(st.permutations(list(range(1, m + 1))))
        merges = draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1))
        ranks = [0] * m
        group_rank = 1
        ranks[order[0] - 1] = 1
        for position in range(1, m):
            if not merges[position - 1]:
                group_rank = position + 1
            ranks[order[position] - 1] = group_rank
        rows.append(tuple(ranks))
    return PreferenceProfile(tuple(rows))


@st.composite
def solvable_shapes(draw, max_agents: int = 3, max_houses: int = 5):
    """(n, m) with m >= n, small enough for the enumeration oracle."""
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(n, max_houses))
    return n, m


@st.composite
def bipartite_graphs(draw, max_left: int = 6, max_right: int = 6):
    n_left = draw(st.integers(0, max_left))
    n_right = draw(st.integers(0, max_right))
    rows = []
    for _ in range(n_left):
        if n_right == 0:
            rows.append(())
            continue
        neighbors = draw(
            st.sets(st.integers(1, n_right), min_size=0, max_size=n_right)
        )
        rows.append(tuple(sorted(neighbors)))
    return BipartiteGraph(n_right, tuple(rows))
