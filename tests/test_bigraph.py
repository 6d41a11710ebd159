import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    alternating_reach,
    bipartite_graphs,
    brute_force_max_matching_size,
    graph_from_edges,
    has_augmenting_path,
    random_bipartite_graph,
    reference_matching_sizes,
    violator_is_subset_minimal,
)
from efhouse.bigraph import (
    BipartiteGraph,
    HallViolator,
    _alternating_tree,
    format_alternating_digraph,
    maximum_matching,
    neighborhood,
    violator_or_matching,
)
from efhouse.oracle import brute_force_hall_check


def graph(n_left, n_right, edges):
    return graph_from_edges(n_left, n_right, edges)


def test_neighborhood_shared_neighbor():
    g = graph(2, 1, [(1, 1), (2, 1)])
    assert neighborhood(g, {1, 2}) == {1}


def test_neighborhood_empty_subset():
    g = graph(2, 1, [(1, 1), (2, 1)])
    assert neighborhood(g, set()) == set()


def test_neighborhood_complete_k23():
    g = graph(2, 3, [(x, y) for x in (1, 2) for y in (1, 2, 3)])
    assert neighborhood(g, {1}) == {1, 2, 3}


def test_neighborhood_rejects_unknown_vertex():
    g = graph(2, 1, [(1, 1)])
    for subset in ({3}, [True], [1.0]):
        with pytest.raises(ValueError):
            neighborhood(g, subset)
    assert neighborhood(g, [np.int64(1)]) == {1}


def test_graph_validates_adjacency():
    with pytest.raises(ValueError):
        BipartiteGraph(2, ((2, 1),))  # unsorted
    with pytest.raises(ValueError):
        BipartiteGraph(2, ((3,),))  # out of range
    with pytest.raises(ValueError):
        BipartiteGraph(2, ((1, 1),))  # duplicate
    with pytest.raises(ValueError):
        BipartiteGraph(2, ((0, 1),))  # below range
    with pytest.raises(ValueError):
        BipartiteGraph(2, ((1, 3),))  # above range
    with pytest.raises(ValueError, match="^right vertex count must be nonnegative$"):
        BipartiteGraph(-1, ())
    graph = BipartiteGraph(2, ((), (1, 2)))
    assert graph.adj == ((), (1, 2)) and graph.n_left == 2
    assert BipartiteGraph(0, ()).n_left == 0


@pytest.mark.parametrize("vertex", [1.5, 1.0, True, np.True_, "1"])
def test_graph_rejects_right_vertices_that_are_not_integers(vertex):
    with pytest.raises(ValueError, match="^right vertices must be integers"):
        BipartiteGraph(3, ((vertex,),))


def test_graph_takes_numpy_integers_as_the_equal_ints():
    graph = BipartiteGraph(np.int64(3), ((np.int64(1), 2),))
    assert graph.n_right == 3 and type(graph.n_right) is int
    assert maximum_matching(graph) == {1: 1}
    with pytest.raises(TypeError):
        BipartiteGraph(3.0, ((1,),))


@pytest.mark.parametrize("vertices, joint", [({1, 2}, {1, 2}), ({1, 2, 3}, {1})])
def test_hall_violator_needs_one_more_vertex_than_neighbors(vertices, joint):
    with pytest.raises(ValueError, match="^violator must have exactly one more vertex"):
        HallViolator(frozenset(vertices), frozenset(joint))


def test_maximum_matching_empty_graph():
    assert len(maximum_matching(graph(2, 2, []))) == 0


def test_maximum_matching_shared_right_vertex():
    matching = maximum_matching(graph(2, 1, [(1, 1), (2, 1)]))
    assert len(matching) == 1


def test_maximum_matching_is_deterministic():
    rng = random.Random(7)
    for _ in range(30):
        g = random_bipartite_graph(rng, 6, 6, 0.4)
        assert maximum_matching(g) == maximum_matching(g)


@settings(max_examples=150)
@given(bipartite_graphs())
def test_maximum_matching_matches_brute_force(g):
    matching = maximum_matching(g)
    for x, y in matching.items():
        assert y in g.adj[x - 1]
    assert len(set(matching.values())) == len(matching)  # no right vertex matched twice
    assert len(matching) == brute_force_max_matching_size(g)


@settings(max_examples=150)
@given(bipartite_graphs())
def test_maximum_matching_has_no_augmenting_path(g):
    assert not has_augmenting_path(g, maximum_matching(g))


def test_is_saturating_perfect_matching():
    g = graph(3, 3, [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)])
    assert isinstance(violator_or_matching(g), dict)


def test_is_saturating_false_by_pigeonhole():
    g = graph(3, 2, [(x, y) for x in (1, 2, 3) for y in (1, 2)])
    assert not isinstance(violator_or_matching(g), dict)


def test_minimal_violator_smallest_case():
    g = graph(2, 1, [(1, 1), (2, 1)])
    violator = violator_or_matching(g)
    assert violator.vertices == {1, 2}
    assert violator.neighborhood == {1}


def test_minimal_violator_three_agent_chain():
    g = graph(3, 2, [(1, 1), (2, 1), (2, 2), (3, 2)])
    assert maximum_matching(g) == {1: 1, 2: 2}
    violator = violator_or_matching(g)
    assert violator.vertices == {1, 2, 3}
    assert violator.neighborhood == {1, 2}
    assert violator_is_subset_minimal(g, violator.vertices)


def test_minimal_violator_isolated_seed():
    g = graph(2, 1, [(2, 1)])
    violator = violator_or_matching(g)
    assert violator.vertices == {1}
    assert violator.neighborhood == set()


def test_minimal_violator_rejects_saturating_matching():
    g = graph(2, 2, [(1, 1), (2, 2)])
    assert isinstance(violator_or_matching(g), dict)


def test_minimal_violator_seed_is_lowest_unmatched():
    # vertices 1 and 3 compete for the single right vertex; 2 is isolated
    g = graph(3, 1, [(1, 1), (3, 1)])
    violator = violator_or_matching(g)
    assert violator.vertices == {2}


def test_violator_is_the_first_closed_tree_not_a_later_one():
    # 1 and 2 share right vertex 1 and close the first tree; 3 and 4 would
    # close a second one around right vertex 2
    g = graph(4, 2, [(1, 1), (2, 1), (3, 2), (4, 2)])
    assert violator_or_matching(g).vertices == {1, 2}
    assert alternating_reach(g) == {1, 2}


def test_random_violators_satisfy_all_invariants():
    rng = random.Random(2024)
    checked = 0
    while checked < 120:
        n_left = rng.randint(1, 8)
        n_right = rng.randint(1, 8)
        g = random_bipartite_graph(rng, n_left, n_right, rng.uniform(0.1, 0.6))
        violator = violator_or_matching(g)
        if isinstance(violator, dict):
            continue
        assert len(violator.vertices) == len(violator.neighborhood) + 1
        assert violator.neighborhood == neighborhood(g, violator.vertices)
        assert violator_is_subset_minimal(g, violator.vertices)
        assert violator.vertices in [v.vertices for v in brute_force_hall_check(g)]
        checked += 1


def test_violator_or_matching_is_the_violator_else_the_maximum_matching():
    rng = random.Random(7)
    saturating = 0
    for _ in range(400):
        n_left, n_right = rng.randint(1, 30), rng.randint(1, 40)
        g = random_bipartite_graph(rng, n_left, n_right, rng.uniform(0.02, 0.3))
        found = violator_or_matching(g)
        reach = alternating_reach(g)
        if reach is None:
            saturating += 1
            assert found == maximum_matching(g)  # pair for pair
            assert len(found) == g.n_left
        else:
            assert isinstance(found, HallViolator)
            assert found.vertices == reach
            assert found.neighborhood == neighborhood(g, found.vertices)
    assert 50 < saturating < 350  # both outcomes are exercised


def tree_per_start_closed_trees(g: BipartiteGraph, owner: dict[int, int]):
    """Reference: the augmenting loop that grows a tree from every start, no direct claims."""
    dead: set[int] = set()
    for start in range(1, g.n_left + 1):
        goal, parents = _alternating_tree(g.adj, start, owner, dead)
        if goal is None:
            yield parents
            dead.update(parents)
            continue
        step = goal
        while step is not None:
            x, y = step
            owner[y] = x
            step = parents[x]


def test_direct_claims_match_a_tree_from_every_start():
    rng = random.Random(4242)
    outcomes = {"violator": 0, "matching": 0}
    for trial in range(3000):
        n_left, n_right = rng.randint(0, 14), rng.randint(0, 16)
        if trial % 3 == 0:
            # wide, overlapping rows: intervals that share most right vertices
            rows = []
            for _ in range(n_left):
                lo = rng.randint(1, max(1, n_right // 3))
                hi = rng.randint(lo - 1, n_right)
                rows.append(tuple(range(lo, hi + 1)))
        else:
            density = rng.choice((0.0, 0.05, 0.2, 0.5, 0.9))
            rows = [
                tuple(y for y in range(1, n_right + 1) if rng.random() < density)
                for _ in range(n_left)
            ]
        if rows and trial % 5 == 0:
            rows[rng.randrange(len(rows))] = ()  # an agent with no neighbor
        g = BipartiteGraph(n_right, tuple(rows))
        owner: dict[int, int] = {}
        tree = next(tree_per_start_closed_trees(g, owner), None)
        if tree is None:
            outcomes["matching"] += 1
            assert violator_or_matching(g) == {x: y for y, x in owner.items()}
        else:
            outcomes["violator"] += 1
            removed = frozenset(step[1] for step in tree.values() if step is not None)
            assert violator_or_matching(g) == HallViolator(frozenset(tree), removed), trial
        owner = {}
        for _ in tree_per_start_closed_trees(g, owner):
            pass
        assert maximum_matching(g) == {x: y for y, x in owner.items()}, trial
    assert min(outcomes.values()) > 500  # both outcomes are exercised


def test_maximum_matching_size_matches_scipy_and_networkx():
    rng = random.Random(99)
    for _ in range(300):
        n_left, n_right = rng.randint(1, 60), rng.randint(1, 60)
        g = random_bipartite_graph(rng, n_left, n_right, rng.uniform(0.01, 0.2))
        matching = maximum_matching(g)
        assert reference_matching_sizes(g) == (len(matching), len(matching))
        violator = violator_or_matching(g)
        assert isinstance(violator, dict) == (len(matching) == g.n_left)
        if isinstance(violator, dict):
            assert alternating_reach(g) is None
        else:
            assert violator.vertices == alternating_reach(g)
            assert len(violator.vertices) == len(violator.neighborhood) + 1
            assert violator.neighborhood == neighborhood(g, violator.vertices)


@settings(max_examples=120)
@given(bipartite_graphs(max_left=6, max_right=6))
def test_hall_condition_matches_saturation(g):
    saturating = len(maximum_matching(g)) == g.n_left
    assert isinstance(violator_or_matching(g), dict) == saturating == (not brute_force_hall_check(g))


def test_alternating_digraph_dump():
    g = graph(2, 1, [(1, 1), (2, 1)])
    assert format_alternating_digraph(g).splitlines() == ["L1 -> R1", "L2 -> R1", "R1 -> L1"]
    # L1 first takes R1, so matching L2 needs the augmenting path L2 R1 L1 R2
    g = graph(2, 2, [(1, 1), (1, 2), (2, 1)])
    assert format_alternating_digraph(g).splitlines() == ["L1 -> R1 R2", "L2 -> R1", "R1 -> L2", "R2 -> L1"]
