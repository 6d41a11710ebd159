import pytest

from conftest import graph_from_edges, profile_from_orders
from efhouse.bigraph import BipartiteGraph
from efhouse.oracle import (
    InstanceTooLargeError,
    brute_force_hall_check,
    enumerate_ef_assignments,
    is_pareto_among_ef,
)
from efhouse.prefs import parse_profile
from efhouse.solver import Assignment, InvalidInstanceError

GOLDEN = parse_profile("2 3\n1 > 2 > 3\n1 > 3 > 2")


def test_golden_instance_has_unique_ef_assignment():
    assert [a.mapping() for a in enumerate_ef_assignments(GOLDEN)] == [{1: 2, 2: 3}]


def test_single_agent_never_envies():
    profile = profile_from_orders((1, 2))
    assert [a.mapping() for a in enumerate_ef_assignments(profile)] == [
        {1: 1},
        {1: 2},
    ]


def test_identical_rankings_two_by_two_yield_nothing():
    assert enumerate_ef_assignments(profile_from_orders((1, 2), (1, 2))) == []


def test_enumeration_is_lexicographic():
    profile = parse_profile("2 3\n1 = 2 = 3\n1 = 2 = 3")
    houses = [a.houses for a in enumerate_ef_assignments(profile)]
    assert houses == sorted(houses)
    assert len(houses) == 6  # fully indifferent agents accept any injection


def test_enumeration_guards():
    with pytest.raises(InvalidInstanceError):
        enumerate_ef_assignments(profile_from_orders((1, 2), (1, 2), (1, 2)))
    big = parse_profile("11 11\n" + "\n".join(" > ".join(map(str, range(1, 12))) for _ in range(11)))
    with pytest.raises(InstanceTooLargeError):
        enumerate_ef_assignments(big)  # 11! candidates exceed the guard


def test_pareto_golden_candidate():
    assert is_pareto_among_ef(GOLDEN, Assignment((2, 3)))


def test_pareto_rejects_dominated_single_agent_choice():
    profile = profile_from_orders((1, 2))
    assert not is_pareto_among_ef(profile, Assignment((2,)))
    assert is_pareto_among_ef(profile, Assignment((1,)))


def test_pareto_requires_envy_free_candidate():
    with pytest.raises(ValueError):
        is_pareto_among_ef(GOLDEN, Assignment((1, 2)))


def test_ties_count_as_not_worse():
    profile = parse_profile("1 2\n1 = 2")
    assert is_pareto_among_ef(profile, Assignment((1,)))
    assert is_pareto_among_ef(profile, Assignment((2,)))


def test_hall_check_complete_graph_is_clean():
    g = graph_from_edges(3, 3, [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)])
    assert brute_force_hall_check(g) == []


def test_hall_check_shared_neighbor():
    g = graph_from_edges(2, 1, [(1, 1), (2, 1)])
    violators = brute_force_hall_check(g)
    assert [v.vertices for v in violators] == [frozenset({1, 2})]
    assert violators[0].neighborhood == frozenset({1})


def test_hall_check_reports_only_minimal_sets():
    # vertex 3 is isolated: {3} is the only minimal violator containing 3
    g = graph_from_edges(3, 2, [(1, 1), (2, 1), (2, 2)])
    assert [v.vertices for v in brute_force_hall_check(g)] == [frozenset({3})]


def test_hall_check_size_guard():
    g = BipartiteGraph(1, tuple(() for _ in range(13)))
    with pytest.raises(InstanceTooLargeError):
        brute_force_hall_check(g)
