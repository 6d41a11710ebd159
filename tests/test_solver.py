import enum
import gc
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import (
    alternating_reach,
    profile_from_orders,
    random_strict_profile,
    random_tie_profile,
    reference_matching_sizes,
    tie_profiles,
    tiered_profile,
    top_choices,
)
from efhouse import solver
from efhouse.bigraph import BipartiteGraph, HallViolator, maximum_matching, neighborhood
from efhouse.oracle import enumerate_ef_assignments, is_pareto_among_ef
from efhouse.prefs import WORST_RANK, PreferenceProfile, parse_profile
from efhouse.randmodel import sample_strict_profile
from efhouse.solver import (
    Assignment,
    InvalidInstanceError,
    SolveTrace,
    envy_free_assignment,
    result_json,
    verify_envy_free,
)

GOLDEN = parse_profile("2 3\n1 > 2 > 3\n1 > 3 > 2")


def test_golden_instance_assignment():
    assignment, trace = envy_free_assignment(GOLDEN)
    assert assignment.mapping() == {1: 2, 2: 3}
    assert [rec.violator is None for rec in trace.iterations] == [False, True]
    assert trace.iterations[0].violator.neighborhood == {1}
    assert trace.iterations[1].available == [2, 3]


def test_two_agents_two_houses_same_ranking_has_no_solution():
    profile = profile_from_orders((1, 2), (1, 2))
    assignment, trace = envy_free_assignment(profile)
    assert assignment is None
    assert trace.assignment is None
    assert len(trace.iterations) == 1  # m == n exits after a single pass


def test_single_agent_takes_lowest_tied_top_house():
    profile = parse_profile("1 4\n3 = 2 > 1 = 4")
    assignment, _ = envy_free_assignment(profile)
    assert assignment.mapping() == {1: 2}


def test_more_agents_than_houses_rejected():
    profile = profile_from_orders((1, 2), (2, 1), (1, 2))
    with pytest.raises(InvalidInstanceError):
        envy_free_assignment(profile)


def test_verify_envy_free_golden():
    assert verify_envy_free(GOLDEN, Assignment((2, 3)))
    assert not verify_envy_free(GOLDEN, Assignment((1, 2)))


def test_verify_envy_free_detects_envy():
    profile = profile_from_orders((1, 2), (1, 2))
    assert not verify_envy_free(profile, Assignment((1, 2)))


def test_verify_envy_free_single_agent_is_vacuous():
    profile = profile_from_orders((2, 1, 3))
    assert verify_envy_free(profile, Assignment((3,)))


def test_verify_envy_free_validates_shape():
    with pytest.raises(ValueError):
        verify_envy_free(GOLDEN, Assignment((2,)))
    with pytest.raises(ValueError):
        verify_envy_free(GOLDEN, Assignment((2, 9)))


@pytest.mark.parametrize("house", [1.5, 3.0, True, np.True_])
def test_verify_envy_free_rejects_house_ids_that_are_not_integers(house):
    with pytest.raises(ValueError, match="^house ids must be integers"):
        verify_envy_free(GOLDEN, Assignment((house, 2)))


def test_verify_envy_free_takes_numpy_integer_house_ids():
    assert verify_envy_free(GOLDEN, Assignment((np.int64(2), 3)))


class Id(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


def stored_ids(value) -> list:
    """Every id a solve value holds, with each tuple and frozenset it holds them in checked."""
    if isinstance(value, Assignment):
        assert type(value.houses) is tuple
        return list(value.houses)
    if isinstance(value, BipartiteGraph):
        assert type(value.adj) is tuple and all(type(row) is tuple for row in value.adj)
        return [value.n_right, *itertools.chain(*value.adj)]
    if isinstance(value, HallViolator):
        assert type(value.vertices) is type(value.neighborhood) is frozenset
        return [*value.vertices, *value.neighborhood]
    assert type(value.violators) is tuple
    held = [value.n_houses, *itertools.chain(*map(stored_ids, value.violators))]
    return held + ([] if value.assignment is None else stored_ids(value.assignment))


@pytest.mark.parametrize(
    "loose, canonical",
    [
        (lambda: Assignment([np.int64(2), Id.THREE]), lambda: Assignment((2, 3))),
        (lambda: Assignment(np.array([3, 1], dtype=np.uint8)), lambda: Assignment((3, 1))),
        (
            lambda: BipartiteGraph(np.int32(3), [[Id.ONE], np.array([2, 3]), []]),
            lambda: BipartiteGraph(3, ((1,), (2, 3), ())),
        ),
        (
            lambda: HallViolator({np.int64(1), Id.TWO}, [np.uint16(3)]),
            lambda: HallViolator(frozenset({1, 2}), frozenset({3})),
        ),
        (
            lambda: SolveTrace(Id.THREE, [HallViolator({np.int8(1), Id.TWO}, {Id.THREE})], None),
            lambda: SolveTrace(3, (HallViolator(frozenset({1, 2}), frozenset({3})),), None),
        ),
        (
            lambda: SolveTrace(np.int64(3), iter([]), Assignment([Id.TWO, np.int64(3)])),
            lambda: SolveTrace(3, (), Assignment((2, 3))),
        ),
    ],
    ids=["Assignment-list", "Assignment-array", "BipartiteGraph", "HallViolator", "SolveTrace-none", "SolveTrace-found"],
)
def test_solve_values_store_one_form_of_integer_ids(loose, canonical):
    value, expected = loose(), canonical()
    assert value == expected and hash(value) == hash(expected)
    held = stored_ids(value)
    assert held == stored_ids(expected) and all(type(v) is int for v in held)


@pytest.mark.parametrize("house", [1.5, 3.0, True, np.True_, "2"], ids=["1.5", "3.0", "True", "np.True_", "'2'"])
def test_assignment_rejects_house_ids_that_are_not_integers(house):
    with pytest.raises(ValueError, match="^house ids must be integers"):
        Assignment((house, 2))


def test_violator_checks_each_id_before_its_set_merges_them():
    with pytest.raises(ValueError, match="^violator vertices must be integers"):
        HallViolator([1, True, 2], [3])  # a frozenset would merge True into 1


def test_assignment_rejects_duplicates():
    with pytest.raises(ValueError):
        Assignment((1, 1))


@pytest.mark.parametrize(
    "houses, message",
    [((), "assignment must cover at least one agent"), ((2, 0), "house ids are 1-based")],
)
def test_assignment_rejects_empty_and_zero_houses(houses, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Assignment(houses)


def test_solver_is_deterministic():
    rng = random.Random(5)
    for _ in range(40):
        profile = random_tie_profile(rng, rng.randint(1, 4), rng.randint(4, 6))
        first = envy_free_assignment(profile)
        second = envy_free_assignment(profile)
        assert first == second


def test_solver_agrees_with_oracle_on_random_strict_instances():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 3)
        m = rng.randint(n, 5)
        profile = random_strict_profile(rng, n, m)
        assignment, trace = envy_free_assignment(profile)
        all_ef = enumerate_ef_assignments(profile)
        assert (assignment is not None) == bool(all_ef)
        if assignment is not None:
            assert assignment in all_ef
            assert verify_envy_free(profile, assignment)
            assert is_pareto_among_ef(profile, assignment)


@settings(max_examples=120)
@given(tie_profiles(max_agents=3, max_houses=5))
def test_solver_sound_and_complete_with_ties(profile):
    if profile.n_houses < profile.n_agents:
        with pytest.raises(InvalidInstanceError):
            envy_free_assignment(profile)
        return
    assignment, trace = envy_free_assignment(profile)
    assert (assignment is not None) == bool(enumerate_ef_assignments(profile))
    if assignment is not None:
        assert verify_envy_free(profile, assignment)
        final = trace.iterations[-1]
        for agent in range(1, profile.n_agents + 1):
            assert assignment.houses[agent - 1] in top_choices(
                profile, agent, set(final.available)
            )


@settings(max_examples=120)
@given(tie_profiles(max_agents=4, max_houses=6))
def test_trace_invariants(profile):
    if profile.n_houses < profile.n_agents:
        return
    n, m = profile.n_agents, profile.n_houses
    _, trace = envy_free_assignment(profile)
    assert 1 <= len(trace.iterations) <= m - n + 1
    removed_sets = [
        rec.violator.neighborhood for rec in trace.iterations if rec.violator is not None
    ]
    for i, first in enumerate(removed_sets):
        for second in removed_sets[i + 1 :]:
            assert not (first & second)
    for rec in trace.iterations[:-1]:
        assert rec.violator.neighborhood  # every non-terminal pass prunes something
    if m == n:
        assert len(trace.iterations) == 1
    assert_favorites_rows_fresh(profile, trace)


@pytest.mark.parametrize(
    "seed, n, m, ties",
    [(0, 100, 200, False), (1, 150, 300, True), (2, 200, 240, False), (3, 300, 320, True)],
)
def test_favorites_rows_fresh_at_scale(seed, n, m, ties):
    make = random_tie_profile if ties else random_strict_profile
    profile = make(random.Random(seed), n, m)
    _, trace = envy_free_assignment(profile)
    assert len(trace.iterations) > 10
    assert_favorites_rows_fresh(profile, trace)
    for graph, rec in zip(pass_graphs(profile), trace.iterations, strict=True):
        size = len(maximum_matching(graph))
        assert reference_matching_sizes(graph) == (size, size)
        assert (rec.violator is None) == (size == graph.n_left)
        if rec.violator is None:
            assert alternating_reach(graph) is None
        else:
            S, N = rec.violator.vertices, rec.violator.neighborhood
            assert S == alternating_reach(graph)
            assert len(S) == len(N) + 1
            assert N == neighborhood(graph, S)


def canonical_violator(rows: tuple[tuple[int, ...], ...], m: int) -> tuple[set[int], set[int]] | None:
    """The violator of the favorites graph ``rows``, found without the solver's search.

    None when the agents have a saturating matching. Otherwise k is the
    smallest agent count whose prefix 1..k has none (a deficient prefix stays
    deficient when extended, so bisection finds k). A maximum matching of the
    prefix leaves one agent unmatched, and the agents its alternating paths
    reach, with their neighborhood, are the violator: by the
    Dulmage-Mendelsohn decomposition the same set for every maximum matching.
    """
    indptr = np.cumsum([0, *map(len, rows)])
    indices = np.fromiter(itertools.chain.from_iterable(rows), np.int32, indptr[-1]) - 1
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(rows), m))

    def partners(k: int) -> np.ndarray:
        """Each of agents 1..k's matched column in a maximum matching, -1 if none."""
        return maximum_bipartite_matching(graph[:k], perm_type="column")

    if (partners(len(rows)) >= 0).all():
        return None
    saturated, deficient = 0, len(rows)
    while deficient - saturated > 1:
        mid = (saturated + deficient) // 2
        if (partners(mid) >= 0).all():
            saturated = mid
        else:
            deficient = mid
    match = partners(deficient).tolist()
    owner = {house + 1: agent for agent, house in enumerate(match) if house >= 0}
    reached = [match.index(-1)]
    for agent in reached:
        for house in rows[agent]:
            # every house it meets is matched, or the matching could grow
            if owner[house] not in reached:
                reached.append(owner[house])
    return {agent + 1 for agent in reached}, {house for agent in reached for house in rows[agent]}


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_strict_profile(random.Random(1), 200, 400),
        lambda: random_tie_profile(random.Random(3), 150, 300),
        lambda: random_tie_profile(random.Random(4), 250, 300),
        lambda: tiered_profile(200, 400, 5, seed=6, popularity=0.5),
        lambda: tiered_profile(200, 400, 50, seed=5, popularity=0.95),
    ],
    ids=["strict-200x400", "tied-150x300", "tied-250x300", "tiers-of-5", "tiers-of-50"],
)
def test_every_violator_is_the_canonical_one(make):
    profile = make()
    violators = 0
    for rows, found in solver.solve_passes(profile):
        expected = canonical_violator(rows, profile.n_houses)
        if expected is None:
            assert not isinstance(found, HallViolator)
        else:
            assert isinstance(found, HallViolator)
            assert (set(found.vertices), set(found.neighborhood)) == expected
            violators += 1
    assert violators > 3


def test_rank_values_matter_only_through_their_order():
    # an affine rewrite with negative and widely spaced values keeps every comparison
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 12)
        profile = random_tie_profile(rng, n, n + rng.randint(0, 2 * n))
        rewritten = PreferenceProfile(
            tuple(tuple(1000 * r - 5000 for r in row) for row in profile.ranks)
        )
        _, trace = envy_free_assignment(profile)
        _, rewritten_trace = envy_free_assignment(rewritten)
        assert result_json(rewritten_trace) == result_json(trace)


def test_found_assignment_is_the_maximum_matching_of_the_last_pass():
    rng = random.Random(23)
    found = 0
    for _ in range(200):
        n = rng.randint(1, 15)
        profile = random_tie_profile(rng, n, n + rng.randint(0, 3 * n))
        assignment, trace = envy_free_assignment(profile)
        if assignment is None:
            continue
        found += 1
        by_agent = maximum_matching(pass_graphs(profile)[-1])
        assert assignment.houses == tuple(by_agent[a] for a in range(1, n + 1))
    assert found > 50


# tie tiers of 50 and 10 with popularity-correlated orders, where nearly
# every row goes stale on every pass, and strict rows at m = 3 n ln n
WIDE = [(200, 400, 50, 0.95), (60, 600, 10, 0.95), (200, 3179, 1, 0.0)]


@pytest.fixture(scope="module", params=WIDE, ids=[f"{n}x{m}/{t}" for n, m, t, _ in WIDE])
def wide_solve(request):
    n, m, tier, popularity = request.param
    profile = tiered_profile(n, m, tier, seed=n + m + tier, popularity=popularity)
    return profile, envy_free_assignment(profile)[1]


def test_favorites_rows_fresh_on_wide_tiers_and_strict_rows(wide_solve):
    profile, trace = wide_solve
    assert len(trace.iterations) > 3
    assert_favorites_rows_fresh(profile, trace)


def test_favorites_rows_hold_plain_ints(wide_solve):
    profile, trace = wide_solve
    for rows, _ in solver.solve_passes(profile):
        assert all(type(house) is int for row in rows for house in row)
    for houses, _ in trace.passes():
        assert all(type(house) is int for house in houses)
    json.dumps(result_json(trace))


@pytest.mark.parametrize("rows_per_block", [1, 7])
def test_block_size_does_not_change_the_trace(wide_solve, rows_per_block, monkeypatch):
    # 7 rows divide none of the agent counts, so the last block is short
    profile, trace = wide_solve
    assert profile.n_agents % 7
    expected = [rows for rows, _ in solver.solve_passes(profile)]
    monkeypatch.setattr(solver, "_BLOCK_CELLS", rows_per_block * profile.n_houses)
    _, blocked = envy_free_assignment(profile)
    assert result_json(blocked) == result_json(trace)
    assert [rows for rows, _ in solver.solve_passes(profile)] == expected


def assert_rescans_only_rows_that_lost_a_favorite(profile, monkeypatch) -> int:
    """Each pass after the first rescans exactly the rows whose favorites the last pass removed.

    The freshness checks pass when too many rows are rescanned; this one
    does not. Returns how many rescanned rows kept some favorite.
    """
    scans = []
    favorites = solver._favorites

    def recorded(masked, stale, *rest):
        scans.append(set(stale.tolist()))
        favorites(masked, stale, *rest)

    monkeypatch.setattr(solver, "_favorites", recorded)
    passes = list(solver.solve_passes(profile))
    assert len(scans) == len(passes) and scans[0] == set(range(profile.n_agents))
    partial = 0
    for (rows, found), stale in zip(passes, scans[1:]):
        removed = found.neighborhood
        assert stale == {i for i, row in enumerate(rows) if not removed.isdisjoint(row)}
        partial += sum(not removed.issuperset(rows[i]) for i in stale)
    return partial


def test_strict_passes_rescan_only_rows_that_lost_their_favorite(monkeypatch):
    profile = tiered_profile(100, 200, 1, seed=300)
    assert assert_rescans_only_rows_that_lost_a_favorite(profile, monkeypatch) == 0
    violators = envy_free_assignment(profile)[1].violators
    assert len(violators) == 101 and all(len(v.neighborhood) == 1 for v in violators)


def test_tie_tier_passes_rescan_only_rows_that_lost_a_favorite(monkeypatch):
    # tiers of 50: the first passes remove 39-70 houses each, some stale rows
    # keep a favorite, and the one-house passes after them leave rows fresh
    profile = tiered_profile(200, 400, 50, seed=2, popularity=0.9)
    assert assert_rescans_only_rows_that_lost_a_favorite(profile, monkeypatch) > 0
    removed = [len(v.neighborhood) for v in envy_free_assignment(profile)[1].violators]
    assert max(removed) > 50 and min(removed) == 1


def test_wide_passes_rescan_only_rows_that_lost_a_favorite(wide_solve, monkeypatch):
    profile, _ = wide_solve
    assert_rescans_only_rows_that_lost_a_favorite(profile, monkeypatch)


BLOCK_SIZES = pytest.mark.parametrize("rows_per_block", [1, 7, None], ids=["1", "7", "default"])


@BLOCK_SIZES
def test_favorites_rows_match_each_row_in_single_favorite_and_mixed_blocks(rows_per_block):
    # rows 0-10 have one favorite each, so the first 7-row block holds only
    # such rows; after them tied rows alternate with single-favorite ones
    rng = np.random.default_rng(8)
    n, m = 30, 40
    masked = np.array([rng.permutation(m) + 1 for _ in range(n)], dtype=np.int64)
    for i in range(11, n, 2):
        masked[i, rng.choice(m, 3, replace=False)] = 1
    masked[:, [3, 17]] = WORST_RANK
    step = rows_per_block or max(1, solver._BLOCK_CELLS // m)
    for stale in (np.arange(n), np.flatnonzero(rng.random(n) < 0.6)):
        best = np.zeros(n, np.int64)
        rows = [None] * n
        solver._favorites(masked, stale, solver._house_ids(m, step), best, rows)
        for i in range(n):
            if i in stale:
                low = masked[i].min()
                assert best[i] == low
                assert rows[i] == tuple(int(h) + 1 for h in np.flatnonzero(masked[i] == low))
            else:
                assert (best[i], rows[i]) == (0, None)
        assert [len(rows[i]) for i in stale if i < 11] == [1] * sum(stale < 11)
        assert any(len(rows[i]) > 1 for i in stale)


@BLOCK_SIZES
@pytest.mark.parametrize("ties", [False, True], ids=["strict", "tied"])
def test_favorites_rows_fresh_at_any_block_size(ties, rows_per_block, monkeypatch):
    # strict rows make every block single-favorite; tied rows mix both kinds
    make = random_tie_profile if ties else random_strict_profile
    profile = make(random.Random(41), 40, 60)
    if rows_per_block is not None:
        monkeypatch.setattr(solver, "_BLOCK_CELLS", rows_per_block * profile.n_houses)
    _, trace = envy_free_assignment(profile)
    assert len(trace.iterations) > 3
    assert_favorites_rows_fresh(profile, trace)


def filtering_passes(trace):
    """Reference for `SolveTrace.passes`: each pass's houses filtered from the last's."""
    houses = list(range(1, trace.n_houses + 1))
    for violator in trace.violators:
        yield houses, violator
        houses = [house for house in houses if house not in violator.neighborhood]
    if trace.assignment is not None:
        yield houses, None


def test_passes_match_the_filtering_walk_and_are_owned_by_the_caller():
    # popular tie tiers remove several houses at once; some solves end found
    traces = [
        envy_free_assignment(tiered_profile(n, m, tier, seed, popularity=0.9))[1]
        for n, m, tier, seed in [(20, 60, 5, 1), (30, 120, 10, 2), (40, 80, 4, 3), (12, 40, 3, 4)]
    ]
    traces.append(envy_free_assignment(GOLDEN)[1])
    # built by hand: removals off offer (one twice, one past m) are skipped
    twice = HallViolator(frozenset({1, 2}), frozenset({2}))
    beyond = HallViolator(frozenset({1, 2}), frozenset({9}))
    traces.append(solver.SolveTrace(4, (twice, twice, beyond), Assignment((1, 3))))
    assert any(len(v.neighborhood) > 1 for trace in traces for v in trace.violators)
    assert any(trace.assignment is not None and trace.violators for trace in traces)
    assert any(trace.assignment is None for trace in traces)
    for trace in traces:
        walked = []
        for houses, violator in trace.passes():
            walked.append((houses.copy(), violator))
            houses.clear()  # must not reach the next pass
        assert walked == list(filtering_passes(trace))


def test_house_id_pool_is_reused_across_house_counts():
    # ids above 256 are not shared small ints, so they exercise the pool
    profiles = [tiered_profile(30, m, 5, seed) for seed, m in enumerate((300, 40, 300, 40, 41))]
    fresh = []
    for profile in profiles:
        solver._house_ids.cache_clear()
        fresh.append(json.dumps(result_json(envy_free_assignment(profile)[1])))
    reused = [json.dumps(result_json(envy_free_assignment(profile)[1])) for profile in profiles]
    assert reused == fresh
    id_block = solver._house_ids(41, 3)
    assert id_block.shape == (3, 41) and id_block[2].tolist() == list(range(1, 42))
    assert not id_block.flags.writeable
    with pytest.raises(ValueError):
        id_block.base[0] = 7  # the pool row every block row views


def test_held_trace_grows_with_the_removals_only():
    # 1,001 passes over 2,000 houses; a trace holding each pass's house set
    # and favorites graph held ~74 MB at this size, and a view that built a
    # frozenset per pass peaked at ~104 MB when read
    profile = sample_strict_profile(1000, 2000, 3)
    tracemalloc.start()
    try:
        _, trace = envy_free_assignment(profile)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()  # the trace and any cache the solve filled
        tracemalloc.reset_peak()
        records = trace.iterations
        _, viewed = tracemalloc.get_traced_memory()  # the trace with every pass's house list
        assert records == tuple(trace.passes())
    finally:
        tracemalloc.stop()
    assert len(trace.violators) == 1001 and trace.assignment is None
    assert held < 1 << 20
    assert viewed < 32 << 20


def pass_graphs(profile):
    """Each solve pass's favorites graph, rebuilt through `BipartiteGraph`'s row checks."""
    return [BipartiteGraph(profile.n_houses, rows) for rows, _ in solver.solve_passes(profile)]


def assert_favorites_rows_fresh(profile, trace):
    """Each pass's favorites rows equal a from-scratch ranking, and passes chain.

    The passes are replayed; each pass's rows must pass `BipartiteGraph`'s
    row checks, and its search must find the violator the trace holds.
    """
    records = trace.iterations
    assert records == tuple(trace.passes())
    assert records[0].available == list(range(1, profile.n_houses + 1))
    for (rows, found), rec in zip(solver.solve_passes(profile), records, strict=True):
        graph = BipartiteGraph(profile.n_houses, rows)
        assert rows == tuple(
            tuple(sorted(top_choices(profile, agent, rec.available)))
            for agent in range(1, profile.n_agents + 1)
        )
        assert found == (rec.violator or maximum_matching(graph))
    # only the final pass may saturate
    assert all(rec.violator is not None for rec in records[:-1])
    for before, after in zip(records, records[1:]):
        assert set(after.available) == set(before.available) - before.violator.neighborhood


def test_result_json_found_and_none():
    _, trace = envy_free_assignment(GOLDEN)
    payload = json.loads(json.dumps(result_json(trace)))
    assert payload["status"] == "found"
    assert payload["assignment"] == {"1": 2, "2": 3}
    assert payload["trace"][0] == {
        "houses": [1, 2, 3],
        "saturating": False,
        "violator": {"agents": [1, 2], "houses": [1]},
        "removed": [1],
    }
    assert result_json(trace, include_trace=False)["trace"] is None

    _, trace = envy_free_assignment(profile_from_orders((1, 2), (1, 2)))
    payload = result_json(trace)
    assert payload["status"] == "none"
    assert payload["assignment"] is None
