import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from efhouse import cli, randmodel
from efhouse.prefs import WORST_RANK, PreferenceProfile
from efhouse.randmodel import (
    MonteCarloStats,
    UtilityMatrix,
    estimate_existence_probability,
    sample_strict_profile,
    sample_utilities,
    threshold_mechanism,
    utilities_to_profile,
)
from efhouse.solver import (
    Assignment,
    InvalidInstanceError,
    envy_free_assignment,
    result_json,
    verify_envy_free,
)


def test_single_house_forces_trivial_ranking():
    profile = sample_strict_profile(4, 1, seed=3)
    assert profile.ranks.tolist() == [[1], [1], [1], [1]]


def test_sampled_profiles_hold_read_only_int64_arrays():
    for profile in (sample_strict_profile(3, 5, seed=1), utilities_to_profile(sample_utilities(3, 5, seed=1))):
        assert profile.ranks.dtype == np.int64 and profile.ranks.shape == (3, 5)
        assert not profile.ranks.flags.writeable
        assert sorted(profile.ranks[0].tolist()) == [1, 2, 3, 4, 5]


def test_sampling_is_deterministic_per_seed():
    assert sample_strict_profile(5, 6, seed=11) == sample_strict_profile(5, 6, seed=11)
    assert sample_strict_profile(5, 6, seed=11) != sample_strict_profile(5, 6, seed=12)
    first = sample_utilities(3, 4, seed=8)
    second = sample_utilities(3, 4, seed=8)
    assert np.array_equal(first.values, second.values)


@pytest.mark.parametrize("sample", [sample_strict_profile, sample_utilities])
@pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (-1, 2)])
def test_sampling_needs_an_agent_and_a_house(sample, n, m):
    with pytest.raises(ValueError, match="^need at least one agent and one house$"):
        sample(n, m, seed=1)


def test_negative_seed_rejected(monkeypatch):
    with pytest.raises(ValueError):
        sample_strict_profile(2, 2, seed=-1)

    def no_states(*args):
        raise AssertionError("derived generator states for a negative seed")

    # splitting a negative seed into uint32 words would never end
    monkeypatch.setattr(randmodel, "_pcg64_states", no_states)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        estimate_existence_probability(2, 4, trials=5, seed=-1)


def numpy_pcg64_state(seed: int, trial: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence([seed, trial])).state


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
@pytest.mark.parametrize(
    "first, stop, block",
    [
        pytest.param(0, 3, None, id="first-trials"),
        pytest.param(2**32 - 1, 2**32, None, id="last-one-word-trial"),
        pytest.param(0, randmodel._SEED_BLOCK + 2, None, id="across-a-block"),
        pytest.param(4090, 4101, 4, id="across-small-blocks"),
        pytest.param(2**32 - 3, 2**32 + 2, None, id="across-2**32"),
        pytest.param(2**32 - 3, 2**32 + 2, 2, id="across-2**32-in-small-blocks"),
    ],
)
def test_trial_generators_take_numpy_seeding_states(seed, first, stop, block, monkeypatch):
    # the block derivation reproduces numpy's SeedSequence and PCG64 seeding,
    # so that algorithm is a contract these cases pin
    if block is not None:
        monkeypatch.setattr(randmodel, "_SEED_BLOCK", block)
    states = [g.bit_generator.state for g in randmodel._trial_generators(seed, first, stop)]
    assert states == [numpy_pcg64_state(seed, trial) for trial in range(first, stop)]


def test_trial_draws_pack_into_keys_below_the_solver_sentinel():
    # simulate re-checks none of this per chunk: numpy documents
    # `Generator.random` to lie in [0, 1), and its draws are multiples of
    # 2**-53, the grid `_packed_keys` packs (off it, ranking falls back to
    # the slower argsort)
    for seed in (0, 2**32, 10**30):
        for trials, n, m in ((200, 20, 20), (50, 20, 180)):  # sim-eq, sim-log
            generators = randmodel._trial_generators(seed, 0, trials)
            values = np.stack([generator.random((n, m)) for generator in generators])
            assert values.min() >= 0.0 and values.max() < 1.0
            scaled = values * 2.0**53
            assert (scaled == np.floor(scaled)).all()
    # so the keys of the widest packed rows stay below the solver's mask rank
    for utility in (0.0, 1.0 - 2.0**-53):
        keys = randmodel._packed_keys(np.full((2, PACKING_BOUND), utility))
        assert keys is not None and keys.max() <= 2**62 + 511 < WORST_RANK


def test_strict_rankings_are_uniform():
    # 60000 iid agent rows over 3 houses; each of the 6 orders within 3 sigma of 1/6
    profile = sample_strict_profile(60000, 3, seed=2025)
    counts = Counter(map(tuple, profile.ranks.tolist()))
    assert set(counts) == set(itertools.permutations((1, 2, 3)))
    expected = 60000 / 6
    tolerance = 3 * math.sqrt(60000 * (1 / 6) * (5 / 6))
    for count in counts.values():
        assert abs(count - expected) <= tolerance


def test_utilities_to_profile_sorts_by_decreasing_utility():
    profile = utilities_to_profile(UtilityMatrix(np.array([[0.9, 0.2, 0.5]])))
    assert profile.ranks.tolist() == [[1, 3, 2]]


def test_ascending_utilities_reverse_house_order():
    profile = utilities_to_profile(UtilityMatrix(np.array([[0.1, 0.2, 0.3, 0.4]])))
    assert profile.ranks.tolist() == [[4, 3, 2, 1]]


def test_utilities_to_profile_matches_per_row_sort():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, m = rng.integers(1, 12, size=2)
        values = np.round(rng.random((n, m)), 1)  # exact ties break toward the lower id
        expected = []
        for row in values:
            order = sorted(range(m), key=lambda h: (-row[h], h))
            expected.append([order.index(h) + 1 for h in range(m)])
        assert utilities_to_profile(UtilityMatrix(values)).ranks.tolist() == expected


def per_row_sort_ranks(values: np.ndarray) -> list[list[int]]:
    """Reference ranks: each row sorted by decreasing value, ties toward the lower id."""
    m = values.shape[1]
    expected = []
    for row in values:
        order = sorted(range(m), key=lambda h: (-row[h], h))
        ranks = [0] * m
        for position, house in enumerate(order, start=1):
            ranks[house] = position
        expected.append(ranks)
    return expected


PACKING_BOUND = 512  # the widest rows whose keys fit: 54 utility bits + 9 index bits


def on_grid_cases():
    # every value here is a multiple of 2**-53, so `_packed_keys` can pack it
    rng = np.random.default_rng(21)
    yield pytest.param(rng.integers(0, 9, size=(7, 13)) / 8, id="eighths")  # many ties per row
    signed = [[0.0, -0.0, 1.0, 0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, 1.0, -0.0, 1.0]]
    yield pytest.param(np.array(signed), id="signed-zeros")
    yield pytest.param(rng.integers(0, 5, size=(1, 9)) / 4, id="one-agent")
    yield pytest.param(np.array([[0.25], [1.0], [0.0]]), id="one-house")
    yield pytest.param(rng.integers(0, 65, size=(3, PACKING_BOUND)) / 64, id="at-bound")
    yield pytest.param(rng.integers(0, 65, size=(3, PACKING_BOUND + 1)) / 64, id="above-bound")
    yield pytest.param(sample_utilities(6, 40, seed=5).values, id="drawn")
    yield pytest.param(sample_utilities(4, PACKING_BOUND, seed=6).values, id="drawn-at-bound")


@pytest.mark.parametrize("values", on_grid_cases())
def test_on_grid_utilities_rank_like_a_per_row_sort(values):
    profile = utilities_to_profile(UtilityMatrix(values))
    assert profile.ranks.tolist() == per_row_sort_ranks(values)
    assert profile.ranks.dtype == np.int64 and not profile.ranks.flags.writeable
    assert (randmodel._packed_keys(values) is None) == (values.shape[1] > PACKING_BOUND)


@pytest.mark.parametrize(
    "values",
    [
        np.array([[0.5, 0.1, 0.5, 1.0]]),  # one value off the grid
        np.array([[0.5, 0.25, 0.5, 1.0]], dtype=np.float32),
        np.array([[1, 0, 1, 0]]),
    ],
)
def test_other_utilities_take_the_argsort_path(values):
    assert randmodel._packed_keys(values) is None
    assert utilities_to_profile(UtilityMatrix(values)).ranks.tolist() == per_row_sort_ranks(values)


def argsort_existence_counts(n: int, m: int, trials: int, seed: int) -> tuple[int, int]:
    """Reference for `estimate_existence_probability`: ranks from the stable argsort."""
    successes = mechanism_successes = 0
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))
        values = rng.random((n, m))
        orders = np.argsort(-values, axis=1, kind="stable")
        ranks = np.empty((n, m), dtype=np.int64)
        np.put_along_axis(ranks, orders, np.arange(1, m + 1), axis=1)
        found, _ = envy_free_assignment(PreferenceProfile(ranks))
        successes += found is not None
        mechanism_successes += threshold_mechanism(UtilityMatrix(values)) is not None
    return successes, mechanism_successes


@pytest.mark.parametrize(
    "n, m, trials",
    [
        (20, 20, 150),
        (20, 180, 60),
        (12, 600, 15),
        pytest.param(2, 3, randmodel._SEED_BLOCK + 5, id="across-a-seed-block"),
    ],
)
def test_estimate_matches_argsort_ranking(n, m, trials):
    stats = estimate_existence_probability(n, m, trials=trials, seed=13)
    assert (stats.successes, stats.mechanism_successes) == argsort_existence_counts(n, m, trials, 13)


def chunk_trials(n: int, m: int) -> int:
    return max(1, randmodel._CHUNK_CELLS // (n * m))


@pytest.mark.parametrize("n, m", [(20, 20), (20, 180)])
@pytest.mark.parametrize("past_chunk", [-1, 0, 1])
def test_estimate_matches_argsort_ranking_at_chunk_boundaries(n, m, past_chunk):
    trials = chunk_trials(n, m) + past_chunk
    stats = estimate_existence_probability(n, m, trials=trials, seed=17)
    assert (stats.successes, stats.mechanism_successes) == argsort_existence_counts(n, m, trials, 17)


@pytest.mark.parametrize(
    "n, m, trials",
    [
        pytest.param(1, 5, 60, id="one-agent"),
        pytest.param(1, 1, 3, id="one-agent-one-house"),
        pytest.param(3, PACKING_BOUND, 11, id="packed-at-bound"),  # two chunks of 10
        pytest.param(3, PACKING_BOUND + 1, 11, id="argsort-above-bound"),
    ],
)
def test_estimate_matches_argsort_ranking_on_small_and_wide_rows(n, m, trials):
    assert trials > chunk_trials(n, m) or n == 1
    stats = estimate_existence_probability(n, m, trials=trials, seed=23)
    assert (stats.successes, stats.mechanism_successes) == argsort_existence_counts(n, m, trials, 23)


@pytest.mark.parametrize("cells", [1, 40, 100])
def test_chunk_size_does_not_change_the_estimate(cells, monkeypatch):
    # chunks of 1, 2 and 5 trials at (4, 5), with a short last chunk
    expected = argsort_existence_counts(4, 5, 23, 29)
    monkeypatch.setattr(randmodel, "_CHUNK_CELLS", cells)
    stats = estimate_existence_probability(4, 5, trials=23, seed=29)
    assert (stats.successes, stats.mechanism_successes) == expected


def test_sweep_rows_match_single_house_count_runs(capsys):
    args = ["simulate", "--n", "6", "--trials", "45", "--seed", "3"]
    assert cli.main(args + ["--sweep", "6:14:4"]) == 0
    header, *swept = capsys.readouterr().out.splitlines()
    single = []
    for m in (6, 10, 14):
        assert cli.main(args + ["--m", str(m)]) == 0
        single.append(capsys.readouterr().out.splitlines()[1])
    assert swept == single
    for row, m in zip(swept, (6, 10, 14)):
        successes, mechanism_successes = argsort_existence_counts(6, m, 45, 3)
        assert row.split(",")[:5] == ["6", str(m), "45", str(successes), str(mechanism_successes)]


def key_ranked_profile(values: np.ndarray) -> PreferenceProfile:
    """The profile `estimate_existence_probability` solves: packed keys as ranks."""
    keys = randmodel._packed_keys(values)
    assert keys is not None
    return PreferenceProfile(keys)


def solve_json(profile: PreferenceProfile) -> str:
    _, trace = envy_free_assignment(profile)
    return json.dumps(result_json(trace))


@pytest.mark.parametrize("n, m", [(20, 20), (20, 180)])  # mostly none, then all found
def test_key_ranks_solve_like_dense_ranks(n, m):
    for seed in range(300):
        utilities = sample_utilities(n, m, seed=seed)
        dense = utilities_to_profile(utilities)
        assert solve_json(key_ranked_profile(utilities.values)) == solve_json(dense)


def test_key_ranks_of_tied_utilities_solve_like_dense_ranks():
    rng = np.random.default_rng(41)
    statuses = set()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        m = n + int(rng.integers(0, 3 * n))
        values = rng.integers(0, 9, size=(n, m)) / 8  # many ties per row
        dense = utilities_to_profile(UtilityMatrix(values))
        assert solve_json(key_ranked_profile(values)) == solve_json(dense)
        statuses.add(envy_free_assignment(dense)[0] is None)
    assert statuses == {False, True}


def contested_tops_verdict(values: np.ndarray) -> bool:
    """Whether an envy-free assignment exists, by the contested-tops rule.

    Each agent takes its favorite house still on offer (ties toward the
    lower id) and every house two agents take is dropped at once, until the
    favorites all differ (found) or fewer houses than agents remain (none).
    """
    n, m = values.shape
    offered = np.ones(m, dtype=bool)
    while offered.sum() >= n:
        tops = np.where(offered, values, -1.0).argmax(axis=1)
        houses, takers = np.unique(tops, return_counts=True)
        if (takers == 1).all():
            return True
        offered[houses[takers > 1]] = False
    return False


def contested_tops_cases():
    rng = np.random.default_rng(43)
    for n, m, count in ((20, 20, 300), (20, 180, 200), (10, 40, 300), (50, 300, 40)):
        for _ in range(count):
            yield rng.random((n, m))
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        yield rng.integers(0, 9, size=(n, int(rng.integers(n, 12)))) / 8  # many ties per row


def test_contested_tops_rule_decides_like_the_solver():
    # on utility rankings a trial can be decided without the solve loop
    verdicts = set()
    for values in contested_tops_cases():
        found, _ = envy_free_assignment(utilities_to_profile(UtilityMatrix(values)))
        assert contested_tops_verdict(values) == (found is not None)
        verdicts.add(found is not None)
    assert verdicts == {False, True}


def test_utility_path_matches_uniform_ranking_distribution():
    # rankings induced by uniform utilities should be uniform over all 3! orders
    profile = utilities_to_profile(sample_utilities(30000, 3, seed=77))
    counts = Counter(map(tuple, profile.ranks.tolist()))
    result = scipy_stats.chisquare(
        [counts[p] for p in itertools.permutations((1, 2, 3))]
    )
    assert result.pvalue > 1e-3


def test_utility_matrix_validation():
    with pytest.raises(ValueError):
        UtilityMatrix(np.array([[1.5, 0.2]]))
    with pytest.raises(ValueError):
        UtilityMatrix(np.array([0.5, 0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_utility_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"^utilities must lie in \[0, 1\]$"):
        UtilityMatrix(np.array([[bad, 0.5], [0.2, 0.4]]))
    with pytest.raises(ValueError, match=r"^utilities must lie in \[0, 1\]$"):
        UtilityMatrix(np.array([[0.3, 0.5], [0.2, bad]]))


def test_threshold_mechanism_assigns_unique_claimants():
    utilities = UtilityMatrix(np.array([[0.9, 0.2, 0.3], [0.1, 0.8, 0.4]]))
    assignment = threshold_mechanism(utilities)
    assert assignment.mapping() == {1: 1, 2: 2}


def test_threshold_mechanism_fails_when_no_house_qualifies():
    utilities = UtilityMatrix(np.array([[0.9, 0.1], [0.8, 0.1]]))
    assert threshold_mechanism(utilities) is None


def test_threshold_mechanism_skips_served_agents():
    # houses 1 and 2 both qualify for agent 1 only; house 3 qualifies for agent 2
    utilities = UtilityMatrix(np.array([[0.9, 0.8, 0.1], [0.2, 0.3, 0.9]]))
    assignment = threshold_mechanism(utilities)
    assert assignment.mapping() == {1: 1, 2: 3}


def test_threshold_mechanism_single_agent_takes_favorite():
    utilities = UtilityMatrix(np.array([[0.2, 0.7, 0.4]]))
    assert threshold_mechanism(utilities).mapping() == {1: 2}
    # the cutoff 1 - 1/1 = 0 lets every house qualify; a tied favorite goes to the lower id
    assert threshold_mechanism(UtilityMatrix(np.array([[0.0, 0.6, 0.6]]))).houses == (2,)
    assert threshold_mechanism(UtilityMatrix(np.array([[0.0, 0.0, 0.0]]))).houses == (1,)


def greedy_threshold_mechanism(values: np.ndarray) -> Assignment | None:
    """Reference for `threshold_mechanism`: its documented house-by-house scan."""
    n = values.shape[0]
    if n == 1:
        return Assignment((int(np.argmax(values[0])) + 1,))
    cutoff = 1.0 - 1.0 / n
    above = values >= cutoff
    claimable = np.flatnonzero(above.sum(axis=0) == 1)
    assigned: dict[int, int] = {}
    for house in claimable:
        agent = int(above[:, house].argmax())
        if agent not in assigned:
            assigned[agent] = int(house) + 1
            if len(assigned) == n:
                break
    if len(assigned) < n:
        return None
    return Assignment(tuple(assigned[i] for i in range(n)))


def seeded_mechanism_matrices():
    """600 utility matrices, n = 1..12, with contested, tied and at-cutoff values."""
    rng = np.random.default_rng(56)
    for trial in range(600):
        n = 1 + trial % 12
        m = n + int(rng.integers(0, 12 * n))
        values = rng.random((n, m))
        if trial % 3 == 0:
            values = np.round(values, 1)  # shared values: contested and tied houses
        if trial % 4 == 0:
            values[rng.random((n, m)) < 0.3] = 1.0 - 1.0 / n  # exactly at the cutoff
        yield trial, values


def test_threshold_mechanism_matches_the_greedy_scan():
    served = 0
    for trial, values in seeded_mechanism_matrices():
        n, m = values.shape
        expected = greedy_threshold_mechanism(values)
        got = threshold_mechanism(UtilityMatrix(values))
        assert got == expected, (trial, n, m)
        if got is not None:
            served += 1
            assert all(type(house) is int for house in got.houses)
    assert 100 < served < 500  # both outcomes are exercised


def chunk_mechanism_mask(values: np.ndarray) -> np.ndarray:
    """The mechanism's per-matrix success mask, as `estimate_existence_probability` takes it."""
    return randmodel._serves_everyone(randmodel._claims(values))


def test_chunk_mechanism_mask_matches_threshold_mechanism():
    by_shape: dict[tuple[int, int], list[np.ndarray]] = {}
    for trial, values in seeded_mechanism_matrices():
        served = threshold_mechanism(UtilityMatrix(values)) is not None
        assert chunk_mechanism_mask(values) == served, trial
        by_shape.setdefault(values.shape, []).append(values)
    # the same rule over a stack of matrices, one result per matrix
    stacks = [np.stack(group) for group in by_shape.values() if len(group) > 1]
    assert sum(len(stack) for stack in stacks) > 100
    for stack in stacks:
        expected = [threshold_mechanism(UtilityMatrix(values)) is not None for values in stack]
        assert chunk_mechanism_mask(stack).tolist() == expected


@pytest.mark.parametrize(
    "values, served",
    [
        pytest.param(np.zeros((3, 5)), False, id="all-below-cutoff"),
        pytest.param(np.ones((3, 5)), False, id="all-contested"),
        pytest.param(np.full((2, 4), 0.5), False, id="all-contested-at-cutoff"),
        pytest.param(np.array([[0.5, 0.4, 0.0], [0.4, 0.0, 0.5]]), True, id="at-cutoff"),
        pytest.param(np.zeros((1, 3)), True, id="one-agent"),
    ],
)
def test_chunk_mechanism_mask_edge_matrices(values, served):
    assert (threshold_mechanism(UtilityMatrix(values)) is not None) == served
    assert chunk_mechanism_mask(values) == served
    assert chunk_mechanism_mask(np.stack([values, values])).tolist() == [served, served]


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_threshold_mechanism_cutoff_is_inclusive(n):
    cutoff = 1.0 - 1.0 / n
    below = np.nextafter(cutoff, 0.0)
    values = np.full((n, n + 1), below)
    values[np.arange(n), np.arange(n) + 1] = cutoff  # agent i alone reaches house i + 2
    assert threshold_mechanism(UtilityMatrix(values)).houses == tuple(range(2, n + 2))
    values[0, 1] = below
    assert threshold_mechanism(UtilityMatrix(values)) is None


def test_threshold_mechanism_output_is_envy_free():
    completions = 0
    for seed in range(250):
        utilities = sample_utilities(3, 12, seed=seed)
        assignment = threshold_mechanism(utilities)
        if assignment is None:
            continue
        completions += 1
        assert verify_envy_free(utilities_to_profile(utilities), assignment)
    assert completions > 50  # the property must not hold vacuously


def test_house_qualification_frequency_matches_closed_form():
    # for a fixed agent among n, a house qualifies with prob (1/n)(1-1/n)^(n-1)
    n, houses = 5, 50000
    values = sample_utilities(n, houses, seed=424242).values
    cutoff = 1.0 - 1.0 / n
    above = values >= cutoff
    qualifies = above[0] & (above[1:].sum(axis=0) == 0)
    probability = (1 / n) * (1 - 1 / n) ** (n - 1)
    tolerance = 3 * math.sqrt(probability * (1 - probability) / houses)
    assert abs(qualifies.mean() - probability) <= tolerance


def test_mechanism_failure_fraction_below_union_bound():
    n, m, trials = 4, 25, 1500
    failures = sum(
        threshold_mechanism(sample_utilities(n, m, seed=seed)) is None
        for seed in range(trials)
    )
    probability = (1 / n) * (1 - 1 / n) ** (n - 1)
    bound = n * (1 - probability) ** m
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert failures / trials <= bound + 3 * sigma


def test_estimate_single_agent_always_succeeds():
    stats = estimate_existence_probability(1, 7, trials=50, seed=1)
    assert stats.success_fraction == 1.0
    assert stats.successes == stats.mechanism_successes == 50


def test_estimate_is_deterministic_and_consistent():
    first = estimate_existence_probability(4, 10, trials=120, seed=9)
    second = estimate_existence_probability(4, 10, trials=120, seed=9)
    assert first == second
    assert first.mechanism_successes <= first.successes <= first.trials


def test_estimate_success_fraction_grows_with_houses():
    trials = 400
    fractions = [
        estimate_existence_probability(4, m, trials=trials, seed=31).success_fraction
        for m in (4, 8, 16)
    ]
    for lower, upper in zip(fractions, fractions[1:]):
        sigma = math.sqrt(
            lower * (1 - lower) / trials + upper * (1 - upper) / trials
        )
        assert lower <= upper + 3 * sigma


def test_estimate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        estimate_existence_probability(2, 4, trials=0, seed=1)
    with pytest.raises(InvalidInstanceError):
        estimate_existence_probability(4, 2, trials=10, seed=1)


@pytest.mark.parametrize("n, m", [(0, 3), (0, 0), (-1, 2)])
def test_estimate_rejects_no_agents_before_drawing(n, m, monkeypatch):
    def no_draw(*key):
        raise AssertionError("drew utilities for an instance without agents")

    monkeypatch.setattr(randmodel, "_generator", no_draw)
    monkeypatch.setattr(randmodel, "_trial_generators", no_draw)
    with pytest.raises(ValueError, match=r"^need at least one agent"):
        estimate_existence_probability(n, m, trials=5, seed=1)


def test_stats_validation():
    with pytest.raises(ValueError, match="^successes must lie in 0..trials$"):
        MonteCarloStats(2, 3, 10, 11, 0, 0)
    with pytest.raises(ValueError, match="^mechanism successes cannot exceed solver successes$"):
        MonteCarloStats(2, 3, 10, 4, 5, 0)
    with pytest.raises(ValueError, match="^trials must be positive$"):
        MonteCarloStats(2, 3, 0, 0, 0, 0)


def test_stats_success_fraction_is_derived():
    stats = MonteCarloStats(2, 3, 8, 3, 1, 0)
    assert stats.success_fraction == 3 / 8
    with pytest.raises(TypeError):
        MonteCarloStats(2, 3, 10, 5, 1, 0.9, 0)
    with pytest.raises(AttributeError):
        stats.success_fraction = 0.5
