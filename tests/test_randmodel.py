import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import solve_json
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
    # the samplers draw from numpy's default generator for the seed
    rng = np.random.default_rng(7)
    orders = [rng.permutation(5) for _ in range(3)]
    assert sample_strict_profile(3, 5, seed=7).ranks.tolist() == [(np.argsort(o) + 1).tolist() for o in orders]
    assert np.array_equal(sample_utilities(3, 5, seed=7).values, np.random.default_rng(7).random((3, 5)))


@pytest.mark.parametrize("sample", [sample_strict_profile, sample_utilities])
@pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (-1, 2)])
def test_sampling_needs_an_agent_and_a_house(sample, n, m):
    with pytest.raises(ValueError, match="^need at least one agent and one house$"):
        sample(n, m, seed=1)


# each seeded entry point, as a function of its seed alone
SEEDED = [
    pytest.param(lambda seed: sample_strict_profile(3, 4, seed).ranks.tolist(), id="sample_strict_profile"),
    pytest.param(lambda seed: sample_utilities(3, 4, seed).values.tolist(), id="sample_utilities"),
    pytest.param(lambda seed: estimate_existence_probability(3, 4, 20, seed), id="estimate_existence_probability"),
]


@pytest.mark.parametrize("draw", SEEDED)
def test_seeded_entry_points_share_one_seed_rule(draw):
    # numpy integers seed as the equal Python int
    for seed in (np.int64(5), np.uint64(2**64 - 1)):
        assert draw(seed) == draw(int(seed))
    for seed in (5.0, None):  # None would draw fresh OS entropy
        with pytest.raises(TypeError):
            draw(seed)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        draw(-1)


# each sized entry point, as a function of its sizes, and sizes it accepts
SIZED = [
    pytest.param(lambda n, m: sample_strict_profile(n, m, 1).ranks.tolist(), (3, 4), id="sample_strict_profile"),
    pytest.param(lambda n, m: sample_utilities(n, m, 1).values.tolist(), (3, 4), id="sample_utilities"),
    pytest.param(
        lambda n, m, trials: estimate_existence_probability(n, m, trials, 1),
        (3, 4, 20),
        id="estimate_existence_probability",
    ),
]


@pytest.mark.parametrize("draw, sizes", SIZED)
def test_sized_entry_points_share_one_size_rule(draw, sizes):
    expected = draw(*sizes)
    for i, size in enumerate(sizes):
        given = list(sizes)
        given[i] = np.int64(size)  # a numpy integer sizes as the equal Python int
        result = draw(*given)
        assert result == expected
        if isinstance(result, MonteCarloStats):
            assert all(type(value) is int for value in dataclasses.astuple(result))
        given[i] = float(size)
        with pytest.raises(TypeError):
            draw(*given)


def test_negative_seed_rejected(monkeypatch):
    def no_states(*args):
        raise AssertionError("derived generator states for a negative seed")

    # splitting a negative seed into uint32 words would never end
    monkeypatch.setattr(randmodel, "_pcg64_states", no_states)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        estimate_existence_probability(2, 4, trials=5, seed=-1)
    # checked before the chunk buffer, which 2 * 2**61 utilities would outgrow
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        estimate_existence_probability(2, 2**61, trials=1, seed=-1)


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
        pytest.param(7, randmodel._SEED_BLOCK + 9, None, id="from-within-a-block"),
        pytest.param(2**33 - 5, 2**33 + 6, 4, id="across-2**33-from-within-a-block"),
        pytest.param(2**64 - 3, 2**64 + 2, None, id="across-2**64"),
        pytest.param(2**64 - 3, 2**64 + 2, 2, id="across-2**64-in-small-blocks"),
        pytest.param(2**96 - 2, 2**96 + 3, None, id="across-2**96"),
        pytest.param(2**96 - 2, 2**96 + 3, 2, id="across-2**96-in-small-blocks"),
    ],
)
def test_trial_generators_take_numpy_seeding_states(seed, first, stop, block, monkeypatch):
    # the block derivation reproduces numpy's SeedSequence and PCG64 seeding,
    # so that algorithm is a contract these cases pin
    if block is not None:
        monkeypatch.setattr(randmodel, "_SEED_BLOCK", block)
    states = list(randmodel._trial_states(seed, first, stop))
    assert states == [numpy_pcg64_state(seed, trial) for trial in range(first, stop)]


def test_trial_draws_pack_into_keys_below_the_solver_sentinel():
    # simulate checks none of this: numpy documents `Generator.random` to lie
    # in [0, 1), and its draws are multiples of 2**-53, the grid
    # `_step_ranks` needs (off it, keys could collide or misorder)
    generator = np.random.Generator(np.random.PCG64(0))
    for seed in (0, 2**32, 10**30):
        for trials, n, m in ((200, 20, 20), (50, 20, 180)):  # sim-eq, sim-log
            values = []
            for state in randmodel._trial_states(seed, 0, trials):
                generator.bit_generator.state = state
                values.append(generator.random((n, m)))
            values = np.stack(values)
            assert values.min() >= 0.0 and values.max() < 1.0
            scaled = values * 2.0**53
            assert (scaled == np.floor(scaled)).all()
    # so a tie-free row keys by its exact steps, in -2**53..0, a tied row by
    # dense ranks 1..m, and every key lies below the solver's mask rank
    m = 600
    steps = np.arange(m, dtype=np.int64) << 43  # k / 1024 is the step k * 2**43
    tie_free = np.stack([steps, 2**53 - steps]) * 2.0**-53
    tied = np.stack([np.zeros(m), np.full(m, 0.75), np.arange(m) // 2 / 1024])
    repeats_in_float32 = 1.0 - np.arange(m) * 2.0**-53  # distinct, but not in float32
    keys = randmodel._step_ranks(np.vstack([tie_free, tied, repeats_in_float32]))
    assert (keys[:2] == np.stack([-steps, steps - 2**53])).all()
    assert keys[:2].min() == -(2**53) and keys[:2].max() == 0
    assert (np.sort(keys[2:]) == np.arange(1, m + 1)).all()
    assert keys.max() < WORST_RANK


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


def on_grid_cases():
    # every value here is a multiple of 2**-53, the grid `_step_ranks` needs
    rng = np.random.default_rng(21)
    yield pytest.param(rng.integers(0, 9, size=(7, 13)) / 8, id="eighths")  # many ties per row
    signed = [[0.0, -0.0, 1.0, 0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, 1.0, -0.0, 1.0]]
    yield pytest.param(np.array(signed), id="signed-zeros")
    yield pytest.param(rng.integers(0, 5, size=(1, 9)) / 4, id="one-agent")
    yield pytest.param(np.array([[0.25], [1.0], [0.0]]), id="one-house")
    # neighbouring grid steps, so a utility step lost in the keys would
    # misorder them
    for m in (2, 40):
        steps = rng.integers(2**52, 2**52 + 4, size=(5, m))
        yield pytest.param(steps * 2.0**-53, id=f"adjacent-steps-{m}")
    yield pytest.param(rng.integers(0, 65, size=(3, 512)) / 64, id="512-houses")
    yield pytest.param(rng.integers(0, 65, size=(3, 513)) / 64, id="513-houses")
    yield pytest.param(sample_utilities(6, 40, seed=5).values, id="drawn")
    yield pytest.param(sample_utilities(4, 512, seed=6).values, id="drawn-512-houses")


@pytest.mark.parametrize("values", on_grid_cases())
def test_on_grid_utilities_rank_like_a_per_row_sort(values):
    profile = utilities_to_profile(UtilityMatrix(values))
    assert profile.ranks.tolist() == per_row_sort_ranks(values)
    assert profile.ranks.dtype == np.int64 and not profile.ranks.flags.writeable
    # ties kept as ties: keys that tie where the values do would show here
    keys = randmodel._step_ranks(values)
    assert scipy_stats.rankdata(keys, method="min", axis=1).tolist() == per_row_sort_ranks(values)


@pytest.mark.parametrize(
    "values",
    [
        np.array([[0.5, 0.1, 0.5, 1.0]]),  # one value off the grid
        np.array([[0.5, 0.25, 0.5, 1.0]], dtype=np.float32),
        np.array([[1, 0, 1, 0]]),
    ],
)
def test_off_grid_utilities_rank_like_a_per_row_sort(values):
    assert utilities_to_profile(UtilityMatrix(values)).ranks.tolist() == per_row_sort_ranks(values)


def trial_values(n: int, m: int, seed: int, trial: int) -> np.ndarray:
    """The utilities `estimate_existence_probability` draws for one trial."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial]))).random((n, m))


def argsort_existence_counts(n: int, m: int, trials: int, seed: int) -> tuple[int, int]:
    """Reference for `estimate_existence_probability`: ranks from the stable argsort."""
    successes = mechanism_successes = 0
    for trial in range(trials):
        values = trial_values(n, m, seed, trial)
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
        pytest.param(3, 512, 11, id="512-houses"),  # two chunks of 10
        pytest.param(3, 513, 11, id="513-houses"),
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


# the contested-tops screen runs where m - n < n // 2; found trials are
# common at these shapes, and (7, 10) lies just past the gate
@pytest.mark.parametrize("n, m", [(3, 3), (4, 5), (6, 8), (10, 14), (7, 9), (7, 10)])
def test_screen_keeps_every_found_trial(n, m):
    stats = estimate_existence_probability(n, m, trials=300, seed=31)
    assert stats.successes > 0
    assert (stats.successes, stats.mechanism_successes) == argsort_existence_counts(n, m, 300, 31)


@pytest.mark.parametrize(
    "n, m, trials",
    [
        pytest.param(20, 20, 500, id="screened"),
        pytest.param(3, 3, 200, id="screened-with-found-trials"),
        pytest.param(4, 5, 300, id="mostly-open"),
        pytest.param(20, 180, 60, id="past-the-gate"),
    ],
)
def test_screen_solves_only_the_trials_it_leaves_open(n, m, trials, monkeypatch):
    calls = profiles = ranked_rows = 0
    solve = randmodel.envy_free_assignment
    build = randmodel.PreferenceProfile
    rank = randmodel._step_ranks

    def counted(profile):
        nonlocal calls
        calls += 1
        return solve(profile)

    def counted_build(ranks):
        nonlocal profiles
        profiles += 1
        return build(ranks)

    def counted_rank(values):
        nonlocal ranked_rows
        ranked_rows += values.size // m
        return rank(values)

    monkeypatch.setattr(randmodel, "envy_free_assignment", counted)
    monkeypatch.setattr(randmodel, "PreferenceProfile", counted_build)
    monkeypatch.setattr(randmodel, "_step_ranks", counted_rank)
    stats = estimate_existence_probability(n, m, trials=trials, seed=37)
    # no trial the mechanism or the screen has already decided is ranked or built
    assert profiles == calls == open_trials(n, m, trials, seed=37)
    assert ranked_rows == n * profiles
    if m == n:
        # at m = n an assignment is envy-free exactly when all tops differ,
        # which is exactly when the screen leaves the trial open: every
        # solve finds one, and the served trials make up the other successes
        assert calls == stats.successes - stats.mechanism_successes


def open_trials(n: int, m: int, trials: int, seed: int) -> int:
    """How many trials the mechanism does not serve and that have at most ``m - n`` contested tops."""
    count = 0
    for trial in range(trials):
        values = trial_values(n, m, seed, trial)
        claimants = Counter(values.argmax(axis=1).tolist())
        screened = sum(c > 1 for c in claimants.values()) > m - n
        count += not screened and greedy_threshold_mechanism(values) is None
    return count


# a served trial counts as found without a solve: the solver must find one
# too, and the mechanism's own assignment must be envy-free
@pytest.mark.parametrize("n, m, trials", [(1, 4, 30), (4, 5, 1_000), (10, 27, 1_000), (20, 180, 100)])
def test_served_trials_have_envy_free_assignments(n, m, trials):
    served = 0
    for trial in range(trials):
        utilities = UtilityMatrix(trial_values(n, m, 41, trial))
        assignment = threshold_mechanism(utilities)
        if assignment is None:
            continue
        served += 1
        profile = utilities_to_profile(utilities)
        assert envy_free_assignment(profile)[0] is not None, trial
        assert verify_envy_free(profile, assignment), trial
    assert served == estimate_existence_probability(n, m, trials, seed=41).mechanism_successes > 0


def strict_ranks(n: int, m: int) -> np.ndarray:
    """Every strict ``(n, m)`` profile's dense ranks, stacked."""
    rows = [np.argsort(order) + 1 for order in itertools.permutations(range(m))]
    return np.array([list(profile) for profile in itertools.product(rows, repeat=n)], dtype=np.int64)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3)])
def test_screened_out_profiles_have_no_envy_free_assignment(n, m):
    ranks = strict_ranks(n, m)
    contested = randmodel._contested_tops(-ranks)  # utilities that order houses as the ranks do
    for matrix, count in zip(ranks, contested.tolist()):
        found, _ = envy_free_assignment(PreferenceProfile(matrix))
        # the screen's none is the solver's, and at m = n conversely too
        assert (found is None) == (count > m - n)
    assert 0 < (contested > m - n).sum() < len(ranks)


def exact_existence_probability(n: int, m: int) -> Fraction:
    """The chance that uniform strict rankings admit an envy-free assignment.

    Agents draw their tops one at a time; a contested top is dropped at
    once, and the order of drops does not change the verdict. So the
    verdict is the absorption of a chain on (r houses left, s agents
    settled on distinct tops), started at (m, 0): with chance (r - s)/r the
    next agent lands on a free house, (r, s + 1); otherwise on a settled
    agent's house, which is dropped while both agents wait, (r - 1, s - 1).
    s = n is found and r < n is none. ``found[s]`` is the chance of found
    from (r, s), filled for r = n, ..., m in turn and, within r, for
    s = n, ..., 0.
    """
    found = [Fraction(0)] * (n + 1)  # r = n - 1: too few houses
    for r in range(n, m + 1):
        below, found = found, [Fraction(0)] * n + [Fraction(1)]
        for s in range(n - 1, -1, -1):
            # at s = 0 the second term's chance is 0, whatever below[-1] holds
            found[s] = Fraction(r - s, r) * found[s + 1] + Fraction(s, r) * below[s - 1]
    return found[0]


def exact_mechanism_probability(n: int, m: int) -> float:
    """The chance that the threshold mechanism serves every agent on uniform draws.

    A draw is k / 2**53 for k uniform in 0..2**53 - 1, so it meets the
    cutoff ``1.0 - 1.0 / n`` (as `_claims` computes it) with chance p, a
    multiple of 2**-53 and so an exact float. Each house is claimable by a
    given agent alone with chance q = p(1 - p)**(n - 1), independently
    across houses, and every agent is served exactly when each has a
    claimable house: inclusion-exclusion over the agents left without one.
    The sum runs in floats; its terms are too few and too small to cancel.
    """
    cutoff = 1.0 - 1.0 / n
    p = (2**53 - math.ceil(cutoff * 2**53)) / 2**53
    q = p * (1 - p) ** (n - 1)
    return math.fsum((-1) ** k * math.comb(n, k) * (1 - k * q) ** m for k in range(n + 1))


@pytest.mark.parametrize(
    "n, m, expected",
    [(2, 3, Fraction(5, 6)), (2, 4, Fraction(23, 24)), (3, 4, Fraction(37, 72))],
)
def test_existence_chain_equals_enumeration(n, m, expected):
    ranks = strict_ranks(n, m)
    found = sum(envy_free_assignment(PreferenceProfile(matrix))[0] is not None for matrix in ranks)
    assert Fraction(found, len(ranks)) == exact_existence_probability(n, m) == expected


def z_score(count: int, trials: int, probability: float) -> float:
    return (count - trials * probability) / math.sqrt(trials * probability * (1 - probability))


# |z| <= 5 leaves a fixed seed's count room for chance, while a simulate
# that mis-seeds or mis-screens its trials lands far outside (|z| 27 to 62
# for the faults recorded in CHANGES.md)
@pytest.mark.parametrize(
    "n, m, trials, seed, solver_column",
    [
        pytest.param(4, 5, 20_000, 1, True, id="screened"),
        pytest.param(10, 27, 4_000, 3, True, id="mid"),
        # the solver's probability rounds to 1, so only the mechanism's varies
        pytest.param(20, 180, 2_000, 5, False, id="3nlogn"),
    ],
)
def test_estimate_counts_match_exact_probabilities(n, m, trials, seed, solver_column):
    stats = estimate_existence_probability(n, m, trials=trials, seed=seed)
    if solver_column:
        assert abs(z_score(stats.successes, trials, float(exact_existence_probability(n, m)))) <= 5
    assert abs(z_score(stats.mechanism_successes, trials, exact_mechanism_probability(n, m))) <= 5


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
    """The profile `estimate_existence_probability` solves: step keys as ranks."""
    return PreferenceProfile(randmodel._step_ranks(values))


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


def test_utility_matrix_holds_a_read_only_copy():
    values = np.array([[0.5, 0.2], [0.1, 0.9]])
    utilities = UtilityMatrix(values)
    values[0, 0] = 7.0  # a later write to the caller's array skips no check
    assert utilities.values.tolist() == [[0.5, 0.2], [0.1, 0.9]]
    assert not utilities.values.flags.writeable
    with pytest.raises(ValueError):
        utilities.values[0, 0] = 7.0


def test_utility_matrix_validation():
    with pytest.raises(ValueError):
        UtilityMatrix(np.array([[1.5, 0.2]]))
    with pytest.raises(ValueError):
        UtilityMatrix(np.array([0.5, 0.2]))


@pytest.mark.parametrize(
    "values, real",
    [
        (np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8), True),
        (np.array([[True, False, True], [False, False, True]]), True),
        (np.array([[0, 1, 0], [1, 1, 0]], dtype=np.int64), True),
        (np.array([[0.5, 0.25, 0.75], [0.0, 1.0, 0.25]], dtype=np.float32), True),
        ([[0.5, 0.25, 0.75], [1, 0, 0.5]], True),
        (np.array([[0.5, 0.25j], [0.75, 0.0]]), False),
        (np.array([[0.5, 0.25], [0.75, 0.0]], dtype=object), False),
    ],
    ids=["uint8", "bool", "int64", "float32", "list", "complex", "object"],
)
def test_utility_matrix_takes_real_array_likes(values, real):
    if not real:
        with pytest.raises(ValueError, match="^utilities must be real numbers, got dtype "):
            UtilityMatrix(values)
        return
    profile = utilities_to_profile(UtilityMatrix(values))
    # the reference sorts floats: a negated uint8 wraps and a negated bool fails
    assert profile.ranks.tolist() == per_row_sort_ranks(np.asarray(values, dtype=np.float64))


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

    monkeypatch.setattr(randmodel, "_trial_states", no_draw)
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
