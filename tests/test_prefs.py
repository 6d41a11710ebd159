import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import tie_profiles, top_choices
from efhouse.prefs import (
    WORST_RANK,
    PreferenceProfile,
    ProfileError,
    _parse_lines,
    format_profile,
    parse_profile,
)

GOLDEN = "2 3\n1 > 2 > 3\n1 > 3 > 2"


def test_parse_strict_profile():
    profile = parse_profile(GOLDEN)
    assert profile.n_agents == 2
    assert profile.n_houses == 3
    assert profile.ranks.tolist() == [[1, 2, 3], [1, 3, 2]]


def test_parse_smallest_instance():
    profile = parse_profile("1 1\n1")
    assert profile.ranks.tolist() == [[1]]


def test_parse_ties_use_group_first_position():
    profile = parse_profile("2 3\n1 = 2 > 3\n3 > 1 = 2")
    assert profile.ranks.tolist() == [[1, 1, 3], [2, 2, 1]]


def test_parse_ignores_whitespace_and_trailing_newlines():
    profile = parse_profile("2 3\n  1>2 =3\n3 > 2>1  \n\n")
    assert profile.ranks.tolist() == [[1, 2, 2], [3, 2, 1]]


PARSE_ERRORS = [
    ("", 1, "missing `n m` header"),
    ("2", 1, "header must be two integers `n m`"),
    ("2 x", 1, "header must be two integers `n m`"),
    ("0 3\n1 > 2 > 3", 1, "agent and house counts must be positive"),
    ("2 3\n1 > 2 > 3", 3, "expected rankings for 2 agents, found only 1"),
    ("1 3\n1 > 2", 2, "house 3 missing from ranking"),
    ("1 3\n1 > 2 > 2", 2, "house 2 listed twice"),
    ("1 3\n1 > 2 > 4", 2, "house 4 out of range 1..3"),
    ("1 3\n1 > > 3", 2, "malformed ranking: empty entry"),
    ("1 3\n1 > two > 3", 2, "not a house id: 'two'"),
    ("1 2\n1 > 2\n1 > 2", 3, "unexpected extra ranking line"),
    ("1 3\n1 = = 3", 2, "malformed ranking: empty entry"),
    ("1 3\n1 > 2 = 3 =", 2, "malformed ranking: empty entry"),
    ("1 3\n1 > 2 = 2", 2, "house 2 listed twice"),
    ("1 3\n1 = 3", 2, "house 2 missing from ranking"),
    ("1 3\n3 = 0 > 1", 2, "house 0 out of range 1..3"),
    ("1 3\n1 = 2 x > 3", 2, "not a house id: '2 x'"),
    ("1 1000000000000\n1\n", 1, "1000000000000 houses cannot be listed in 18 characters"),
    ("1 12\n1 2 > 1 > 3 > 4 > 5 > 6 > 7 > 8 > 9 > 10 > 11 > 2\n", 2, "not a house id: '1 2'"),
    ("1 3\n1\t2 > 3\n", 2, "not a house id: '1\\t2'"),
    ("2 3\n1 > 2 > 3\n\n1 > 3 > 2\n", 3, "empty ranking line"),
    ("2 3\n1 > 2 > 3\n \t \n1 > 3 > 2\n", 3, "empty ranking line"),
    ("1 3\r\n1 > 2\r\n", 2, "house 3 missing from ranking"),
    ("1 3\n1 > 2 > 0004\n", 2, "house 4 out of range 1..3"),
    ("1 3\n1 > 2 > -3\n", 2, "house -3 out of range 1..3"),
    ("1 3\n1 > 2 > \u0663\u0663\n", 2, "house 33 out of range 1..3"),
]


@pytest.mark.parametrize(
    "text, line, message",
    PARSE_ERRORS,
    ids=[f"{text}-{line}" for text, line, _ in PARSE_ERRORS],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


ACCEPTED = [
    ("2 3\r\n1 > 2 > 3\r\n1 > 3 > 2\r\n", ((1, 2, 3), (1, 3, 2))),
    ("1 3\n1\t>\t2\t=\t3\n", ((1, 2, 2),)),
    ("1 3\n\t3 >1\t= 2 \t\n \n\t\n", ((2, 2, 1),)),
    ("1 3\n003 > 01 > 2\n", ((2, 3, 1),)),
    ("1 10\n007 > 1 > 2 > 3 > 4 > 5 > 6 > 8 > 9 > 10\n", ((2, 3, 4, 5, 6, 7, 1, 8, 9, 10),)),
    ("1 3\n+3 > 1 > 2\n", ((2, 3, 1),)),
    ("1 3\n\u0663 > 1 = 2\n", ((2, 2, 1),)),
    ("1 3\n\uff13 > 1 > 2\n", ((2, 3, 1),)),
]


@pytest.mark.parametrize("text, ranks", ACCEPTED, ids=[repr(text) for text, _ in ACCEPTED])
def test_parse_accepts_every_form_the_line_parser_accepts(text, ranks):
    profile = parse_profile(text)
    assert profile.ranks.tolist() == [list(row) for row in ranks]
    assert profile == _parse_lines(text)


NEEDS_A_HOUSE = "profile needs at least one agent and one house"
RAGGED = "rank rows must all have the same length"


@pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
def test_profile_needs_an_agent_and_a_house(n, m):
    for ranks in (np.ones((n, m), dtype=np.int64), [[1] * m for _ in range(n)]):
        with pytest.raises(ProfileError) as err:
            PreferenceProfile(ranks)
        assert str(err.value) == NEEDS_A_HOUSE


def test_profile_rejects_ragged_ranks():
    with pytest.raises(ProfileError) as err:
        PreferenceProfile(((1, 2), (1,)))
    assert str(err.value) == RAGGED


@pytest.mark.parametrize(
    "ranks, message",
    [
        (((1, 2), (1, 2, 3)), RAGGED),
        ([[1, 2], [1]], RAGGED),
        (np.array([1, 2, 1, 2]), "ranks must form a 2-d matrix, got shape (4,)"),
        ([1, 2], "ranks must form a 2-d matrix, got shape (2,)"),
        (np.ones((1, 2, 2), dtype=np.int64), "ranks must form a 2-d matrix, got shape (1, 2, 2)"),
        ((), NEEDS_A_HOUSE),
        (((),), NEEDS_A_HOUSE),
    ],
    ids=["tuple rows", "list row", "flat array", "flat list", "3-d array", "no rows", "empty row"],
)
def test_profile_shape_errors(ranks, message):
    with pytest.raises(ProfileError) as err:
        PreferenceProfile(ranks)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "ranks",
    [
        ((1, 1.5),),
        ((1.0, 2.0),),
        np.array([[1.0, 2.0]]),
        ((1, "2"),),
        ((True, False),),
        ((1, 2**63),),
        ((1, -(2**63) - 1),),
        ((1, 2**70),),
        ((1, WORST_RANK),),
        np.array([[1, 2**63]], dtype=np.uint64),
        np.array([[1, WORST_RANK]]),
        np.array([[1, 2**70]], dtype=object),
        np.array([[1, WORST_RANK]], dtype=object),
        ((np.int32(1), 2**70),),
        np.array([[np.int64(1), np.int64(WORST_RANK)]], dtype=object),
        np.array([[np.int64(1), True]], dtype=object),
        np.array([[np.int64(1), np.bool_(True)]], dtype=object),
    ],
)
def test_profile_rejects_ranks_that_are_not_int64_below_the_sentinel(ranks):
    with pytest.raises(ProfileError):
        PreferenceProfile(ranks)


@pytest.mark.parametrize(
    "ranks, message",
    [
        (np.array([[1, 2**70]], dtype=object), f"rank values must fit in int64, got {2**70}"),
        (((-(2**63) - 1, 1),), f"rank values must fit in int64, got {-(2**63) - 1}"),
        (np.array([[1, WORST_RANK]], dtype=object), f"rank values must lie below {WORST_RANK}"),
        (((np.int32(1), 2**70),), f"rank values must fit in int64, got {2**70}"),
    ],
)
def test_profile_names_the_rank_outside_int64(ranks, message):
    with pytest.raises(ProfileError) as err:
        PreferenceProfile(ranks)
    assert str(err.value) == message


def test_profile_accepts_negative_sparse_and_extreme_ranks():
    low = -(2**63)
    profile = PreferenceProfile(((-5, 10**12, low, WORST_RANK - 1),))
    assert profile.ranks.tolist() == [[-5, 10**12, low, WORST_RANK - 1]]
    assert profile.ranks.dtype == np.int64
    assert (profile.n_agents, profile.n_houses) == (1, 4)
    small = PreferenceProfile(np.array([[2, 1]], dtype=np.int8))
    assert small.ranks.dtype == np.int64 and small.ranks.tolist() == [[2, 1]]
    boxed = PreferenceProfile(np.array([[1, 2]], dtype=object))
    assert boxed.ranks.dtype == np.int64 and boxed.ranks.tolist() == [[1, 2]]
    boxed = PreferenceProfile(np.array([[np.int64(1), 2, np.uint64(WORST_RANK - 1)]], dtype=object))
    assert boxed.ranks.dtype == np.int64 and boxed.ranks.tolist() == [[1, 2, WORST_RANK - 1]]


def test_profile_copies_writeable_arrays_and_is_read_only():
    ranks = np.array([[1, 2], [2, 1]])
    profile = PreferenceProfile(ranks)
    ranks[0, 0] = 9
    assert profile.ranks.tolist() == [[1, 2], [2, 1]]
    assert not profile.ranks.flags.writeable
    with pytest.raises(ValueError):
        profile.ranks[0, 0] = 9
    # a read-only view of a writeable array would still follow its base
    base = np.array([[1, 2], [2, 1]])
    view = base.view()
    view.flags.writeable = False
    profile = PreferenceProfile(view)
    base[0, 0] = 9
    assert profile.ranks.tolist() == [[1, 2], [2, 1]]


def _read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize(
    "given",
    [
        [[1, 2], [2, 1]],
        np.array([[1, 2], [2, 1]]),
        _read_only(np.array([[1, 2], [2, 1]])),
        _read_only(np.array([[1, 2, 9], [2, 1, 9]])[:, :2]),
    ],
    ids=["list rows", "writeable array", "read-only array", "read-only view"],
)
def test_profile_owns_its_ranks(given):
    profile = PreferenceProfile(given)
    assert not np.shares_memory(profile.ranks, given)
    assert profile.ranks.tolist() == [[1, 2], [2, 1]]
    assert (profile.n_agents, profile.n_houses) == (2, 2)


def test_profile_equality_compares_shape_and_values():
    from_rows = PreferenceProfile(((1, 2), (2, 1)))
    from_array = PreferenceProfile(np.array([[1, 2], [2, 1]], dtype=np.int32))
    assert from_rows == from_array and hash(from_rows) == hash(from_array)
    assert len({from_rows, from_array}) == 1
    assert from_rows != PreferenceProfile(((1, 2), (1, 2)))
    assert PreferenceProfile(((1, 2, 2, 1),)) != PreferenceProfile(((1, 2), (2, 1)))
    assert from_rows != ((1, 2), (2, 1))


def test_parsed_profiles_hold_read_only_int64_arrays():
    for text in (GOLDEN, "2 3\n1 > 2 > 3\f\n1 > 3 > 2"):  # plain file, line parser
        ranks = parse_profile(text).ranks
        assert ranks.dtype == np.int64 and ranks.shape == (2, 3)
        assert not ranks.flags.writeable


# every break `str.splitlines` knows beyond the three newlines `open()` translates
NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=[repr(c) for c in NOT_NEWLINES])
def test_line_breaks_other_than_newlines_are_whitespace_in_a_ranking(char):
    profile = parse_profile(f"1 3\n1 > 2{char} > 3\n")
    assert profile.ranks.tolist() == [[1, 2, 3]]


def test_form_feed_inside_a_ranking_is_one_line():
    assert parse_profile("1 3\n1 > 2\f > 3\n").ranks.tolist() == [[1, 2, 3]]
    assert parse_profile("2 3\n1 > 2 >\f3\n3 = 1 > 2\n").ranks.tolist() == [[1, 2, 3], [1, 3, 1]]


def test_error_line_numbers_count_only_newlines():
    with pytest.raises(ProfileError) as err:
        parse_profile("2 3\n1 > 2\u2028> 3\n1 > 3 > x\n")
    assert str(err.value) == "line 3: not a house id: 'x'"
    for ending in ("\n", "\r\n", "\r"):
        with pytest.raises(ProfileError) as err:
            parse_profile(ending.join(["2 3", "1 > 2 > 3", ""]))
        assert str(err.value) == "line 3: expected rankings for 2 agents, found only 1"
    assert parse_profile("2 3\r1 > 2 > 3\r1 > 3 > 2\r").ranks.tolist() == [[1, 2, 3], [1, 3, 2]]


def test_top_choices_golden_agent_one():
    profile = parse_profile(GOLDEN)
    assert top_choices(profile, 1, {2, 3}) == {2}


def test_top_choices_singleton_forced():
    profile = parse_profile(GOLDEN)
    assert top_choices(profile, 2, {2}) == {2}


def test_top_choices_tie_at_top():
    profile = parse_profile("1 3\n1 = 2 > 3")
    assert top_choices(profile, 1, {1, 2, 3}) == {1, 2}


def test_top_choices_empty_available_rejected():
    profile = parse_profile(GOLDEN)
    with pytest.raises(ProfileError):
        top_choices(profile, 1, set())


def test_top_choices_rejects_houses_out_of_range():
    profile = parse_profile(GOLDEN)
    for house in (0, profile.n_houses + 1):
        with pytest.raises(ProfileError, match=f"^house {house} out of range 1..3$"):
            top_choices(profile, 1, {2, house})


@given(tie_profiles(), st.data())
def test_top_choices_are_tied_and_weakly_best(profile, data):
    agent = data.draw(st.integers(1, profile.n_agents))
    available = data.draw(
        st.sets(st.integers(1, profile.n_houses), min_size=1)
    )
    best = top_choices(profile, agent, available)
    assert best and best <= available
    row = profile.ranks[agent - 1].tolist()
    (rank,) = {row[house - 1] for house in best}
    assert all(rank <= row[house - 1] for house in available)


@given(tie_profiles())
def test_format_parse_round_trip(profile):
    assert parse_profile(format_profile(profile)).ranks.tolist() == profile.ranks.tolist()
