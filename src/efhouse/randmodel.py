"""Random preference models and Monte Carlo existence estimates.

All randomness flows through numpy's PCG64 bit generator seeded with a
SeedSequence, which numpy guarantees to be stream-stable across versions;
published statistics are therefore reproducible from the seed alone. Every
seeded function takes any Python or numpy integer >= 0 as its seed, through
one check (`_checked_seed`); every size (n, m, trials) goes through
`operator.index` the same way, so a float raises TypeError and a numpy
integer acts as the equal Python int. The samplers draw from
``np.random.default_rng(seed)``, which is ``PCG64(SeedSequence(seed))``.
Per-trial generators are keyed by (master seed, trial index), so trials are
independent of execution order and safe to parallelize.

Trial t's generator is ``PCG64(SeedSequence([seed, t]))``, but
`estimate_existence_probability` builds no SeedSequence: `_pcg64_states`
runs numpy's exact seeding algorithm as uint32 array operations across a
block of trial indices. A tier-1 test compares its states with numpy's.
Every draw is a multiple of 2**-53, so the trials the estimator solves
rank by the exact steps of their draws (`_step_ranks`) at any house count.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .prefs import PreferenceProfile
from .solver import Assignment, envy_free_assignment, require_enough_houses


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Cardinal utilities in [0, 1]; rows are agents, columns are houses.

    ``values`` may be any real array-like (bool, integer or float). The
    matrix copies it into a read-only array of the dtype `np.array` gives
    it, so no later write to the given object reaches the matrix or gets
    past the range check.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values)
        if values.dtype.kind not in "biuf":
            raise ValueError(f"utilities must be real numbers, got dtype {values.dtype}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("utilities must form a nonempty 2-d array")
        # written so that NaN, which fails every comparison, is rejected too
        if not (values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError("utilities must lie in [0, 1]")


@dataclass(frozen=True)
class MonteCarloStats:
    """Aggregated counts from one simulation configuration."""

    n_agents: int
    n_houses: int
    trials: int
    successes: int
    mechanism_successes: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in 0..trials")
        if not 0 <= self.mechanism_successes <= self.successes:
            # a completed mechanism run implies an envy-free assignment exists
            raise ValueError("mechanism successes cannot exceed solver successes")

    @property
    def success_fraction(self) -> float:
        """Share of trials in which an envy-free assignment exists."""
        return self.successes / self.trials


def _checked_seed(seed: int) -> int:
    """``seed`` as a Python int, for any Python or numpy integer ``>= 0``.

    `operator.index` rejects floats, None and other non-integers with
    TypeError; `np.random.default_rng` alone would take None as a request
    for fresh OS entropy.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return seed


# trials whose generator states `_trial_states` derives together; bounds
# the derivation's temporaries at a few hundred bytes per trial
_SEED_BLOCK = 1 << 10


def _trial_states(seed: int, first: int, stop: int) -> Iterator[dict]:
    """``PCG64(SeedSequence([seed, t])).state`` for t = first, ..., stop - 1, in order.

    Needs ``seed >= 0``. Each block of `_pcg64_states` ends after
    `_SEED_BLOCK` trials or at the next multiple of 2**32.
    """
    while first < stop:
        end = min(stop, first + _SEED_BLOCK, ((first >> 32) + 1) << 32)
        yield from _pcg64_states(seed, first, end)
        first = end


# numpy's SeedSequence hash and mix constants (pool of four uint32 words)
# and its PCG64 multiplier
_MASK32 = (1 << 32) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(value: int, mult: int) -> Iterator[int]:
    """``value``, then each previous constant times ``mult``, mod 2**32."""
    while True:
        yield value
        value = value * mult & _MASK32


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits ``value >= 0`` into."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _pcg64_states(seed: int, first: int, stop: int) -> list[dict]:
    """``PCG64(SeedSequence([seed, t])).state`` for t = first, ..., stop - 1.

    Needs ``seed >= 0`` and ``0 <= first < stop``, with no multiple of 2**32
    in first + 1, ..., stop - 1. Then each trial's entropy is the seed's
    words, t's low word and the words of ``t >> 32`` if nonzero, and only
    the low word differs across the block. So SeedSequence's pool mixing and
    ``generate_state`` run as uint32 array operations, each step the same
    for every trial, and PCG64's seeding finishes each state in Python ints.
    """
    low, *high = _uint32_words(first)
    trials = np.arange(low, low + stop - first, dtype=np.uint32)
    entropy = [np.full_like(trials, word) for word in _uint32_words(seed)]
    entropy += [trials, *(np.full_like(trials, word) for word in high)]
    steps = itertools.pairwise(_hash_constants(_HASH_INIT_A, _HASH_MULT_A))

    def hashmix(words):
        xor, mult = next(steps)
        words = words ^ xor
        words *= mult
        words ^= words >> 16
        return words

    def mix(x, y):
        mixed = x * _MIX_MULT_L
        mixed -= y * _MIX_MULT_R
        mixed ^= mixed >> 16
        return mixed

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(trials)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for words in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words))
    # generate_state(4, uint64): eight words cycling through the pool, read
    # as little-endian pairs (state high, state low, seq high, seq low)
    consts = list(itertools.islice(_hash_constants(_HASH_INIT_B, _HASH_MULT_B), 9))
    block = np.stack(pool * 2, axis=1)
    block ^= np.array(consts[:8], dtype=np.uint32)
    block *= np.array(consts[1:], dtype=np.uint32)
    block ^= block >> 16
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in block.astype("<u4", copy=False).view("<u8").tolist():
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc
        pcg = {"state": state & _MASK128, "inc": inc}
        states.append({"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0})
    return states


def _checked_shape(n: int, m: int) -> tuple[int, int]:
    """``(n, m)`` as Python ints, for any Python or numpy integers ``>= 1``."""
    n, m = operator.index(n), operator.index(m)
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one house")
    return n, m


def sample_strict_profile(n: int, m: int, seed: int) -> PreferenceProfile:
    """Profile where each agent draws an independent uniform strict ranking."""
    n, m = _checked_shape(n, m)
    rng = np.random.default_rng(_checked_seed(seed))
    orders = np.stack([rng.permutation(m) for _ in range(n)])
    return PreferenceProfile(_ranks_from_orders(orders))


def sample_utilities(n: int, m: int, seed: int) -> UtilityMatrix:
    """Utilities drawn iid uniform from [0, 1)."""
    n, m = _checked_shape(n, m)
    return UtilityMatrix(np.random.default_rng(_checked_seed(seed)).random((n, m)))


def utilities_to_profile(utilities: UtilityMatrix) -> PreferenceProfile:
    """Strict ranking per agent by decreasing utility.

    Exact utility ties have probability zero under any non-atomic draw; if
    they occur anyway they break toward the lower house id.
    """
    return PreferenceProfile(_dense_ranks(utilities.values))


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Dense ranks of each row of ``values`` by decreasing value, ties toward the lower index.

    Ranks the values as float64, exact for any real dtype on [0, 1]: a
    negated unsigned or bool value would wrap or fail.
    """
    floats = values.astype(np.float64, copy=False)
    return _ranks_from_orders(np.argsort(-floats, axis=1, kind="stable"))


def _step_ranks(values: np.ndarray) -> np.ndarray:
    """Rank keys for each row of ``values`` along its last axis, in `_dense_ranks`' order.

    Needs values on the 2**-53 grid in [0, 1], as `Generator.random` draws
    are. A tie-free row keys by the exact steps ``-u * 2**53`` (-2**53..0)
    of its values u; a row that repeats a value in float32, as every row
    with a tie does, takes `_dense_ranks` (1..m).
    """
    rows = values.reshape(-1, values.shape[-1])
    keys = (rows * -2.0**53).astype(np.int64)  # exact: a power-of-two scale
    floats = np.sort(rows.astype(np.float32))
    repeats = floats[:, 1:] == floats[:, :-1]
    if repeats.any():
        tied = repeats.any(axis=1)
        keys[tied] = _dense_ranks(rows[tied])
    return keys.reshape(values.shape)


def _ranks_from_orders(orders: np.ndarray) -> np.ndarray:
    """Dense ranks whose row ``i`` ranks house ``orders[i, k] + 1`` k-th."""
    rows, m = orders.shape
    ranks = np.empty((rows, m), dtype=np.int64)
    ranks[np.arange(rows)[:, None], orders] = np.arange(1, m + 1)
    return ranks


def threshold_mechanism(utilities: UtilityMatrix) -> Assignment | None:
    """Greedy one-pass assignment using the 1 - 1/n utility cutoff.

    Houses are scanned in increasing id order. A house is claimed by agent i
    when i values it at or above the cutoff and every other agent values it
    strictly below (so each house can be claimed by at most one agent),
    provided i has not been served yet. Returns the assignment only when
    every agent ends up with a house, else None.

    With a single agent the cutoff is degenerate and the agent simply takes
    a favorite house.
    """
    values = utilities.values
    if values.shape[0] == 1:
        return Assignment((int(np.argmax(values[0])) + 1,))
    claims = _claims(values)
    if not _serves_everyone(claims):
        return None
    # the scan serves each agent its lowest-id claimable house
    return Assignment(tuple((claims.argmax(axis=1) + 1).tolist()))


def _claims(values: np.ndarray) -> np.ndarray:
    """The `threshold_mechanism` claims of every ``(n, m)`` matrix in ``values``.

    Agent i may claim house h when only agent i values h at or above the
    cutoff ``1 - 1/n``; the scan serves every agent exactly when each one
    may claim some house. With one agent the cutoff is 0, so every house
    is claimable and the agent is always served.
    """
    n = values.shape[-2]
    above = values >= 1.0 - 1.0 / n
    return above & (above.sum(axis=-2, keepdims=True) == 1)


def _serves_everyone(claims: np.ndarray) -> np.ndarray:
    """Whether the mechanism serves every agent, for every ``(n, m)`` matrix of `_claims`."""
    return claims.any(axis=-1).all(axis=-1)


def _contested_tops(values: np.ndarray) -> np.ndarray:
    """How many houses two or more agents like best, in each ``(n, m)`` matrix of ``values``.

    Each agent's top is its house of highest utility, ties toward the lower
    id: the house `_dense_ranks` and `_step_ranks` rank first. A contested
    top is in no envy-free assignment: if one of its claimants gets it,
    another envies that agent, and if anyone else gets it, all of them do.
    So an envy-free assignment leaves ``m - n`` houses unused, and a trial
    with more contested tops than that has none.
    """
    tops = values.argmax(axis=-1)[..., None] == np.arange(values.shape[-1])
    return (tops.sum(axis=-2) > 1).sum(axis=-1)


# bounds the cells of one chunk of trials: its utility buffer and the
# temporaries screened, claimed and ranked from it
_CHUNK_CELLS = 1 << 14


def estimate_existence_probability(
    n: int, m: int, trials: int, seed: int
) -> MonteCarloStats:
    """Monte Carlo estimate of how often an envy-free assignment exists.

    Each trial draws a fresh uniform utility matrix and runs the threshold
    mechanism on it. A trial the mechanism serves counts as found in both
    counts, without a solve: each agent holds a house that only it values
    at or above the cutoff, so every other agent values that house below
    its own, and the run is itself an envy-free assignment. Every other
    found verdict comes from solving the induced ordinal profile. Fixed
    (n, m, trials, seed) always reproduces the same numbers.

    Trials run in chunks of up to ``_CHUNK_CELLS // (n * m)``: each trial
    draws into the chunk's buffer, and the mechanism takes one pass over the
    whole chunk. When ``m - n < n // 2``, one more pass counts each trial's
    contested tops (`_contested_tops`), and a trial with more than ``m - n``
    of them counts as having no envy-free assignment without a solve; at
    most ``n // 2`` tops can be contested, so otherwise that pass could rule
    out no trial and is skipped. Only the trials that the mechanism does not
    serve and the screen leaves open are ranked, by the exact steps of their
    draws (`_step_ranks`), and each becomes a checked `PreferenceProfile`
    solved on its own. Raises MemoryError when one trial's utilities cannot
    be held.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    n, m = _checked_shape(n, m)
    require_enough_houses(n, m)
    seed = _checked_seed(seed)
    chunk = max(1, _CHUNK_CELLS // (n * m))
    try:
        buffer = np.empty((min(chunk, trials), n, m))
    except ValueError:  # the shape outgrows numpy's size arithmetic
        raise MemoryError(f"cannot hold the utilities of {n} agents and {m} houses") from None
    generator = np.random.Generator(np.random.PCG64(0))
    states = _trial_states(seed, 0, trials)
    mechanism_successes = solved = 0
    for first in range(0, trials, chunk):
        values = buffer[: trials - first]
        for trial_values, state in zip(values, states):
            generator.bit_generator.state = state
            generator.random(out=trial_values)
        served = _serves_everyone(_claims(values))
        mechanism_successes += int(served.sum())
        undecided = ~served
        if m - n < n // 2:  # else no trial can have more than m - n contested tops
            undecided &= _contested_tops(values) <= m - n
        for matrix in _step_ranks(values[undecided]):
            found, _ = envy_free_assignment(PreferenceProfile(matrix))
            solved += found is not None
    return MonteCarloStats(
        n_agents=n,
        n_houses=m,
        trials=trials,
        successes=mechanism_successes + solved,
        mechanism_successes=mechanism_successes,
        seed=seed,
    )
