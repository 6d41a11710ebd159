"""Random preference models and Monte Carlo existence estimates.

All randomness flows through numpy's PCG64 bit generator seeded with a
SeedSequence, which numpy guarantees to be stream-stable across versions;
published statistics are therefore reproducible from the seed alone.
Per-trial generators are keyed by (master seed, trial index), so trials are
independent of execution order and safe to parallelize.

`estimate_existence_probability` derives its trials' generator states in
blocks: `_pcg64_states` runs numpy's exact SeedSequence/PCG64 seeding
algorithm as uint32 array operations across a block of trial indices.
`_generator` remains the reference (and the path for the ``sample_*``
functions and for trial indices from 2**32 on); a tier-1 test pins the two
together.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .prefs import PreferenceProfile, _stacked_profiles
from .solver import Assignment, envy_free_assignment, require_enough_houses


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Cardinal utilities in [0, 1]; rows are agents, columns are houses."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("utilities must form a nonempty 2-d array")
        # written so that NaN, which fails every comparison, is rejected too
        if not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
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


def _generator(seed: int, *key: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


# trials whose generator states `_trial_generators` derives together; bounds
# the derivation's temporaries at a few hundred bytes per trial
_SEED_BLOCK = 1 << 10


def _trial_generators(seed: int, first: int, stop: int) -> Iterator[np.random.Generator]:
    """``_generator(seed, t)`` for t = first, ..., stop - 1, in order.

    Trials below 2**32 share one generator: each trial's state is derived
    with `_pcg64_states` and loaded into it before it is yielded, so a
    yielded generator must be drawn from before the next one is requested.
    Later trials take `_generator` itself.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    derived = min(stop, 1 << 32)
    for block in range(first, derived, _SEED_BLOCK):
        for state in _pcg64_states(seed, block, min(block + _SEED_BLOCK, derived)):
            bit_generator.state = {
                "bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0
            }
            yield generator
    for trial in range(max(first, derived), stop):
        yield _generator(seed, trial)


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


def _pcg64_states(seed: int, first: int, stop: int) -> list[dict[str, int]]:
    """``PCG64(SeedSequence([seed, t])).state["state"]`` for t = first, ..., stop - 1.

    Needs ``seed >= 0`` and ``0 <= first <= stop <= 2**32``. Then every
    trial's entropy is the seed's little-endian uint32 words followed by the
    one word t, so SeedSequence's pool mixing and ``generate_state`` run as
    uint32 array operations across the block, each step the same for every
    trial. PCG64's seeding (two 128-bit LCG steps) finishes each state in
    Python ints. `_generator` is the reference the tests hold this to.
    """
    trials = np.arange(first, stop, dtype=np.uint32)
    entropy = []
    while True:
        entropy.append(np.full_like(trials, seed & _MASK32))
        seed >>= 32
        if not seed:
            break
    entropy.append(trials)
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
        states.append({"state": state & _MASK128, "inc": inc})
    return states


def sample_strict_profile(n: int, m: int, seed: int) -> PreferenceProfile:
    """Profile where each agent draws an independent uniform strict ranking."""
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one house")
    rng = _generator(seed)
    orders = np.stack([rng.permutation(m) for _ in range(n)])
    return PreferenceProfile(_ranks_from_orders(orders))


def sample_utilities(n: int, m: int, seed: int) -> UtilityMatrix:
    """Utilities drawn iid uniform from [0, 1)."""
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one house")
    return UtilityMatrix(_generator(seed).random((n, m)))


def utilities_to_profile(utilities: UtilityMatrix) -> PreferenceProfile:
    """Strict ranking per agent by decreasing utility.

    Exact utility ties have probability zero under any non-atomic draw; if
    they occur anyway they break toward the lower house id.
    """
    orders = np.argsort(-utilities.values, axis=1, kind="stable")
    return PreferenceProfile(_ranks_from_orders(orders))


# `Generator.random` returns multiples of 2**-53, so a utility u on that grid
# is the exact step u * 2**53 in 0..2**53; those 54 bits leave 9 of an int64
# key's 63 value bits for a house index below them
_INDEX_BITS = 9


def _packed_keys(values: np.ndarray) -> np.ndarray | None:
    """Rank keys for each row of ``values`` along its last axis, or None.

    Each key holds ``2**53 - u * 2**53`` above the house index, so the keys
    of a row are distinct, and ascending keys run by decreasing utility and,
    within a tie, by increasing index: the stable ``argsort(-values)``
    order. None when a row is too long to pack or a value is off the 2**-53
    grid.
    """
    m = values.shape[-1]
    index_bits = (m - 1).bit_length()
    if values.dtype != np.float64 or index_bits > _INDEX_BITS:
        return None
    scaled = values * 2.0**53  # exact: a power-of-two scale
    keys = scaled.astype(np.int64)
    if not (keys == scaled).all():
        return None
    np.subtract(1 << 53, keys, out=keys)
    keys <<= index_bits
    keys |= np.arange(m)
    return keys


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


# bounds the cells of one chunk of trials: its utility buffer and the
# temporaries ranked and claimed from it
_CHUNK_CELLS = 1 << 14


def estimate_existence_probability(
    n: int, m: int, trials: int, seed: int
) -> MonteCarloStats:
    """Monte Carlo estimate of how often an envy-free assignment exists.

    Each trial draws a fresh uniform utility matrix, solves the induced
    ordinal profile, and also runs the threshold mechanism on the same
    utilities; both success counts land in the returned stats. Fixed
    (n, m, trials, seed) always reproduces the same numbers.

    Trials run in chunks of up to ``_CHUNK_CELLS // (n * m)``: each trial
    draws into the chunk's buffer and is solved on its own, while ranking
    and the mechanism each take one pass over the whole chunk. Raises
    MemoryError when one trial's utilities cannot be held.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if n < 1:
        raise ValueError("need at least one agent and one house")
    require_enough_houses(n, m)
    generators = _trial_generators(seed, 0, trials)
    chunk = max(1, _CHUNK_CELLS // (n * m))
    try:
        buffer = np.empty((min(chunk, trials), n, m))
    except ValueError:  # the shape outgrows numpy's size arithmetic
        raise MemoryError(f"cannot hold the utilities of {n} agents and {m} houses") from None
    successes = 0
    mechanism_successes = 0
    for first in range(0, trials, chunk):
        values = buffer[: trials - first]
        for trial_values in values:
            next(generators).random(out=trial_values)
        rows = values.reshape(-1, m)  # `Generator.random` draws lie in [0, 1)
        # a trial's keys (at most 2**62 + 511, below `WORST_RANK`) order its
        # houses as dense ranks would, and the solver reads nothing but that order
        ranks = _packed_keys(rows)
        if ranks is None:
            ranks = _ranks_from_orders(np.argsort(-rows, axis=1, kind="stable"))
        for profile in _stacked_profiles(ranks.reshape(values.shape)):
            found, _ = envy_free_assignment(profile)
            successes += found is not None
        mechanism_successes += int(_serves_everyone(_claims(values)).sum())
    return MonteCarloStats(
        n_agents=n,
        n_houses=m,
        trials=trials,
        successes=successes,
        mechanism_successes=mechanism_successes,
        seed=seed,
    )
