"""Random preference models and Monte Carlo existence estimates.

All randomness flows through numpy's PCG64 bit generator seeded with a
SeedSequence, which numpy guarantees to be stream-stable across versions;
published statistics are therefore reproducible from the seed alone.
Per-trial generators are keyed by (master seed, trial index), so trials are
independent of execution order and safe to parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prefs import PreferenceProfile
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

    @property
    def n_agents(self) -> int:
        return self.values.shape[0]

    @property
    def n_houses(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MonteCarloStats:
    """Aggregated counts from one simulation configuration."""

    n_agents: int
    n_houses: int
    trials: int
    successes: int
    mechanism_successes: int
    success_fraction: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in 0..trials")
        if not 0 <= self.mechanism_successes <= self.successes:
            # a completed mechanism run implies an envy-free assignment exists
            raise ValueError("mechanism successes cannot exceed solver successes")


def _generator(seed: int, *key: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def sample_strict_profile(n: int, m: int, seed: int) -> PreferenceProfile:
    """Profile where each agent draws an independent uniform strict ranking."""
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one house")
    rng = _generator(seed)
    return _profile_from_orders(np.stack([rng.permutation(m) for _ in range(n)]))


def sample_utilities(n: int, m: int, seed: int) -> UtilityMatrix:
    """Utilities drawn iid uniform from [0, 1)."""
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one house")
    return UtilityMatrix(_generator(seed).random((n, m)))


# `Generator.random` returns multiples of 2**-53, so a utility u on that grid
# is the exact step u * 2**53 in 0..2**53; those 54 bits leave 9 of an int64
# key's 63 value bits for a house index below them
_INDEX_BITS = 9


def utilities_to_profile(utilities: UtilityMatrix) -> PreferenceProfile:
    """Strict ranking per agent by decreasing utility.

    Exact utility ties have probability zero under any non-atomic draw; if
    they occur anyway they break toward the lower house id.
    """
    orders = _packed_orders(utilities.values)
    if orders is None:
        orders = np.argsort(-utilities.values, axis=1, kind="stable")
    return _profile_from_orders(orders)


def _packed_orders(values: np.ndarray) -> np.ndarray | None:
    """The stable ``argsort(-values)`` orders from one int64 value sort, or None.

    Each key holds ``2**53 - u * 2**53`` above the house index, so ascending
    keys run by decreasing utility and, within a tie, by increasing index.
    None when a row is too long to pack or a value is off the 2**-53 grid.
    """
    m = values.shape[1]
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
    keys.sort(axis=1)
    keys &= (1 << index_bits) - 1
    return keys


def _profile_from_orders(orders: np.ndarray) -> PreferenceProfile:
    """Profile whose agent ``i`` prefers house ``orders[i, k] + 1`` k-th."""
    n, m = orders.shape
    ranks = np.empty((n, m), dtype=np.int64)
    ranks[np.arange(n)[:, None], orders] = np.arange(1, m + 1)
    ranks.flags.writeable = False  # handed over, not copied
    return PreferenceProfile(n, m, ranks)


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
    n, m = values.shape
    if n == 1:
        return Assignment((int(np.argmax(values[0])) + 1,))
    cutoff = 1.0 - 1.0 / n
    above = values >= cutoff
    claimable = np.flatnonzero(above.sum(axis=0) == 1)
    # each claimable house's only claimer; an agent's first entry is its
    # lowest-id house
    agents, first = np.unique(above[:, claimable].argmax(axis=0), return_index=True)
    if len(agents) < n:
        return None
    return Assignment(tuple((claimable[first] + 1).tolist()))


def estimate_existence_probability(
    n: int, m: int, trials: int, seed: int
) -> MonteCarloStats:
    """Monte Carlo estimate of how often an envy-free assignment exists.

    Each trial draws a fresh uniform utility matrix, solves the induced
    ordinal profile, and also runs the threshold mechanism on the same
    utilities; both success counts land in the returned stats. Fixed
    (n, m, trials, seed) always reproduces the same numbers.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if n < 1:
        raise ValueError("need at least one agent and one house")
    require_enough_houses(n, m)
    successes = 0
    mechanism_successes = 0
    for trial in range(trials):
        utilities = UtilityMatrix(_generator(seed, trial).random((n, m)))
        profile = utilities_to_profile(utilities)
        found, _ = envy_free_assignment(profile)
        if found is not None:
            successes += 1
        if threshold_mechanism(utilities) is not None:
            mechanism_successes += 1
    return MonteCarloStats(
        n_agents=n,
        n_houses=m,
        trials=trials,
        successes=successes,
        mechanism_successes=mechanism_successes,
        success_fraction=successes / trials,
        seed=seed,
    )
