"""Acceptance suite: one test per release criterion, each with its stated tolerance
and runtime budget. Run with `pytest tests/test_acceptance.py -v -s` to see one
PASS line per criterion.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import efhouse

from conftest import profile_from_orders, random_bipartite_graph, random_tie_profile, violator_is_subset_minimal
from efhouse.bigraph import Matching, maximum_matching, neighborhood, violator_or_matching
from efhouse.oracle import brute_force_hall_check, enumerate_ef_assignments, is_pareto_among_ef
from efhouse.prefs import PreferenceProfile, parse_profile
from efhouse.randmodel import estimate_existence_probability
from efhouse.solver import envy_free_assignment, verify_envy_free

GOLDEN_TEXT = "2 3\n1 > 2 > 3\n1 > 3 > 2\n"

# Reference for criterion 6, established by a pre-build pilot run:
# estimate_existence_probability(20, 180, trials=4000, seed=101) -> 4000/4000.
PILOT_REFERENCE = 1.0
PILOT_TRIALS = 4000


def test_criterion_1_golden_instance():
    budget = time.perf_counter()
    profile = parse_profile(GOLDEN_TEXT)
    elapsed = min(
        _timed_solve(profile) for _ in range(5)
    )
    assignment, _ = envy_free_assignment(profile)
    assert assignment.mapping() == {1: 2, 2: 3}
    all_ef = enumerate_ef_assignments(profile)
    assert [a.mapping() for a in all_ef] == [{1: 2, 2: 3}]
    assert elapsed < 1e-3, f"single solve took {elapsed * 1e6:.0f}us"
    print(f"\nCRITERION 1 PASS: unique assignment {{1: 2, 2: 3}}, solve {elapsed * 1e6:.0f}us "
          f"(total {time.perf_counter() - budget:.2f}s)")


def _timed_solve(profile):
    start = time.perf_counter()
    envy_free_assignment(profile)
    return time.perf_counter() - start


def test_criterion_2_exhaustive_oracle_equivalence():
    start = time.perf_counter()
    totals = {}
    for n, m in ((2, 3), (3, 4)):
        count = 0
        for orders in itertools.product(
            itertools.permutations(range(1, m + 1)), repeat=n
        ):
            profile = profile_from_orders(*orders)
            assignment, _ = envy_free_assignment(profile)
            all_ef = enumerate_ef_assignments(profile)
            assert (assignment is not None) == bool(all_ef)
            if assignment is not None:
                assert verify_envy_free(profile, assignment)
                assert assignment in all_ef
                assert is_pareto_among_ef(profile, assignment)
            count += 1
        totals[(n, m)] = count
    assert totals[(2, 3)] == 36
    assert totals[(3, 4)] == 13824
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nCRITERION 2 PASS: 36 + 13824 profiles, full agreement ({elapsed:.1f}s)")


def test_criterion_3_randomized_oracle_equivalence_with_ties():
    start = time.perf_counter()
    rng = random.Random(36_2024)
    checked = 0
    for n, m in ((3, 5), (4, 6)):
        for _ in range(1000):
            profile = random_tie_profile(rng, n, m)
            assignment, _ = envy_free_assignment(profile)
            all_ef = enumerate_ef_assignments(profile)
            assert (assignment is not None) == bool(all_ef)
            if assignment is not None:
                assert verify_envy_free(profile, assignment)
            checked += 1
    assert checked == 2000
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nCRITERION 3 PASS: 2000 tie profiles, 100% agreement ({elapsed:.1f}s)")


def test_criterion_4_hall_violator_certification():
    start = time.perf_counter()
    rng = random.Random(4242)
    certified = 0
    while certified < 500:
        n_left = rng.randint(1, 10)
        n_right = rng.randint(1, 10)
        graph = random_bipartite_graph(rng, n_left, n_right, rng.uniform(0.05, 0.7))
        violator = violator_or_matching(graph)
        assert isinstance(violator, Matching) == (len(maximum_matching(graph).pairs) == graph.n_left)
        if isinstance(violator, Matching):
            continue
        assert len(violator.vertices) == len(violator.neighborhood) + 1
        assert violator.neighborhood == neighborhood(graph, violator.vertices)
        assert violator_is_subset_minimal(graph, violator.vertices)
        assert violator.vertices in [
            v.vertices for v in brute_force_hall_check(graph)
        ]
        certified += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"\nCRITERION 4 PASS: 500 violators certified minimal ({elapsed:.1f}s)")


def test_criterion_5_equal_counts_make_success_rare():
    start = time.perf_counter()
    stats = estimate_existence_probability(20, 20, trials=10_000, seed=2020)
    # analytic success probability is at most 20!/20^20 ~ 2.3e-8 per trial
    assert math.factorial(20) / 20**20 < 1e-7
    assert stats.successes == 0
    assert stats.mechanism_successes == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nCRITERION 5 PASS: 0 successes in 10^4 trials at n=m=20 ({elapsed:.1f}s)")


def test_criterion_6_log_factor_makes_success_likely():
    start = time.perf_counter()
    n, trials = 20, 500
    m = math.ceil(3 * n * math.log(n))
    assert m == 180
    stats = estimate_existence_probability(n, m, trials=trials, seed=20180)

    # success fraction within 3 sigma of the pilot reference (Laplace-smoothed
    # so a pilot at the boundary still yields a usable width)
    smoothed = (PILOT_REFERENCE * PILOT_TRIALS + 1) / (PILOT_TRIALS + 2)
    sigma = math.sqrt(smoothed * (1 - smoothed) / trials)
    assert abs(stats.success_fraction - PILOT_REFERENCE) <= 3 * sigma

    # mechanism failure fraction within the closed-form union bound
    probability = (1 / n) * (1 - 1 / n) ** (n - 1)
    bound = n * (1 - probability) ** m
    bound_sigma = math.sqrt(bound * (1 - bound) / trials)
    failure = 1 - stats.mechanism_successes / trials
    assert failure <= bound + 3 * bound_sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"\nCRITERION 6 PASS: success {stats.success_fraction:.4f} vs reference "
        f"{PILOT_REFERENCE} (3 sigma {3 * sigma:.4f}); mechanism failure {failure:.3f} "
        f"<= {bound:.3f} + {3 * bound_sigma:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_7_success_fraction_monotone_in_houses():
    start = time.perf_counter()
    trials = 500
    fractions = [
        estimate_existence_probability(10, m, trials=trials, seed=710).success_fraction
        for m in (10, 20, 40, 80)
    ]
    for lower, upper in zip(fractions, fractions[1:]):
        sigma = math.sqrt(
            lower * (1 - lower) / trials + upper * (1 - upper) / trials
        )
        assert lower <= upper + 3 * sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    printable = ", ".join(f"{f:.3f}" for f in fractions)
    print(f"\nCRITERION 7 PASS: fractions [{printable}] nondecreasing ({elapsed:.1f}s)")


def test_criterion_8_repeated_runs_are_byte_identical(tmp_path):
    instance = tmp_path / "golden.txt"
    instance.write_text(GOLDEN_TEXT)
    # the runs import the efhouse this test imported, whether installed or not
    package_root = str(Path(efhouse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    solve_cmd = [sys.executable, "-m", "efhouse", "solve", str(instance), "--trace"]
    solve_runs = [
        subprocess.run(solve_cmd, capture_output=True, check=True, env=env).stdout
        for _ in range(2)
    ]
    assert solve_runs[0] == solve_runs[1]
    assert json.loads(solve_runs[0])["status"] == "found"

    simulate_cmd = [
        sys.executable, "-m", "efhouse", "simulate",
        "--n", "5", "--sweep", "5:15:5", "--trials", "200", "--seed", "88",
    ]
    simulate_runs = [
        subprocess.run(simulate_cmd, capture_output=True, check=True, env=env).stdout
        for _ in range(2)
    ]
    assert simulate_runs[0] == simulate_runs[1]
    assert len(simulate_runs[0].splitlines()) == 4  # header + three sweep rows
    print("\nCRITERION 8 PASS: solver JSON and simulate CSV byte-identical across runs")
