"""Smoke tests for the benchmark harness: tiny sizes, no timing assertions."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checker import SimulateReference, check_solve  # noqa: E402
from workloads import WORKLOADS, tiered_ranks, format_instance  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def modules():
    return run.load_program()


@pytest.fixture(scope="module")
def smoke(modules):
    """Runs `run.py --smoke` once, keeping each (workload, traced) result it prints."""
    results = {}
    measure = run.run_workload

    def recording(modules, workload, params, seed, seconds, traced, **kwargs):
        result = measure(modules, workload, params, seed, seconds, traced, **kwargs)
        results[workload.name, traced] = result
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "run_workload", recording)
        code = run.main(["--smoke"])
    return code, results


def test_smoke_mode_runs_every_workload_clean(smoke):
    code, results = smoke
    assert code == 0
    assert sorted(results) == sorted((name, traced) for name in WORKLOADS for traced in (False, True))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_reports_every_metric(smoke, name, traced):
    result = smoke[1][name, traced]
    assert result["failed"] == 0, result["details"]["failures"]
    assert result["attempted"] == 1 + 3 * (2 if traced else 1)
    expected = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    reported = list(result["metrics"]) + ([] if traced else ["setup_s"])
    assert sorted(reported) == sorted(expected)
    if traced:
        assert 0 < result["details"]["unattributed_frac"] < 1


def test_workloads_match_the_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_main_prints_the_result_line_last(modules, monkeypatch, capsys):
    workload = WORKLOADS["sim-eq"]
    monkeypatch.setitem(run.WORKLOADS, "sim-eq", dataclasses.replace(workload, params=workload.smoke))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "sim-eq", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_wrong_solve_output_counts_as_failed(modules, monkeypatch):
    solver = modules["efhouse.solver"]
    honest = solver.result_json

    def drop_a_removed_house(trace, include_trace=True):
        out = honest(trace, include_trace)
        out["trace"][0]["removed"] = out["trace"][0]["removed"][1:]
        return out

    monkeypatch.setattr(solver, "result_json", drop_a_removed_house)
    workload = WORKLOADS["solve-none"]
    result = run.run_workload(modules, workload, workload.smoke, 0, 0.0, False, min_ops=3)
    assert result["failed"] == result["attempted"] == 4


def test_wrong_simulate_counts_count_as_failed(modules, monkeypatch):
    randmodel = modules["efhouse.randmodel"]
    monkeypatch.setattr(randmodel, "envy_free_assignment", lambda profile: (None, None))
    workload = WORKLOADS["sim-log"]  # success is near certain, so zero successes is wrong
    result = run.run_workload(modules, workload, workload.smoke, 0, 0.0, False, min_ops=3)
    assert result["failed"] == result["attempted"] == 4


def test_missing_shim_target_is_reported_absent(modules, monkeypatch):
    monkeypatch.delattr(modules["efhouse.randmodel"], "threshold_mechanism")
    workload = WORKLOADS["solve-tiers"]
    result = run.run_workload(modules, workload, workload.smoke, 0, 0.0, True, min_ops=2)
    assert result["failed"] == 0
    assert "efhouse.randmodel.threshold_mechanism" in result["details"]["absent_layers"]
    assert result["metrics"]["randmodel.mechanism_s"] == 0


def _solve(modules, ranks, tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_text(format_instance(ranks))
    code = modules["efhouse.cli"].main(["solve", str(path), "--trace"])
    return code, capsys.readouterr().out


def test_checker_accepts_solver_and_rejects_corruptions(modules, tmp_path, capsys):
    import numpy as np

    none_ranks = tiered_ranks(5, 8, 1, np.random.default_rng(4))
    code, out = _solve(modules, none_ranks, tmp_path, capsys)
    assert code == 1 and check_solve(none_ranks, code, out) is None
    doc = json.loads(out)
    shrunk = json.loads(out)
    shrunk["trace"][0]["violator"]["agents"] = shrunk["trace"][0]["violator"]["agents"][:1]
    assert check_solve(none_ranks, code, json.dumps(shrunk) + "\n") is not None
    flipped = dict(doc, status="found")
    assert check_solve(none_ranks, code, json.dumps(flipped) + "\n") is not None

    found_ranks = np.array([[0, 1, 2], [2, 0, 1]])  # agent 1 likes house 1, agent 2 house 2
    code, out = _solve(modules, found_ranks, tmp_path, capsys)
    assert code == 0 and check_solve(found_ranks, code, out) is None
    swapped = json.loads(out)
    swapped["assignment"] = {"1": 2, "2": 1}
    assert check_solve(found_ranks, code, json.dumps(swapped) + "\n") is not None
    assert check_solve(found_ranks, 1, out) is not None


def test_simulate_reference_agrees_with_the_solver(modules):
    stats = modules["efhouse.randmodel"].estimate_existence_probability(5, 12, 60, 9)
    assert SimulateReference().counts(5, 12, 60, 9) == (stats.successes, stats.mechanism_successes)


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-eq", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
