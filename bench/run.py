"""efhouse benchmark: closed-loop runs of the `efhouse` command line, in process.

Usage, from the repository root:

    python3 bench/run.py --workload solve-none --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload sim-eq --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --smoke

One client issues one operation at a time (an `efhouse solve <file> --trace`
or an `efhouse simulate ...` call through `efhouse.cli.main`, stdout
captured), each starting when the previous one returns, in this single
process with no extra threads. Every output is checked by `checker.py`,
untimed. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it print each metric
with its unit and the machine the numbers come from.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each input
untraced and then traced (alternating the order), and reports per-layer
self times and counts from `tracer.py` plus the tracing overhead.

Operation and layer times are scaled by a speed gauge (`SpeedGauge`): a
fixed calibration kernel runs after every operation, and each time is
reported as seconds on a machine where that kernel takes CALIBRATION_S.
This removes most of the host's slow drift in speed; raw medians are
printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from checker import SimulateReference, check_solve  # noqa: E402
from gauge import CALIBRATION_S, SpeedGauge  # noqa: E402
from tracer import SELF_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, house_count, operation_seed, write_instance  # noqa: E402

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_METRICS},
    "randmodel.solve_s": "s",
    "randmodel.solver_success_frac": "ratio",
    "randmodel.mechanism_success_frac": "ratio",
    "prefs.top_choices_calls": "count",
    "prefs.houses_scanned": "count",
    "prefs.rows_unchanged_frac": "ratio",
    "bigraph.match_calls": "count",
    "bigraph.favorite_edges": "count",
    "bigraph.violator_agents_mean": "count",
    "solver.iterations": "count",
    "solver.trace_house_entries": "count",
    "cli.output_bytes": "bytes",
    "trace.op_s": "s",
    "trace.overhead_frac": "ratio",
}
# with ten samples beyond the tail percentile, this floor puts it at the 75th
# percentile or above
MIN_OPERATIONS = 40
COUNTED_OPERATIONS = 5  # traced counts come from this fixed prefix, so they repeat exactly
SETUP_REPEATS = 11
# a fresh interpreter gets ready to dispatch, then times the calibration
# kernel itself (warm, second run): start-up drifts with the speed of the
# core the child runs on, which the parent's gauge does not see
SETUP_CODE = """
from efhouse.cli import build_parser
build_parser()
import time
ready = time.perf_counter()
from gauge import calibrate
calibrate()
print(ready, calibrate())
"""


class ProgramMissing(RuntimeError):
    pass


def load_program() -> dict:
    """Import efhouse from the checkout's `src/` and return its modules by name."""
    if not (SRC / "efhouse" / "cli.py").is_file():
        raise ProgramMissing(f"no efhouse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import efhouse.cli  # noqa: F401

    names = ("efhouse.cli", "efhouse.solver", "efhouse.randmodel", "efhouse.prefs", "efhouse.bigraph")
    return {name: sys.modules[name] for name in names}


@dataclass
class Operation:
    argv: list[str]
    items: int  # trials for simulate, 1 for solve
    check: Callable[[int, str], str | None]
    cleanup: Callable[[], None] = lambda: None


class OperationSource:
    """Builds the seeded operations of one workload; the program sees only argv and files."""

    def __init__(self, workload, params: dict, seed: int, workdir: Path):
        self.workload = workload
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.reference = SimulateReference()

    def make(self, index: int) -> Operation:
        seed = operation_seed(self.seed, index)
        p = self.params
        if self.workload.kind == "simulate":
            n, trials = p["n"], p["trials"]
            m = house_count(n, p["m"])
            argv = ["simulate", "--n", str(n), "--m", p["m"], "--trials", str(trials), "--seed", str(seed)]
            return Operation(argv, trials, lambda code, out: self.reference.check(n, m, trials, seed, code, out))
        self.workdir.mkdir(parents=True, exist_ok=True)
        path, ranks = write_instance(self.workdir, p, seed)
        return Operation(
            ["solve", str(path), "--trace"], 1, lambda code, out: check_solve(ranks, code, out), path.unlink
        )


def call(main, op: Operation, tracer: Tracer | None = None) -> tuple[float, str | None, int]:
    """Run one operation; return its wall time, the failure (None if correct) and output bytes."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_operation()
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a crashed run
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            elapsed = tracer.end_operation()
    stdout = out.getvalue()
    if failure is None:
        failure = op.check(code, stdout)
    if failure is None and err.getvalue():
        failure = f"unexpected stderr: {err.getvalue()[:200]!r}"
    return elapsed, failure, len(stdout.encode("utf-8"))


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    returned and the percentile reads 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class SetupProbe:
    """Times fresh interpreters importing efhouse and building the CLI parser.

    A sample runs from the spawn to the moment the child is ready, read on
    the shared monotonic clock (`time.perf_counter` is system-wide on Linux),
    and is scaled by the calibration kernel the child times itself. Samples
    are spread over the run, so one slow spell does not decide the median.
    """

    def __init__(self, repeats: int):
        self.env = dict(os.environ)
        paths = [str(SRC), str(BENCH_DIR), self.env.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        self.repeats = repeats
        self.times: list[float] = []
        self._spawn()  # also writes bytecode caches, so it is not kept

    def _spawn(self) -> float:
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        ready, kernel = (float(x) for x in child.stdout.split())
        return (ready - start) * CALIBRATION_S / kernel

    def sample_if_due(self, progress: float) -> None:
        """Take the next sample once `progress` (the share of the run done) reaches its slot."""
        if len(self.times) < self.repeats and progress >= len(self.times) / self.repeats:
            self.times.append(self._spawn())

    def median(self) -> float:
        while len(self.times) < self.repeats:
            self.times.append(self._spawn())
        return statistics.median(self.times)


def run_workload(modules: dict, workload, params: dict, seed: int, seconds: float, traced: bool,
                 min_ops: int = MIN_OPERATIONS, setup: SetupProbe | None = None) -> dict:
    """Closed-loop measurement of one workload; returns the result and its details.

    With `setup`, its samples are taken between operations across the run.
    """
    main = modules["efhouse.cli"].main
    workdir = ROOT / ".bench_work" / str(os.getpid())
    source = OperationSource(workload, params, seed, workdir)
    failures: list[str] = []
    raw: list[float] = []
    traced_raw: list[float] = []
    items = out_bytes = 0
    counts: dict | None = None
    tracer = Tracer(modules) if traced else None
    try:
        warm = source.make(-1)
        _, failure, _ = call(main, warm)
        warm.cleanup()
        if failure:
            failures.append(f"warm-up: {failure}")
        gauge = SpeedGauge()
        ends: list[float] = []
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < seconds:
            op = source.make(index)
            order = (False,) if not traced else (False, True) if index % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.install()
                    try:
                        elapsed, failure, size = call(main, op, tracer)
                    finally:
                        tracer.uninstall()
                    traced_raw.append(elapsed)
                else:
                    elapsed, failure, size = call(main, op)
                    raw.append(elapsed)
                if failure:
                    failures.append(f"operation {index}{' (traced)' if with_trace else ''}: {failure}")
            ends.append(time.perf_counter())
            gauge.read()
            if setup is not None:
                setup.sample_if_due((time.perf_counter() - start) / seconds if seconds else 1.0)
            op.cleanup()
            items += op.items
            out_bytes += size
            index += 1
            if traced and index == COUNTED_OPERATIONS:
                counts = tracer.snapshot_counts()
                counted_items, counted_bytes = items, out_bytes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = 1 + index * (2 if traced else 1)  # the warm-up is checked too
    factors = [gauge.factor(at) for at in ends]
    plain = [t * f for t, f in zip(raw, factors)]  # every reported time is scaled
    details = {
        "operations": index,
        "items": items,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:5],
        "raw_op_p50_s": statistics.median(raw),
        "speed_factor_p50": statistics.median(factors),
    }
    if not traced:
        p_tail, percentile = tail(plain)
        metrics = {
            "op_p50_s": statistics.median(plain),
            "op_tail_s": p_tail,
            "items_per_s": items / sum(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details.update(tail_percentile=percentile, samples=len(plain))
    else:
        if counts is None:
            counts, counted_items, counted_bytes = tracer.snapshot_counts(), items, out_bytes
        per_op = params.get("trials", 1)
        trials = counted_items if workload.kind == "simulate" else 0
        units = index * per_op
        traced_times = [t * f for t, f in zip(traced_raw, factors)]
        tracer.scale(factors)
        metrics = layer_metrics(tracer, counts, units, counted_items, trials)
        metrics["cli.output_bytes"] = counted_bytes / counted_items
        metrics["trace.op_s"] = sum(traced_times) / units
        metrics["trace.overhead_frac"] = sum(traced_times) / sum(plain) - 1
        # the self times partition trace.op_s by construction (cli.self_s is the
        # remainder), so the figure that can move is the share no module claims
        unattributed = (metrics["cli.self_s"] + tracer.hook_time / units) / metrics["trace.op_s"]
        leader = max(SELF_METRICS, key=lambda name: metrics[name])
        details.update(
            absent_layers=tracer.absent_layers(),
            unattributed_frac=unattributed,
            leading_layer=leader,
            predicted_leaders=list(workload.predicted_leaders),
            leader_matches=(leader in workload.predicted_leaders) if workload.predicted_leaders else None,
        )
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics, "details": details}


def git_revision() -> str:
    """Commit of the checkout, read from `.git` without running git; `unknown` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
    }


def report(name: str, result: dict, units: dict) -> None:
    for metric, value in result["metrics"].items():
        print(f"{name}  {metric:34s} {value:.6g} {units[metric]}")
    for key, value in result["details"].items():
        print(f"{name}  {key}: {value}")


def run_smoke(modules: dict) -> int:
    """Every workload at tiny size, untraced and traced, with the checker: seconds in total."""
    ok = True
    for workload in WORKLOADS.values():
        for traced in (False, True):
            result = run_workload(modules, workload, workload.smoke, 0, 0.0, traced, min_ops=3)
            report(workload.name, result, PER_LAYER_UNITS if traced else END_TO_END_UNITS)
            ok = ok and result["failed"] == 0
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, no timing claims")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        modules = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load efhouse: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return run_smoke(modules)

    workload = WORKLOADS[args.workload]
    env = environment()
    setup = None if args.trace else SetupProbe(SETUP_REPEATS)
    result = run_workload(modules, workload, workload.params, args.seed, args.seconds, bool(args.trace),
                          setup=setup)
    if setup is not None:
        result["metrics"]["setup_s"] = setup.median()
    print(f"env {json.dumps(env)}")
    print(f"workload {workload.name}: {workload.why}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report(workload.name, result, units)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
