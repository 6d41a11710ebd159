"""Per-module timing from outside the program.

The tracer replaces the names each efhouse module looks up at call time
(module globals such as `efhouse.solver.top_choices`) with shims that record
a span per call, then restores them. Nothing under `src/` changes. A span's
self time is its duration minus the time of the spans it directly
contains, so the self times of all spans plus the unattributed time of the
operation itself add up to the operation's wall time.

A shim whose target name is missing, or that is never called, leaves its
layer reported as absent (zero) instead of failing the run.
"""

from __future__ import annotations

import builtins
import types
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name. Spans sharing a name share one bucket.
SHIMS = {
    ("efhouse.cli", "parse_profile"): "prefs.parse",
    ("efhouse.solver", "envy_free_assignment"): "solver.loop",
    ("efhouse.solver", "top_choices"): "prefs.top_choices",
    ("efhouse.solver", "BipartiteGraph"): "bigraph.graph_build",
    ("efhouse.solver", "maximum_matching"): "bigraph.match",
    ("efhouse.solver", "minimal_hall_violator"): "bigraph.violator",
    ("efhouse.solver", "result_json"): "solver.result_json",
    ("efhouse.randmodel", "estimate_existence_probability"): "randmodel.estimate",
    ("efhouse.randmodel", "_generator"): "randmodel.rng",
    ("efhouse.randmodel", "UtilityMatrix"): "randmodel.draw",
    ("efhouse.randmodel", "utilities_to_profile"): "randmodel.rank",
    ("efhouse.randmodel", "envy_free_assignment"): "solver.loop",
    ("efhouse.randmodel", "threshold_mechanism"): "randmodel.mechanism",
}

# self-time metric -> spans whose self time it sums; together they
# partition an operation's wall time
SELF_METRICS = {
    "randmodel.rng_s": ("randmodel.rng",),
    "randmodel.draw_s": ("randmodel.draw",),
    "randmodel.rank_s": ("randmodel.rank",),
    "randmodel.mechanism_s": ("randmodel.mechanism",),
    "randmodel.self_s": ("randmodel.estimate",),
    "prefs.parse_s": ("prefs.parse",),
    "prefs.top_choices_s": ("prefs.top_choices",),
    "bigraph.graph_build_s": ("bigraph.graph_build",),
    "bigraph.match_s": ("bigraph.match",),
    "bigraph.violator_s": ("bigraph.violator",),
    "solver.self_s": ("solver.loop",),
    "solver.result_json_s": ("solver.result_json",),
    "cli.output_s": ("cli.output",),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    """Installs the shims, accumulates spans and counts, and uninstalls."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        # totals over all operations, each scaled by its speed factor
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.hook_time = 0.0  # bookkeeping outside every span
        # times of the operation in progress
        self._self: dict[str, float] = defaultdict(float)
        self._total: dict[str, float] = defaultdict(float)
        self._hook = 0.0
        self._operations: list[tuple[dict, dict, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [start, time covered by children]
        self._installed: list[tuple[types.ModuleType, str, object]] = []
        self._previous_rows: dict[int, set[int]] = {}
        self._last_exit: tuple[str, float] = ("", 0.0)  # span name, end time

    # -- spans -----------------------------------------------------------
    def _wrap(self, name, fn, before=None, after=None, start_at=None):
        stack = self._stack

        def shim(*args, **kwargs):
            if before is not None:
                before()
            t0 = perf_counter()
            if start_at is not None:
                t0 = start_at() or t0
            frame = [t0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self._self[name] += duration - frame[1]
                self._total[name] += duration
                self.calls[name] += 1
            if after is not None:
                after(args, result)
            t2 = perf_counter()
            self._hook += t2 - t1
            if stack:
                stack[-1][1] += t2 - t0
            self._last_exit = (name, t2)
            return result

        return shim

    def begin_operation(self) -> None:
        self._stack.append([perf_counter(), 0.0])

    def end_operation(self) -> float:
        start, covered = self._stack.pop()
        duration = perf_counter() - start
        self._self["cli.main"] += duration - covered
        self._total["cli.main"] += duration
        self.calls["cli.main"] += 1
        self._operations.append((dict(self._self), dict(self._total), self._hook))
        self._self.clear()
        self._total.clear()
        self._hook = 0.0
        return duration

    def scale(self, factors: list[float]) -> None:
        """Sum the operations' times into the totals, each multiplied by its factor."""
        for (self_time, total_time, hook), factor in zip(self._operations, factors, strict=True):
            for name, value in self_time.items():
                self.self_time[name] += value * factor
            for name, value in total_time.items():
                self.total_time[name] += value * factor
            self.hook_time += hook * factor

    # -- counting hooks --------------------------------------------------
    def _solve_started(self):
        self._previous_rows = {}

    def _solve_done(self, args, result):
        assignment, trace = result
        self.counts["solves"] += 1
        self.counts["solver.iterations"] += len(trace.iterations)
        self.counts["solver.trace_house_entries"] += sum(len(r.available) for r in trace.iterations)
        self.counts["solver.found"] += assignment is not None

    def _top_choices_done(self, args, result):
        _profile, agent, available = args
        self.counts["prefs.houses_scanned"] += len(available)
        previous = self._previous_rows.get(agent)
        if previous is not None:
            self.counts["prefs.rows_compared"] += 1
            self.counts["prefs.rows_unchanged"] += previous == result
        self._previous_rows[agent] = result

    def _graph_done(self, args, result):
        self.counts["bigraph.favorite_edges"] += sum(len(row) for row in result.adj)

    def _violator_done(self, args, result):
        self.counts["bigraph.violator_agents"] += len(result.vertices)

    def _draw_start(self):
        # the draw span covers `.random(...)` on the fresh generator plus the
        # UtilityMatrix construction, so it starts where `_generator` ended
        name, end = self._last_exit
        return end if name == "randmodel.rng" else None

    def _mechanism_done(self, args, result):
        self.counts["randmodel.mechanism_found"] += result is not None

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        hooks = {
            "solver.loop": {"before": self._solve_started, "after": self._solve_done},
            "prefs.top_choices": {"after": self._top_choices_done},
            "bigraph.graph_build": {"after": self._graph_done},
            "bigraph.violator": {"after": self._violator_done},
            "randmodel.draw": {"start_at": self._draw_start},
            "randmodel.mechanism": {"after": self._mechanism_done},
        }
        for (module_name, attr), span in SHIMS.items():
            module = self.modules[module_name]
            if not hasattr(module, attr):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._set(module, attr, self._wrap(span, getattr(module, attr), **hooks.get(span, {})))
        # output: serialisation and writes that efhouse.cli performs
        cli = self.modules["efhouse.cli"]
        self._set(cli, "print", self._wrap("cli.output", builtins.print))
        if hasattr(cli, "json"):
            json_proxy = types.SimpleNamespace(**vars(cli.json))
            json_proxy.dumps = self._wrap("cli.output", cli.json.dumps)
            self._set(cli, "json", json_proxy)
        if hasattr(cli, "csv"):
            csv_proxy = types.SimpleNamespace(**vars(cli.csv))
            csv_proxy.writer = self._csv_writer(cli.csv.writer)
            self._set(cli, "csv", csv_proxy)

    def _csv_writer(self, make_writer):
        def writer(*args, **kwargs):
            inner = make_writer(*args, **kwargs)
            return types.SimpleNamespace(writerow=self._wrap("cli.output", inner.writerow))

        return writer

    def _set(self, module, attr, value) -> None:
        self._installed.append((module, attr, module.__dict__.get(attr, _ABSENT)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            if original is _ABSENT:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------
    def absent_layers(self) -> list[str]:
        """Shim targets that were missing, and spans that were never entered."""
        entered = set(self.calls)
        idle = sorted({span for span in SHIMS.values() if span not in entered})
        return self.missing + [f"{span} (never called)" for span in idle]

    def snapshot_counts(self) -> dict[str, float]:
        out = dict(self.counts)
        out["bigraph.match_calls"] = self.calls.get("bigraph.match", 0)
        out["prefs.top_choices_calls"] = self.calls.get("prefs.top_choices", 0)
        out["bigraph.violator_calls"] = self.calls.get("bigraph.violator", 0)
        return out


_ABSENT = object()


def layer_metrics(tracer: Tracer, counts: dict[str, float], units: int, count_units: int,
                  trials: int) -> dict[str, float]:
    """Per-layer metrics per unit of work (one solve or one trial).

    `units` divides the times, `count_units` the counts (counts come from a
    fixed prefix of operations so they repeat exactly for a given seed).
    `trials` is the number of simulate trials behind `counts`, 0 for solve.
    """
    out = {
        metric: sum(tracer.self_time.get(span, 0.0) for span in spans) / units
        for metric, spans in SELF_METRICS.items()
    }
    # inclusive time of the solver as called from simulate (not a self time)
    solve_from_sim = tracer.total_time.get("solver.loop", 0.0) if trials else 0.0
    out["randmodel.solve_s"] = solve_from_sim / units

    def per_unit(key):
        return counts.get(key, 0.0) / count_units

    def ratio(numerator, denominator):
        d = counts.get(denominator, 0.0)
        return counts.get(numerator, 0.0) / d if d else 0.0

    out["randmodel.solver_success_frac"] = counts.get("solver.found", 0.0) / trials if trials else 0.0
    out["randmodel.mechanism_success_frac"] = (
        counts.get("randmodel.mechanism_found", 0.0) / trials if trials else 0.0
    )
    out["prefs.top_choices_calls"] = per_unit("prefs.top_choices_calls")
    out["prefs.houses_scanned"] = per_unit("prefs.houses_scanned")
    out["prefs.rows_unchanged_frac"] = ratio("prefs.rows_unchanged", "prefs.rows_compared")
    out["bigraph.match_calls"] = per_unit("bigraph.match_calls")
    out["bigraph.favorite_edges"] = per_unit("bigraph.favorite_edges")
    out["bigraph.violator_agents_mean"] = ratio("bigraph.violator_agents", "bigraph.violator_calls")
    out["solver.iterations"] = per_unit("solver.iterations")
    out["solver.trace_house_entries"] = per_unit("solver.trace_house_entries")
    return out
