"""Command line front-end: solve instances, certify small ones, run simulations.

Exit codes: 0 = solved/success, 1 = proven nonexistence, 2 = usage or input
error, 3 = oracle disagreement, 141 = stdout closed before the output was
written (128 + SIGPIPE, as a shell reports a tool that SIGPIPE stops).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from . import bigraph, oracle, randmodel, solver
from .prefs import ProfileError, parse_profile

DEFAULT_SEED = 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: `main` parses every call with it.

    Building costs about ten times as much as one parse. Parsing leaves the
    parser unchanged, so every call shares it; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="efhouse",
        description="Envy-free house allocation: solver, certification oracle, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("file", help="instance file (header `n m`, then one ranking per agent)")
    p_solve.add_argument("--format", choices=["json", "text"], default="json")
    p_solve.add_argument("--trace", action="store_true", help="include the iteration trace in the output")
    p_solve.add_argument(
        "--dump-digraph",
        action="store_true",
        help="dump each iteration's alternating digraph to stderr (debugging)",
    )
    p_solve.set_defaults(func=run_solve)

    p_oracle = sub.add_parser("oracle", help="certify an instance against brute-force enumeration")
    p_oracle.add_argument("file", help="instance file; must be small enough to enumerate")
    p_oracle.set_defaults(func=run_oracle)

    p_sim = sub.add_parser("simulate", help="Monte Carlo existence estimate, CSV on stdout")
    p_sim.add_argument("--n", type=int, required=True, help="number of agents")
    p_sim.add_argument("--m", help="number of houses, or the expression `3nlogn`")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})")
    p_sim.add_argument("--sweep", help="house-count sweep `m1:m2:step`, one CSV row per value")
    p_sim.set_defaults(func=run_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SystemExit as exc:  # argparse exits after --help (0) and on a usage error (2)
        return exc.code
    except BrokenPipeError:
        # the reader left: send what is still buffered nowhere, so the flush
        # at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 141
    except (
        ProfileError,
        solver.InvalidInstanceError,
        oracle.InstanceTooLargeError,
        OSError,
        MemoryError,
    ) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def _load_profile(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so the offset is absolute
            bad = exc.object[exc.start]
            raise ProfileError(f"not UTF-8 text: byte 0x{bad:02x} at offset {exc.start}") from None
    # a byte order mark is no part of the header; stripping it after decoding
    # keeps the offsets above counted from the file's first byte
    return parse_profile(text.removeprefix("\ufeff"))


def run_solve(args: argparse.Namespace) -> int:
    profile = _load_profile(args.file)
    assignment, trace = solver.envy_free_assignment(profile)
    if args.dump_digraph:
        # the trace keeps only the removals, so replay the passes for their graphs
        for index, (rows, _) in enumerate(solver.solve_passes(profile), start=1):
            graph = bigraph.BipartiteGraph(profile.n_houses, rows)
            print(f"# iteration {index} alternating digraph", file=sys.stderr)
            print(bigraph.format_alternating_digraph(graph), file=sys.stderr)
    # nonexistence always ships its trace: the removals are the certificate
    include_trace = args.trace or assignment is None
    if args.format == "json":
        print(json.dumps(solver.result_json(trace, include_trace=include_trace)))
    else:
        _print_text_result(trace, include_trace)
    return 0 if assignment is not None else 1


def _print_text_result(trace, show_trace: bool) -> None:
    if trace.assignment is not None:
        for agent, house in trace.assignment.mapping().items():
            print(f"agent {agent} -> house {house}")
    else:
        print("no envy-free assignment exists")
    if show_trace:
        for index, (houses, violator) in enumerate(trace.passes(), start=1):
            print(f"iteration {index}: houses {{{' '.join(map(str, houses))}}}")
            if violator is None:
                print("  saturating matching found")
            else:
                agents = " ".join(map(str, sorted(violator.vertices)))
                removed = " ".join(map(str, sorted(violator.neighborhood)))
                print(f"  deficient agents {{{agents}}} force removal of houses {{{removed}}}")


def run_oracle(args: argparse.Namespace) -> int:
    profile = _load_profile(args.file)
    all_ef = oracle.enumerate_ef_assignments(profile)  # first: it holds the size guard
    assignment, _ = solver.envy_free_assignment(profile)
    print(f"solver: {'found' if assignment is not None else 'none'}")
    print(f"oracle: {len(all_ef)} envy-free assignment(s)")
    if (assignment is not None) != bool(all_ef):
        print("DISAGREEMENT: solver and enumeration differ on existence")
        return 3
    if assignment is not None:
        if assignment not in all_ef:
            print("DISAGREEMENT: solver output is not among the enumerated assignments")
            return 3
        pareto = oracle.undominated(profile, assignment, all_ef)
        print(f"pareto-among-envy-free: {'yes' if pareto else 'NO'}")
        if not pareto:
            return 3
    print("certified: solver and oracle agree")
    return 0


def _resolve_house_counts(args: argparse.Namespace) -> range:
    """The house counts to simulate, ascending; a range, so a long sweep costs no memory."""
    if args.sweep is not None and args.m is not None:
        raise ProfileError("use either --m or --sweep, not both")
    if args.sweep is not None:
        parts = args.sweep.split(":")
        if len(parts) != 3:
            raise ProfileError("--sweep expects m1:m2:step")
        try:
            first, last, step = (int(p) for p in parts)
        except ValueError:
            raise ProfileError("--sweep expects integers m1:m2:step") from None
        if first < 1 or last < first or step < 1:
            raise ProfileError("--sweep requires 1 <= m1 <= m2 and step >= 1")
        return range(first, last + 1, step)
    if args.m is None:
        raise ProfileError("one of --m or --sweep is required")
    if args.m == "3nlogn":
        m = math.ceil(3 * args.n * math.log(args.n))
    else:
        try:
            m = int(args.m)
        except ValueError:
            raise ProfileError(f"--m must be an integer or `3nlogn`, got {args.m!r}") from None
    if m < 1:
        resolved = f"; `3nlogn` gives {m} at --n {args.n}" if args.m == "3nlogn" else ""
        raise ProfileError(f"--m must be positive{resolved}")
    return range(m, m + 1)


def run_simulate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ProfileError("--n must be positive")
    if args.trials < 1:
        raise ProfileError("--trials must be positive")
    if args.seed < 0:
        raise ProfileError("--seed must be nonnegative")
    house_counts = _resolve_house_counts(args)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["n", "m", "trials", "successes", "mechanism_successes", "success_fraction", "seed"]
    for m in house_counts:
        stats = randmodel.estimate_existence_probability(args.n, m, args.trials, args.seed)
        row = [
            stats.n_agents,
            stats.n_houses,
            stats.trials,
            stats.successes,
            stats.mechanism_successes,
            f"{stats.success_fraction:.6f}",
            stats.seed,
        ]
        # the header waits for the first row, so a first run that fails prints nothing
        if m == house_counts[0]:
            writer.writerow(header)
        writer.writerow(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
