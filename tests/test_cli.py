import json
import os
import subprocess
import sys

import pytest

from conftest import efhouse_command, text_result_as_json
from efhouse import cli, oracle, randmodel, solver
from efhouse.prefs import parse_profile
from efhouse.solver import Assignment, verify_envy_free

GOLDEN = "2 3\n1 > 2 > 3\n1 > 3 > 2\n"
NO_SOLUTION = "2 2\n1 > 2\n1 > 2\n"
BOM = "\ufeff".encode()


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(GOLDEN)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_round_trips_to_a_verified_assignment(golden_file, capsys):
    _, out, _ = run_cli(capsys, "solve", golden_file)
    payload = json.loads(out)
    houses = [payload["assignment"][str(a)] for a in range(1, 3)]
    assert verify_envy_free(parse_profile(GOLDEN), Assignment(tuple(houses)))


# each small instance's text and exit code, by the status it solves to
INSTANCES = {"found": (GOLDEN, 0), "none": (NO_SOLUTION, 1)}
NONE_JSON = (
    '{"status": "none", "assignment": null, "trace": [{"houses": [1, 2], "saturating": false, '
    '"violator": {"agents": [1, 2], "houses": [1]}, "removed": [1]}]}\n'
)
NONE_TEXT = (
    "no envy-free assignment exists\n"
    "iteration 1: houses {1 2}\n"
    "  deficient agents {1 2} force removal of houses {1}\n"
)
# the whole stdout of `solve`, by instance, --format and --trace;
# nonexistence prints its trace either way
SOLVE_STDOUT = {
    ("found", "json", False): '{"status": "found", "assignment": {"1": 2, "2": 3}, "trace": null}\n',
    ("found", "json", True): (
        '{"status": "found", "assignment": {"1": 2, "2": 3}, "trace": ['
        '{"houses": [1, 2, 3], "saturating": false, '
        '"violator": {"agents": [1, 2], "houses": [1]}, "removed": [1]}, '
        '{"houses": [2, 3], "saturating": true, "violator": null, "removed": []}]}\n'
    ),
    ("found", "text", False): "agent 1 -> house 2\nagent 2 -> house 3\n",
    ("found", "text", True): (
        "agent 1 -> house 2\n"
        "agent 2 -> house 3\n"
        "iteration 1: houses {1 2 3}\n"
        "  deficient agents {1 2} force removal of houses {1}\n"
        "iteration 2: houses {2 3}\n"
        "  saturating matching found\n"
    ),
    ("none", "json", False): NONE_JSON,
    ("none", "json", True): NONE_JSON,
    ("none", "text", False): NONE_TEXT,
    ("none", "text", True): NONE_TEXT,
}
DIGRAPH_DUMP = {
    "found": (
        "# iteration 1 alternating digraph\nL1 -> R1\nL2 -> R1\nR1 -> L1\n"
        "# iteration 2 alternating digraph\nL1 -> R2\nL2 -> R3\nR2 -> L1\nR3 -> L2\n"
    ),
    "none": "# iteration 1 alternating digraph\nL1 -> R1\nL2 -> R1\nR1 -> L1\n",
}


def solve_instance(tmp_path, capsys, instance, *flags):
    path = tmp_path / f"{instance}.txt"
    path.write_text(INSTANCES[instance][0])
    return run_cli(capsys, "solve", str(path), *flags)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("instance", ["found", "none"])
def test_solve_output_format(tmp_path, capsys, instance, fmt, trace):
    flags = ["--format", fmt] + ["--trace"] * trace
    expected = (INSTANCES[instance][1], SOLVE_STDOUT[instance, fmt, trace], "")
    assert solve_instance(tmp_path, capsys, instance, *flags) == expected


@pytest.mark.parametrize("instance", ["found", "none"])
def test_text_trace_reads_back_as_the_json_trace(tmp_path, capsys, instance):
    json_code, out, _ = solve_instance(tmp_path, capsys, instance, "--trace")
    text_code, text, _ = solve_instance(tmp_path, capsys, instance, "--format", "text", "--trace")
    assert text_code == json_code
    assert text_result_as_json(text) == json.loads(out)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("instance", ["found", "none"])
def test_solve_digraph_dump_goes_to_stderr(tmp_path, capsys, instance, fmt):
    # the dump leaves stdout as it is without it
    expected = (INSTANCES[instance][1], SOLVE_STDOUT[instance, fmt, False], DIGRAPH_DUMP[instance])
    assert solve_instance(tmp_path, capsys, instance, "--format", fmt, "--dump-digraph") == expected


def test_solve_exit_two_on_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 4\n1 > 2 > 3 > 4\n2 > 1 > 3 > 4\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "line 4" in err


def test_solve_exit_two_when_houses_short(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("3 2\n1 > 2\n2 > 1\n1 > 2\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "houses" in err


def test_solve_exit_two_when_header_outgrows_file(tmp_path, capsys):
    # parsing must reject the header before it allocates per-house storage
    path = tmp_path / "huge.txt"
    path.write_text("1 1000000000000\n1\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 1: 1000000000000 houses cannot be listed in 18 characters\n"


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize(
    "data, offset, byte",
    [
        (GOLDEN.encode() + b"\xff\n", len(GOLDEN), 0xFF),
        (b"2 3\n1 > 2 > 3\n1 > \xc3(3 > 2\n", 18, 0xC3),  # cut-short multibyte
        # past the first 8 KiB, so the offset cannot be relative to a read chunk
        (b"2 3\n" + b" " * 10_000 + b"\x80", 10_004, 0x80),
        # the offset counts the byte order mark's three bytes too
        (BOM + GOLDEN.encode() + b"\xff\n", 3 + len(GOLDEN), 0xFF),
    ],
)
def test_non_utf8_file_exits_two_naming_the_byte(tmp_path, capsys, command, data, offset, byte):
    path = tmp_path / "latin.txt"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: not UTF-8 text: byte 0x{byte:02x} at offset {offset}\n"


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["solve", "--format", "text", "--trace"], ["solve", "--dump-digraph"], ["oracle"]],
    ids=["json", "text", "digraph", "oracle"],
)
@pytest.mark.parametrize("text", [GOLDEN, NO_SOLUTION], ids=["found", "none"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, argv, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    expected = run_cli(capsys, *argv, str(plain))
    assert expected[0] in (0, 1)
    assert run_cli(capsys, *argv, str(marked)) == expected


def test_main_reuses_one_parser_and_matches_fresh_calls(golden_file, capsys):
    calls = [
        ["solve", golden_file, "--trace"],
        ["solve", golden_file, "--format", "xml"],  # argparse usage error
        ["simulate", "--n", "3", "--m", "5", "--trials", "40", "--seed", "4"],
        ["oracle", golden_file],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert cli.build_parser() is parser


def test_usage_errors_return_two_and_help_returns_zero(golden_file, capsys):
    code, out, err = run_cli(capsys, "solve", golden_file, "--format", "xml")
    assert (code, out) == (2, "")
    assert "invalid choice: 'xml'" in err
    code, out, _ = run_cli(capsys, "simulate", "--help")
    assert code == 0 and out.startswith("usage: efhouse simulate")


def test_solve_exit_two_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/instance.txt")
    assert code == 2
    assert "error:" in err


def test_oracle_certifies_golden(golden_file, capsys):
    code, out, _ = run_cli(capsys, "oracle", golden_file)
    assert code == 0
    assert "certified: solver and oracle agree" in out
    assert "pareto-among-envy-free: yes" in out


def test_oracle_certifies_nonexistence(tmp_path, capsys):
    path = tmp_path / "none.txt"
    path.write_text(NO_SOLUTION)
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert "solver: none" in out


def test_oracle_enumerates_once(golden_file, capsys, monkeypatch):
    calls = []
    enumerate_ef_assignments = oracle.enumerate_ef_assignments

    def counted(profile):
        calls.append(profile)
        return enumerate_ef_assignments(profile)

    monkeypatch.setattr(oracle, "enumerate_ef_assignments", counted)
    code, out, _ = run_cli(capsys, "oracle", golden_file)
    assert code == 0 and "pareto-among-envy-free: yes" in out
    assert len(calls) == 1


def test_oracle_flags_disagreement(golden_file, capsys, monkeypatch):
    def broken(profile):
        return None, solver.SolveTrace(profile.n_houses, (), None)

    monkeypatch.setattr(solver, "envy_free_assignment", broken)
    code, out, _ = run_cli(capsys, "oracle", golden_file)
    assert code == 3
    assert out.splitlines()[-1] == "DISAGREEMENT: solver and enumeration differ on existence"


@pytest.mark.parametrize("n, m", [(11, 11), (60, 120)])
def test_oracle_checks_its_size_guard_before_solving(n, m, tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.txt"
    path.write_text(f"{n} {m}\n" + "".join(" > ".join(map(str, range(1, m + 1))) + "\n" for _ in range(n)))
    solves = []
    monkeypatch.setattr(solver, "envy_free_assignment", lambda profile: solves.append(profile))
    code, out, err = run_cli(capsys, "oracle", str(path))
    assert (code, out, solves) == (2, "", [])
    assert err == f"error: {n} agents and {m} houses exceed the guard of 10000000 candidate assignments\n"


@pytest.mark.parametrize(
    "text, found, verdict",
    [
        (GOLDEN, Assignment((1, 2)), "DISAGREEMENT: solver output is not among the enumerated assignments"),
        # envy-free, but agent 1 prefers house 1, which nobody holds
        ("1 2\n1 > 2\n", Assignment((2,)), "pareto-among-envy-free: NO"),
    ],
    ids=["not enumerated", "dominated"],
)
def test_oracle_flags_a_wrong_assignment(text, found, verdict, tmp_path, capsys, monkeypatch):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    monkeypatch.setattr(solver, "envy_free_assignment", lambda profile: (found, None))
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 3
    assert out.splitlines()[-1] == verdict


def test_simulate_expands_logarithmic_house_count(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "20", "--m", "3nlogn", "--trials", "3", "--seed", "5"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,m,trials,successes,mechanism_successes,success_fraction,seed"
    fields = row.split(",")
    assert fields[0] == "20"
    assert fields[1] == "180"
    assert fields[6] == "5"


def test_simulate_names_3nlogn_when_it_gives_no_houses(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "1", "--m", "3nlogn", "--trials", "5")
    assert (code, out) == (2, "")
    assert err == "error: --m must be positive; `3nlogn` gives 0 at --n 1\n"


def test_simulate_sweep_emits_one_row_per_house_count(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "3", "--sweep", "3:9:3", "--trials", "20", "--seed", "2"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["3", "6", "9"]


@pytest.mark.parametrize(
    "message, shown",
    [(None, "out of memory"), ("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB")],
)
def test_simulate_out_of_memory_exits_two_before_any_output(message, shown, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError() if message is None else MemoryError(message)

    monkeypatch.setattr(randmodel, "estimate_existence_probability", exhausted)
    code, out, err = run_cli(capsys, "simulate", "--n", "1000000", "--m", "1000000", "--trials", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {shown}\n"


def test_sweep_out_of_memory_keeps_the_rows_already_printed(capsys, monkeypatch):
    honest = randmodel.estimate_existence_probability

    def exhausted_above_four(n, m, trials, seed):
        if m > 4:
            raise MemoryError
        return honest(n, m, trials, seed)

    monkeypatch.setattr(randmodel, "estimate_existence_probability", exhausted_above_four)
    code, out, err = run_cli(capsys, "simulate", "--n", "2", "--sweep", "3:6:1", "--trials", "5")
    assert code == 2 and err == "error: out of memory\n"
    assert [row.split(",")[1] for row in out.splitlines()] == ["m", "3", "4"]


def test_sweep_house_counts_are_a_range():
    args = cli.build_parser().parse_args(["simulate", "--n", "3", "--sweep", "3:9:3", "--trials", "1"])
    counts = cli._resolve_house_counts(args)
    assert isinstance(counts, range)
    assert list(counts) == [3, 6, 9]


def test_simulate_deterministic_output(capsys):
    args = ["simulate", "--n", "4", "--m", "8", "--trials", "30", "--seed", "17"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "3", "--m", "5", "--trials", "0"],
        ["simulate", "--n", "0", "--m", "5", "--trials", "5"],
        ["simulate", "--n", "3", "--m", "bogus", "--trials", "5"],
        ["simulate", "--n", "3", "--m", "2", "--trials", "5"],  # fewer houses than agents
        ["simulate", "--n", "3", "--trials", "5"],  # no house count at all
        ["simulate", "--n", "3", "--m", "5", "--sweep", "1:2:1", "--trials", "5"],
        ["simulate", "--n", "3", "--sweep", "9:3:1", "--trials", "5"],
        ["simulate", "--n", "3", "--m", "5", "--trials", "5", "--seed", "-4"],
        ["simulate", "--n", "1", "--m", "3nlogn", "--trials", "5"],  # expands to m = 0
        ["simulate", "--n", "5", "--sweep", "3:8:1", "--trials", "5"],  # m = 3, 4 too few
        # rejected on its first house count, before the sweep is expanded
        ["simulate", "--n", "2", "--sweep", "1:1000000000000:1", "--trials", "1"],
        # shapes that overflow numpy's size arithmetic before anything is allocated
        ["simulate", "--n", "2", "--m", "2305843009213693952", "--trials", "1"],
        ["simulate", "--n", "10000000000000000000", "--m", "10000000000000000000", "--trials", "1"],
        ["simulate", "--n", "10000000000", "--m", "3nlogn", "--trials", "1"],
        # an empty value is a value given, not an absent flag
        ["simulate", "--n", "3", "--m", "", "--sweep", "3:4:1", "--trials", "5"],
        ["simulate", "--n", "3", "--m", "4", "--sweep", "", "--trials", "5"],
        ["simulate", "--n", "3", "--m", "", "--trials", "5"],
        ["simulate", "--n", "3", "--sweep", "", "--trials", "5"],
    ],
)
def test_simulate_rejects_bad_parameters(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3", "--sweep", "1:2"], "error: --sweep expects m1:m2:step\n"),
        (["--n", "3", "--sweep", "a:b:c"], "error: --sweep expects integers m1:m2:step\n"),
        (
            ["--n", "10000000000", "--m", "3nlogn"],
            "error: cannot hold the utilities of 10000000000 agents and 690775527899 houses\n",
        ),
        # 2.4e17 bytes: under numpy's 2**63 size limit, so numpy tries the allocation,
        # and past any 57-bit address space, so it is refused without touching memory
        (
            ["--n", "3", "--m", "10000000000000000"],
            "error: cannot hold the utilities of 3 agents and 10000000000000000 houses\n",
        ),
        (["--n", "3", "--sweep", ""], "error: --sweep expects m1:m2:step\n"),
        (["--n", "3", "--m", ""], "error: --m must be an integer or `3nlogn`, got ''\n"),
        (["--n", "3", "--m", "", "--sweep", "3:4:1"], "error: use either --m or --sweep, not both\n"),
        (["--n", "3", "--m", "4", "--sweep", ""], "error: use either --m or --sweep, not both\n"),
    ],
)
def test_simulate_error_names_the_fault(argv, message, capsys):
    assert run_cli(capsys, "simulate", *argv, "--trials", "1") == (2, "", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3", "--m", "2"], "error: 3 agents need at least 3 houses, instance has 2\n"),
        (["--n", "5", "--sweep", "3:8:1"], "error: 5 agents need at least 5 houses, instance has 3\n"),
    ],
)
def test_simulate_names_too_few_houses(argv, message, capsys):
    assert run_cli(capsys, "simulate", *argv, "--trials", "5") == (2, "", message)


def test_closed_stdout_exits_141_without_an_error_line():
    # the reader leaves after the first line while the sweep is still writing
    argv, env = efhouse_command("simulate", "--n", "2", "--sweep", "2:50000:1", "--trials", "1")
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline() == b"n,m,trials,successes,mechanism_successes,success_fraction,seed\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_exit_leaves_no_open_descriptor(monkeypatch):
    def main_without_a_reader():
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            try:
                return cli.main(["simulate", "--n", "2", "--m", "3", "--trials", "5"])
            finally:
                monkeypatch.undo()

    before = len(os.listdir("/proc/self/fd"))
    codes = [main_without_a_reader() for _ in range(3)]
    assert (codes, len(os.listdir("/proc/self/fd"))) == ([141] * 3, before)


def test_stdout_without_a_reader_exits_141(golden_file):
    # output this short is only flushed as the run ends
    argv, env = efhouse_command("solve", golden_file, "--format", "text", "--trace")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_both_entry_points_print_the_same_solve(golden_file):
    runs = []
    for module in ("efhouse", "efhouse.cli"):
        argv, env = efhouse_command("solve", golden_file, "--format", "text", "--trace", module=module)
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        runs.append((proc.returncode, proc.stdout.decode(), proc.stderr))
    assert runs == [(0, SOLVE_STDOUT["found", "text", True], b"")] * 2
