"""CLI: subcommands, exit codes, output formats."""
import contextlib
import gc
import io
import json
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekit.cli import main
from gatekit.dsl import parse

BELL_DOC = "qubits 2\nclbits 2\nh 0\ncnot 0 1\nmeasure 0 -> 0\nmeasure 1 -> 1\n"
LATIN1_DOC = "# caf\u00e9\n".encode("latin-1") + BELL_DOC.encode()
BELL_QUIL = "DECLARE ro BIT[2]\nH 0\nCNOT 0 1\nMEASURE 0 ro[0]\nMEASURE 1 ro[1]\n"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_DOC)
    return str(path)


@pytest.fixture
def nomeasure_file(tmp_path):
    path = tmp_path / "nomeasure.qc"
    path.write_text("qubits 1\nclbits 0\nh 0\n")
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 2\nclbits 2\nwibble 0\n")
    return str(path)


class TestExitCodes:
    def test_contract_table(self, bell_file, nomeasure_file, bad_file, capsys):
        cases = [
            (["translate", bell_file, "--to", "pyquil"], 0),
            (["print", bell_file], 0),
            (["simulate", bell_file, "--shots", "10"], 0),
            (["demo", "bell"], 0),
            (["factor15", "--shots", "10"], 0),
            (["translate", bell_file, "--to", "nosuch"], 1),  # usage: bad dialect
            (["demo", "grover"], 1),                          # usage: bad demo
            (["nosuchcommand"], 1),                           # usage: bad subcommand
            (["translate", bell_file], 1),                    # usage: missing --to
            (["translate", bad_file, "--to", "qiskit"], 2),   # parse error
            (["print", bad_file], 2),
            (["simulate", bad_file], 2),
            (["simulate", "/no/such/file.qc"], 2),
            (["simulate", nomeasure_file], 3),                # validation
            (["simulate", bell_file, "--shots", "0"], 3),
            # past 2^32 shots: refused at once instead of running without end
            (["simulate", bell_file, "--shots", "99999999999999999999"], 3),
            (["factor15", "--shots", "99999999999999999999"], 3),
        ]
        for argv, expected in cases:
            assert main(argv) == expected, f"{argv} should exit {expected}"
            assert "Traceback" not in "".join(capsys.readouterr()), argv

    def test_reused_parser_repeats_itself(self, capsys):
        # main builds its parser once per process; a failed parse must leave
        # nothing behind for the next call
        calls = [
            ["demo", "bell", "--nosuchflag"],
            ["demo", "bell"],
            ["factor15", "--shots", "50", "--seed", "3"],
        ]
        first = {}
        for argv in calls + calls[::-1] + calls:
            code = main(argv)
            out = capsys.readouterr()
            first.setdefault(tuple(argv), (code, out.out, out.err))
            assert (code, out.out, out.err) == first[tuple(argv)], argv
        assert [first[tuple(argv)][0] for argv in calls] == [1, 0, 0]

    def test_diagnostics_go_to_stderr(self, bad_file, nomeasure_file, capsys):
        main(["simulate", bad_file])
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 3" in out.err
        main(["simulate", nomeasure_file])
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err != ""


class TestTranslate:
    def test_bell_to_pyquil(self, bell_file, capsys):
        assert main(["translate", bell_file, "--to", "pyquil"]) == 0
        assert capsys.readouterr().out == BELL_QUIL

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(BELL_DOC))
        assert main(["translate", "-", "--to", "qiskit"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("from qiskit import QuantumCircuit")
        assert "qc.cx(0, 1)" in out


class TestReadInput:
    def test_circuit_file_is_closed(self, bell_file, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["print", bell_file]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.qc"
        path.write_bytes(LATIN1_DOC)
        assert main(["print", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("gatekit: cannot read input: ")

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(LATIN1_DOC), encoding="utf-8"))
        assert main(["print", "-"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("gatekit: cannot read input: ")


class TestPrint:
    def test_bell_diagram(self, bell_file, capsys):
        assert main(["print", bell_file]) == 0
        assert capsys.readouterr().out == "q0: -H-*-M0-\nq1: ---+-M1-\n"


class TestSimulate:
    def test_counts_format(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--shots", "1000", "--seed", "7",
                     "--format", "counts"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        keys = [ln.split()[0] for ln in lines]
        assert keys == sorted(keys) == ["00", "11"]
        assert sum(int(ln.split()[1]) for ln in lines) == 1000

    def test_single_shot(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--shots", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].split()[1] == "1"

    def test_json_format(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--shots", "100", "--seed", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shots"] == 100
        assert payload["seed"] == 3
        assert sum(payload["counts"].values()) == 100
        assert list(payload["counts"]) == sorted(payload["counts"])

    def test_hist_format(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--shots", "200", "--format", "hist"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all("#" in ln for ln in lines)
        longest = max(ln.count("#") for ln in lines)
        assert longest == 50
        for ln in lines:
            key, bar, count = ln.split()
            assert set(bar) == {"#"}
            assert int(count) > 0

    def test_deterministic_across_runs(self, bell_file, capsys):
        main(["simulate", bell_file, "--seed", "11"])
        first = capsys.readouterr().out
        main(["simulate", bell_file, "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_random_flag_prints_seed_to_stderr(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--shots", "5", "--random"]) == 0
        out = capsys.readouterr()
        assert out.err.startswith("seed: ")


class TestDemo:
    def test_bell_document(self, capsys):
        assert main(["demo", "bell"]) == 0
        assert capsys.readouterr().out == BELL_DOC

    def test_demo_outputs_reparse(self, capsys):
        from gatekit.algos import build_bell, build_shor15

        for name, builder in (("bell", build_bell), ("shor15", build_shor15)):
            assert main(["demo", name]) == 0
            assert parse(capsys.readouterr().out) == builder()

    def test_shor15_line_count(self, capsys):
        assert main(["demo", "shor15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 33


class TestFactor15:
    def test_report_shape(self, capsys):
        assert main(["factor15", "--shots", "1000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "measured values: {4, 8, 12}" in out
        assert "factors: {3, 5, 15}" in out
        assert "prime factors: {3, 5}" in out

    def test_no_period_messaging(self, capsys):
        # find a seed whose single shot lands on the all-zero outcome
        from gatekit.algos import run_shor15_pipeline

        seed = next(
            s for s in range(100)
            if set(run_shor15_pipeline(1, seed=s).counts.keys()) == {"00000000"}
        )
        assert main(["factor15", "--shots", "1", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "did not find a period." in out
        assert "factors: {}" in out
        assert "prime factors" not in out

    def test_repeated_runs_identical(self, capsys):
        main(["factor15", "--shots", "500", "--seed", "6"])
        first = capsys.readouterr().out
        main(["factor15", "--shots", "500", "--seed", "6"])
        assert capsys.readouterr().out == first


# Subcommands, flags and values of the real CLI, plus a few it rejects;
# shot counts stay small so each call is quick.
_SUBCOMMANDS = ["translate", "print", "simulate", "demo", "factor15", "nosuch", "-h", ""]
_ARGV_TOKENS = [
    "--to", "qiskit", "cirq", "pennylane", "pyquil", "braket", "qasm",
    "--shots", "--seed", "--random", "--format", "counts", "json", "hist", "--help",
    "0", "1", "3", "-1", "x", "99999999999999999999", "bell", "shor15", "grover", "-",
]
_STDIN_DOCS = [BELL_DOC, "", "qubits 1\nclbits 0\nh 0\n", "qubits 2\nclbits 2\nwibble 0\n"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {
        "bell.qc": BELL_DOC.encode(),
        "bad.qc": b"qubits 2\nclbits 2\nwibble 0\n",
        "nomeasure.qc": b"qubits 1\nclbits 0\nh 0\n",
        "latin1.qc": LATIN1_DOC,
    }
    for name, data in docs.items():
        (root / name).write_bytes(data)
    return [str(root / name) for name in docs] + [str(root / "missing.qc"), str(root)]


class TestRobustness:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_argv_exits_with_a_documented_code(self, fuzz_paths, data):
        argv = [data.draw(st.sampled_from(_SUBCOMMANDS))]
        argv += data.draw(st.lists(st.sampled_from(_ARGV_TOKENS + fuzz_paths), max_size=6))
        stdin = data.draw(st.sampled_from(_STDIN_DOCS) | st.text(max_size=40))
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = saved_stdin
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
