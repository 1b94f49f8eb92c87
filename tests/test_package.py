"""The package namespace: its names, and which commands load numpy and the
standard-library modules that only some commands need."""
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gatekit
from gatekit import sim
from gatekit.algos import build_shor15
from gatekit.cli import main
from gatekit.dsl import serialize

GOLDEN = Path(__file__).parent / "golden"
BELL_DOC = "qubits 2\nclbits 2\nh 0\ncnot 0 1\nmeasure 0 -> 0\nmeasure 1 -> 1\n"

ALL = [
    "ArityError", "BranchCapError", "CapacityError", "Circuit", "ClassicalRegister",
    "Counts", "DIALECTS", "DuplicateOperandError", "EmittedProgram", "ExactDistribution",
    "FactorReport", "GateKind", "GateOp", "GatekitError", "MAX_QUBITS",
    "NoMeasurementError", "OperandRangeError", "ParseError", "SemanticsError",
    "ShorConfig", "SimError", "StateVector", "UnknownGateError", "ValidationError",
    "apply_gate", "apply_measure", "build_bell", "build_shor15", "estimate_period",
    "exact_distribution", "extract_factors", "extract_measured_values", "is_unitary",
    "parse", "print_circuit", "resolve_gate_name", "run_shor15_pipeline", "run_shots",
    "serialize", "translate", "unitary_of",
]


class TestNamespace:
    def test_all_is_unchanged(self):
        assert gatekit.__all__ == ALL

    def test_every_name_resolves_to_its_submodule_object(self):
        for name in ALL:
            value = getattr(gatekit, name)
            assert value is getattr(sys.modules[f"gatekit.{gatekit._EXPORTS[name]}"], name)
        namespace = {}
        exec("from gatekit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(ALL)
        assert set(ALL) | {"algos", "dsl", "emit", "errors", "gates", "ir", "sim"} <= set(dir(gatekit))

    def test_names_are_read_not_stored(self, monkeypatch):
        assert gatekit.run_shots is sim.run_shots
        assert "run_shots" not in vars(gatekit)
        # The tracer in perfbench replaces functions in their own modules and
        # relies on the package and algos seeing the replacement.
        replacement = object()
        monkeypatch.setattr(sim, "run_shots", replacement)
        assert gatekit.run_shots is replacement
        assert gatekit.algos.run_shots is gatekit.sim.run_shots is replacement
        assert gatekit.algos.Counts is sim.Counts

    def test_unknown_attribute(self):
        for module in (gatekit, gatekit.algos):
            with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
                module.nosuch


def _run(args):
    """Run python -X importtime with args; (return code, stdout, the rest of
    stderr, modules imported)."""
    src = os.path.dirname(os.path.dirname(gatekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    lines = done.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert "gatekit" in imported, done.stderr
    stderr = "".join(f"{line}\n" for line in lines if not line.startswith("import time:"))
    return done.returncode, done.stdout, stderr, imported


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# Modules that only simulating, --format json or --random may load: numpy
# costs about 60 ms of a CLI command, and the standard-library rest several
# ms more.
HEAVY = {"numpy", "dataclasses", "inspect", "json", "secrets"}


class TestImportBoundary:
    """Only simulating loads numpy, and nothing that builds, parses, translates
    or prints loads dataclasses, inspect, json or secrets."""

    @pytest.mark.parametrize("args,expected", [
        (["translate", str(GOLDEN / "allkinds.qc"), "--to", "qiskit"], (GOLDEN / "allkinds.qiskit.txt").read_text()),
        (["print", str(GOLDEN / "allkinds.qc")], (GOLDEN / "allkinds.print.txt").read_text()),
        (["demo", "shor15"], serialize(build_shor15())),
    ], ids=["translate", "print", "demo"])
    def test_commands_that_do_not_simulate(self, args, expected):
        code, stdout, _, imported = _run(["-m", "gatekit.cli", *args])
        assert (code, stdout) == (0, expected)
        assert not HEAVY & imported

    def test_imports_and_building(self):
        code, stdout, _, imported = _run(["-c", (
            "import gatekit, gatekit.cli, gatekit.ir, gatekit.dsl, gatekit.emit\n"
            "print(len(gatekit.build_shor15()), len(gatekit.Circuit(2).add_gate('rx', [0], [0.5])))\n"
            "print(gatekit.extract_measured_values({'01000000': 3}, 4))"
        )])
        assert (code, stdout) == (0, "33 1\n{4}\n")
        assert not HEAVY & imported

    def test_commands_that_simulate(self, tmp_path):
        path = tmp_path / "bell.qc"
        path.write_text(BELL_DOC)
        for args in (["simulate", str(path), "--seed", "7"], ["factor15", "--shots", "200", "--seed", "3"],
                     ["simulate", str(path), "--seed", "7", "--format", "json"]):
            code, stdout, _, imported = _run(["-m", "gatekit.cli", *args])
            assert (code, stdout) == (0, _in_process(args))
            assert "numpy" in imported

    @pytest.mark.parametrize("command", ["simulate", "factor15"])
    def test_random_seed(self, tmp_path, command):
        path = tmp_path / "bell.qc"
        path.write_text(BELL_DOC)
        args = [command, str(path)] if command == "simulate" else [command, "--shots", "10"]
        code, stdout, stderr, imported = _run(["-m", "gatekit.cli", *args, "--random"])
        assert code == 0 and stdout
        assert re.fullmatch(r"seed: \d+\n", stderr)
        assert "secrets" in imported
