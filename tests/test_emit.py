"""Emitters: dialect mapping tables, golden files, ASCII diagrams."""
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from gatekit.algos import build_bell, build_shor15
from gatekit.dsl import parse
from gatekit.emit import _GLYPHS, _HEADS, _LINES, DIALECTS, print_circuit, translate
from gatekit.errors import GatekitError
from gatekit.ir import Circuit, GateKind

from _helpers import _circuits, random_circuit, read_ops

GOLDEN = Path(__file__).parent / "golden"

BELL_QUIL = "DECLARE ro BIT[2]\nH 0\nCNOT 0 1\nMEASURE 0 ro[0]\nMEASURE 1 ro[1]\n"

# one regex per dialect matching exactly the rendering of one instruction
GATE_LINE = {
    "pyquil": re.compile(r"^(H|X|Y|Z|RX|RY|RZ|CNOT|CCNOT|SWAP|CPHASE|MEASURE)[ (]"),
    "qiskit": re.compile(r"^qc\.(h|x|y|z|rx|ry|rz|cx|ccx|swap|cp|measure)\("),
    "cirq": re.compile(r"^circuit\.append\("),
    "pennylane": re.compile(r"^    (qml\.(?!sample)\w+\(|# measure qubit )"),
    "braket": re.compile(r"^circuit\.(h|x|y|z|rx|ry|rz|cnot|ccnot|swap|cphaseshift|measure)\("),
}


def _single_gate_circuit(kind: GateKind) -> Circuit:
    c = Circuit(3, 1)
    if kind is GateKind.MEASURE:
        c.add_gate("measure", [0, 0])
    else:
        qubits = list(range(kind.qubit_arity))
        params = [math.pi / 4] * kind.param_count
        c.add_gate(kind.value, qubits, params)
    return c


class TestTranslate:
    def test_bell_pyquil_matches_published_listing(self):
        assert translate(build_bell(), "pyquil").source == BELL_QUIL

    @pytest.mark.parametrize("target", DIALECTS + ("print",))
    @pytest.mark.parametrize("name", ("bell", "shor15", "allkinds", "unmeasured"))
    def test_golden_files(self, target, name):
        if name in ("bell", "shor15"):
            circuit = build_bell() if name == "bell" else build_shor15()
        else:
            circuit = parse((GOLDEN / f"{name}.qc").read_text())
        expected = (GOLDEN / f"{name}.{target}.txt").read_text()
        if target == "print":
            assert print_circuit(circuit) == expected
        else:
            assert translate(circuit, target).source == expected

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_empty_circuit_has_no_gate_lines(self, dialect):
        source = translate(Circuit(1, 0), dialect).source
        pattern = GATE_LINE[dialect]
        body_lines = [ln for ln in source.splitlines() if pattern.match(ln)]
        assert body_lines == []

    @pytest.mark.parametrize("dialect", DIALECTS)
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_every_kind_renders_in_every_dialect(self, dialect, kind):
        circuit = _single_gate_circuit(kind)
        with_gate = translate(circuit, dialect).source
        without = translate(Circuit(3, 1), dialect).source
        assert with_gate != without
        gate_lines = [ln for ln in with_gate.splitlines() if GATE_LINE[dialect].match(ln)]
        assert len(gate_lines) == 1

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_gate_line_count_and_order_on_random_circuits(self, dialect):
        rng = np.random.default_rng(17)
        for _ in range(10):
            circuit = random_circuit(rng, 4, int(rng.integers(1, 25)), 4, 0.25)
            source = translate(circuit, dialect).source
            gate_lines = [ln for ln in source.splitlines() if GATE_LINE[dialect].match(ln)]
            assert len(gate_lines) == len(circuit.ops)

    def test_shor15_qiskit_gate_line_count(self):
        source = translate(build_shor15(), "qiskit").source
        gate_lines = [ln for ln in source.splitlines() if GATE_LINE["qiskit"].match(ln)]
        assert len(gate_lines) == 33

    def test_qiskit_order_preserved(self):
        circuit = Circuit(3, 1)
        circuit.add_gate("x", [2]).add_gate("h", [0]).add_gate("swap", [0, 2])
        circuit.add_gate("measure", [1, 0])
        source = translate(circuit, "qiskit").source
        calls = re.findall(r"qc\.(\w+)\(", source)
        assert calls == ["x", "h", "swap", "measure"]

    def test_pyquil_order_preserved_on_random_circuits(self):
        mnemonic = {
            "h": "H", "x": "X", "y": "Y", "z": "Z", "rx": "RX", "ry": "RY",
            "rz": "RZ", "cnot": "CNOT", "toffoli": "CCNOT", "swap": "SWAP",
            "cphase": "CPHASE", "measure": "MEASURE",
        }
        rng = np.random.default_rng(18)
        for _ in range(10):
            circuit = random_circuit(rng, 4, 20, 4, 0.25)
            source = translate(circuit, "pyquil").source
            rendered = [
                re.match(r"[A-Z]+", ln).group()
                for ln in source.splitlines()
                if not ln.startswith("DECLARE")
            ]
            assert rendered == [mnemonic[op.kind.value] for op in circuit.ops]

    def test_angles_render_as_round_trip_decimals(self):
        circuit = Circuit(1, 0)
        circuit.add_gate("rx", [0], [math.pi / 2])
        assert "1.5707963267948966" in translate(circuit, "qiskit").source
        assert "RX(1.5707963267948966) 0" in translate(circuit, "pyquil").source

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        circuit = random_circuit(rng, 3, 15, 3, 0.2)
        for dialect in DIALECTS:
            assert translate(circuit, dialect).source == translate(circuit, dialect).source

    def test_unknown_dialect_rejected(self):
        # A typed GatekitError that is still a ValueError; an unhashable
        # dialect raised a bare TypeError before the tuple check.
        for dialect in ("qasm", ["qiskit"]):
            with pytest.raises(ValueError):
                translate(build_bell(), dialect)
            with pytest.raises(GatekitError):
                translate(build_bell(), dialect)

    def test_tables_cover_exactly_every_kind(self):
        assert set(_LINES) == set(_HEADS) == set(DIALECTS)
        for dialect in DIALECTS:
            assert set(_LINES[dialect]) == set(GateKind), dialect
        assert set(_GLYPHS) == set(GateKind)
        for kind, glyphs in _GLYPHS.items():
            assert len(glyphs) == kind.qubit_arity, kind

    @pytest.mark.parametrize("dialect", DIALECTS)
    @given(circuit=_circuits())
    @settings(max_examples=100, deadline=None)
    def test_source_reads_back_to_the_same_ops(self, dialect, circuit):
        ops = read_ops(translate(circuit, dialect).source, dialect)
        assert [(op.kind, op.qubits, op.clbit) for op in ops] == [
            (op.kind, op.qubits, op.clbit) for op in circuit.ops
        ]
        for got, want in zip(ops, circuit.ops):
            # cirq prints theta/pi, which is exact to the last bit or two for
            # normal doubles; abs_tol covers theta/pi underflowing into the
            # subnormal range for |theta| below about 1e-307.
            for a, b in zip(got.params, want.params):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300), (a, b)


class TestPrintCircuit:
    def test_bell_golden(self):
        assert print_circuit(build_bell()) == "q0: -H-*-M0-\nq1: ---+-M1-\n"

    def test_single_hadamard(self):
        c = Circuit(1, 0)
        c.add_gate("h", [0])
        assert print_circuit(c) == "q0: -H-\n"

    def test_swap_endpoints_share_a_column(self):
        c = Circuit(2, 0)
        c.add_gate("swap", [0, 1])
        rows = print_circuit(c).splitlines()
        assert rows[0].index("x") == rows[1].index("x")

    def test_rows_equal_length(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            c = random_circuit(rng, 5, 20, 5, 0.2)
            rows = print_circuit(c).splitlines()
            assert len(rows) == 5
            assert len({len(r) for r in rows}) == 1

    def test_shor15_has_eight_rows(self):
        rows = print_circuit(build_shor15()).splitlines()
        assert len(rows) == 8
        assert rows[0].startswith("q0: ")
        assert rows[7].startswith("q7: ")

    def test_measure_glyph_carries_clbit(self):
        c = Circuit(1, 3)
        c.add_gate("measure", [0, 2])
        assert "M2" in print_circuit(c)

    def test_cphase_glyphs(self):
        c = Circuit(2, 0)
        c.add_gate("cphase", [0, 1], [math.pi])
        out = print_circuit(c)
        rows = out.splitlines()
        assert "*" in rows[0]
        assert "P(3.141592653589793)" in rows[1]

    def test_multiqubit_gate_blocks_span(self):
        # the toffoli occupies rows 0..2, so the later H on row 1 must move
        # to the next column instead of landing inside the gate's span
        c = Circuit(3, 0)
        c.add_gate("toffoli", [0, 2, 1])
        c.add_gate("h", [1])
        rows = print_circuit(c).splitlines()
        assert rows[1].index("H") > rows[0].index("*")
