"""Circuit file format: parsing, canonical serialization, round trips."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekit.algos import build_bell
from gatekit.dsl import PI_TOKENS, parse, serialize
from gatekit.errors import ParseError
from gatekit.ir import Circuit, GateKind, GateOp

from _helpers import _circuits, random_circuit

BELL_DOC = "qubits 2\nclbits 2\nh 0\ncnot 0 1\nmeasure 0 -> 0\nmeasure 1 -> 1\n"


class TestParse:
    def test_bell_document(self):
        assert parse(BELL_DOC) == build_bell()

    def test_empty_single_qubit_circuit(self):
        c = parse("qubits 1\nclbits 0\n")
        assert (c.num_qubits, c.num_clbits, c.ops) == (1, 0, [])

    def test_pi_half_token(self):
        c = parse("qubits 2\nclbits 2\ncphase(pi/2) 0 1\n")
        assert c.ops == [GateOp(GateKind.CPHASE, (0, 1), (1.5707963267948966,))]

    @pytest.mark.parametrize("token,value", PI_TOKENS.items())
    def test_all_pi_tokens(self, token, value):
        c = parse(f"qubits 1\nclbits 0\nrz({token}) 0\n")
        assert c.ops[0].params == (value,)

    def test_decimal_angles(self):
        c = parse("qubits 1\nclbits 0\nrx(-0.25) 0\nry(2e-3) 0\n")
        assert c.ops[0].params == (-0.25,)
        assert c.ops[1].params == (0.002,)

    def test_comments_and_blank_lines(self):
        doc = "# heading\n\nqubits 2  # two qubits\nclbits 2\n\nh 0 # superpose\n\ncnot 0 1\n"
        c = parse(doc)
        assert [op.kind for op in c.ops] == [GateKind.H, GateKind.CNOT]

    def test_crlf_input(self):
        assert parse(BELL_DOC.replace("\n", "\r\n")) == build_bell()

    def test_case_insensitive_names(self):
        c = parse("qubits 3\nclbits 1\nToffoli 0 1 2\nCX 0 1\nMEASURE 2 -> 0\n")
        assert [op.kind for op in c.ops] == [GateKind.TOFFOLI, GateKind.CNOT, GateKind.MEASURE]


class TestParseErrors:
    @pytest.mark.parametrize(
        "doc,line",
        [
            ("", 1),                                       # no header at all
            ("clbits 2\nqubits 2\n", 1),                   # wrong order
            ("qubits 2\n", 2),                             # clbits missing
            ("qubits 2\nclbits 2\nhadamardd 0\n", 3),      # unknown gate
            ("qubits 2\nclbits 2\nrx(foo) 0\n", 3),        # malformed angle
            ("qubits 2\nclbits 2\nrx(-pi/8) 0\n", 3),      # token not in the set
            ("qubits 2\nclbits 2\ncnot 0\n", 3),           # arity mismatch
            ("qubits 2\nclbits 2\nh 0 1\n", 3),            # too many operands
            ("qubits 2\nclbits 2\nh 5\n", 3),              # qubit out of range
            ("qubits 2\nclbits 2\nmeasure 0 -> 7\n", 3),   # clbit out of range
            ("qubits 2\nclbits 2\nmeasure 0 0\n", 3),      # measure needs an arrow
            ("qubits 2\nclbits 2\nh x\n", 3),              # non-integer operand
            ("qubits 0\nclbits 2\n", 1),                   # invalid qubit count
            ("qubits 2\nclbits -1\n", 2),                  # invalid clbit count
            ("qubits two\nclbits 2\n", 1),                 # non-integer header
        ],
    )
    def test_line_numbers(self, doc, line):
        with pytest.raises(ParseError) as excinfo:
            parse(doc)
        assert excinfo.value.line == line

    def test_error_after_blank_and_comment_lines(self):
        doc = "qubits 2\nclbits 2\n\n# fine so far\nh 0\n\nbogus 1\n"
        with pytest.raises(ParseError) as excinfo:
            parse(doc)
        assert excinfo.value.line == 7

    def test_garbage_line_injected_anywhere_is_located(self):
        rng = np.random.default_rng(13)
        base = serialize(random_circuit(rng, 3, 10, 3, 0.3)).splitlines()
        for position in range(2, len(base) + 1):
            mutated = base[:position] + ["h 99"] + base[position:]
            with pytest.raises(ParseError) as excinfo:
                parse("\n".join(mutated) + "\n")
            assert excinfo.value.line == position + 1


class TestSerialize:
    def test_bell_canonical_form(self):
        assert serialize(build_bell()) == BELL_DOC

    def test_rx_pi_decimal(self):
        c = Circuit(1, 0)
        c.add_gate("rx", [0], [math.pi])
        assert serialize(c) == "qubits 1\nclbits 0\nrx(3.141592653589793) 0\n"

    def test_empty_circuit(self):
        assert serialize(Circuit(3, 1)) == "qubits 3\nclbits 1\n"

    def test_names_lowercased(self):
        c = Circuit(3, 0)
        c.add_gate("Toffoli", [0, 1, 2])
        assert "toffoli 0 1 2" in serialize(c)


class TestRoundTrip:
    @given(_circuits())
    @settings(max_examples=200, deadline=None)
    def test_parse_serialize_round_trip(self, circuit):
        assert parse(serialize(circuit)) == circuit

    @given(_circuits())
    @settings(max_examples=100, deadline=None)
    def test_serialize_is_canonical(self, circuit):
        doc = serialize(circuit)
        assert serialize(parse(doc)) == doc

    def test_round_trip_of_list_built_ops(self):
        c = Circuit(3, 2)
        c.append(GateOp(GateKind.CNOT, [0, 1]))
        c.append(GateOp(GateKind.TOFFOLI, [2, 0, 1]))
        c.append(GateOp(GateKind.MEASURE, [1], clbit=0))
        assert parse(serialize(c)) == c

    @pytest.mark.parametrize("angle", [np.float64(0.5), np.float32(-0.25), Fraction(1, 3)])
    def test_numpy_and_fraction_angles_serialize_as_decimals(self, angle):
        c = Circuit(2, 0)
        c.append(GateOp(GateKind.RX, (0,), (angle,)))
        c.append(GateOp(GateKind.CPHASE, (1, 0), (angle,)))
        doc = serialize(c)
        assert doc.splitlines()[2:] == [f"rx({float(angle)!r}) 0", f"cphase({float(angle)!r}) 1 0"]
        assert parse(doc) == c

    def test_round_trip_on_seeded_random_circuits(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            circuit = random_circuit(rng, int(rng.integers(1, 7)), int(rng.integers(0, 30)), 4, 0.25)
            assert parse(serialize(circuit)) == circuit


# Tokens that reach every branch of the grammar, valid or not.
_DOC_TOKENS = [
    "qubits", "clbits", "QUBITS", "h", "X", "rx", "cnot", "cx", "ccnot", "toffoli", "swap",
    "cphase", "cp", "measure", "wibble", "0", "1", "2", "3", "-1", "24", "25", "1.5",
    "99999999999999999999", "->", "-", ">", "(", ")", "(pi/2)", "(-pi)", "(0.25)", "(1e400)",
    "(nan)", "(pi/3)", "()", "((1))", "#", "\t", "\r", "é", "\x00", ",",
]


def _documents():
    line = st.lists(st.sampled_from(_DOC_TOKENS), max_size=6).map(" ".join)
    header = st.sampled_from(["", "qubits 3\nclbits 2\n", "qubits 0\nclbits 0\n", "qubits 25\nclbits 1\n"])
    structured = st.tuples(header, st.lists(line, max_size=8).map("\n".join)).map("".join)
    return st.one_of(st.text(), structured)


class TestParseRobustness:
    @given(_documents())
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text_raises_only_parse_error(self, text):
        try:
            parse(text)
        except ParseError:
            pass
