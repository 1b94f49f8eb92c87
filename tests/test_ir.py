"""Circuit IR: gate kinds, name resolution, construction, validation."""
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gatekit.errors import (
    ArityError,
    CapacityError,
    DuplicateOperandError,
    OperandRangeError,
    UnknownGateError,
    ValidationError,
)
from gatekit.ir import MAX_QUBITS, Circuit, GateKind, GateOp, resolve_gate_name

from _helpers import random_circuit

EXPECTED_SIGNATURES = {
    "h": (1, 0),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "cnot": (2, 0),
    "swap": (2, 0),
    "cphase": (2, 1),
    "toffoli": (3, 0),
    "measure": (1, 0),
}


class TestGateKind:
    def test_exactly_twelve_kinds(self):
        assert {k.value for k in GateKind} == set(EXPECTED_SIGNATURES)

    def test_rows_in_declaration_order(self):
        assert [(k.value, k.qubit_arity, k.param_count) for k in GateKind] == [
            ("h", 1, 0),
            ("x", 1, 0),
            ("y", 1, 0),
            ("z", 1, 0),
            ("rx", 1, 1),
            ("ry", 1, 1),
            ("rz", 1, 1),
            ("cnot", 2, 0),
            ("toffoli", 3, 0),
            ("swap", 2, 0),
            ("cphase", 2, 1),
            ("measure", 1, 0),
        ]

    @pytest.mark.parametrize("name,sig", EXPECTED_SIGNATURES.items())
    def test_arity_and_param_count(self, name, sig):
        kind = GateKind(name)
        assert (kind.qubit_arity, kind.param_count) == sig


class TestResolveGateName:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("MEASURE", GateKind.MEASURE),
            ("Toffoli", GateKind.TOFFOLI),
            ("CPhase", GateKind.CPHASE),
            ("CPHASE", GateKind.CPHASE),
            ("ccnot", GateKind.TOFFOLI),
            ("CX", GateKind.CNOT),
            ("cp", GateKind.CPHASE),
            ("H", GateKind.H),
        ],
    )
    def test_aliases_and_casing(self, name, kind):
        assert resolve_gate_name(name) is kind

    def test_unknown_name(self):
        with pytest.raises(UnknownGateError):
            resolve_gate_name("hadamardd")

    def test_case_insensitive_everywhere(self):
        names = list(EXPECTED_SIGNATURES) + ["ccnot", "cx", "cp"]
        for name in names:
            assert resolve_gate_name(name.upper()) is resolve_gate_name(name.lower())
            assert resolve_gate_name(name.title()) is resolve_gate_name(name)


class TestNewCircuit:
    def test_two_by_two(self):
        c = Circuit(2, 2)
        assert (c.num_qubits, c.num_clbits, c.ops) == (2, 2, [])

    def test_eight_by_eight(self):
        c = Circuit(8, 8)
        assert (c.num_qubits, c.num_clbits, c.ops) == (8, 8, [])

    def test_minimal(self):
        c = Circuit(1, 0)
        assert (c.num_qubits, c.num_clbits, c.ops) == (1, 0, [])

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValidationError):
            Circuit(0, 0)

    def test_cap(self):
        Circuit(MAX_QUBITS, 0)
        with pytest.raises(CapacityError):
            Circuit(MAX_QUBITS + 1, 0)

    def test_negative_clbits_rejected(self):
        with pytest.raises(ValidationError):
            Circuit(2, -1)

    def test_constructor_checks_its_ops(self):
        # An op outside the registers was kept, simulated on a row that had
        # no such qubit, and emitted into a program of the wrong width.
        with pytest.raises(OperandRangeError):
            Circuit(1, 1, [GateOp(GateKind.H, (4,)), GateOp(GateKind.MEASURE, (4,), (), 0)])
        with pytest.raises(OperandRangeError):
            Circuit(1, 1, [GateOp(GateKind.MEASURE, (0,), (), 1)])
        with pytest.raises(ValidationError, match="GateOp"):
            Circuit(1, 1, [("h", [0])])
        ops = [GateOp(GateKind.H, (0,)), GateOp(GateKind.MEASURE, (0,), (), 0)]
        assert Circuit(1, 1, ops).ops == ops
        # Any iterable of ops: the circuit keeps a list of its own, which
        # add_gate extends and a later change to the caller's list misses.
        for given in (ops, tuple(ops), iter(ops)):
            c = Circuit(1, 1, given)
            assert type(c.ops) is list and c.ops == ops and c.ops is not given
            c.add_gate("x", [0])
            assert len(c) == 3 and len(ops) == 2
        with pytest.raises(ValidationError, match="iterable"):
            Circuit(2, 0, None)


class TestGateOpCanonicalForm:
    """Equal ops compare and hash alike however their fields were given."""

    def test_list_operands_are_stored_as_a_tuple(self):
        op = GateOp(GateKind.CNOT, [0, 1])
        assert type(op.qubits) is tuple and op == GateOp(GateKind.CNOT, (0, 1))
        assert hash(op) == hash(GateOp(GateKind.CNOT, (0, 1)))

    @pytest.mark.parametrize("angle", [np.float64(0.5), np.float32(0.5), Fraction(1, 3), 2])
    def test_angles_are_stored_as_python_floats(self, angle):
        op = GateOp(GateKind.RX, (0,), [angle])
        assert type(op.params) is tuple and type(op.params[0]) is float
        assert op.params[0] == float(angle) and op == GateOp(GateKind.RX, (0,), (float(angle),))


class TestAngleConversion:
    """add_gate reads each angle with float(); a GateOp built directly takes
    real numbers only.  Both store a tuple of exact floats and refuse an angle
    with the same error type and message, whichever path converts it."""

    ACCEPTED = [
        # (angle, add_gate stores, GateOp stores; None: GateOp refuses it)
        (0.25, 0.25, 0.25),
        ("1.5", 1.5, None),
        (np.float64(0.5), 0.5, 0.5),
        (np.float32(0.5), 0.5, 0.5),
        (Fraction(1, 3), 1 / 3, 1 / 3),
        (True, 1.0, 1.0),
        (2, 2.0, 2.0),
        (Decimal("0.5"), 0.5, None),
    ]

    @staticmethod
    def _stored(params):
        assert type(params) is tuple and all(type(p) is float for p in params)
        return params

    @pytest.mark.parametrize("angle,via_add,via_op", ACCEPTED)
    def test_accepted_angles(self, angle, via_add, via_op):
        assert self._stored(Circuit(1).add_gate("rx", [0], [angle]).ops[0].params) == (via_add,)
        if via_op is None:
            with pytest.raises(ValidationError, match=re.escape(f"angle {angle!r} is not a finite number")):
                GateOp(GateKind.RX, (0,), (angle,))
        else:
            for params in ((angle,), [angle]):
                assert self._stored(GateOp(GateKind.RX, (0,), params).params) == (via_op,)

    @pytest.mark.parametrize("angle,shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), ("nan", "nan"),
        (np.float64(math.inf), "inf"),
    ])
    def test_non_finite_angles(self, angle, shown):
        with pytest.raises(ValidationError, match=re.escape(f"angle {shown} is not a finite number")):
            Circuit(1).add_gate("rx", [0], [angle])
        with pytest.raises(ValidationError, match=re.escape(f"angle {angle!r} is not a finite number")):
            GateOp(GateKind.RX, (0,), (angle,))

    @pytest.mark.parametrize("angle", ["abc", None, 1j, [0.5], object()])
    def test_non_numbers(self, angle):
        with pytest.raises(ValidationError, match=re.escape(f"rx angles must be numbers, got {[angle]!r}")):
            Circuit(1).add_gate("rx", [0], [angle])
        with pytest.raises(ValidationError, match=re.escape(f"angle {angle!r} is not a finite number")):
            GateOp(GateKind.RX, (0,), (angle,))

    def test_check_order(self):
        # add_gate converts the angles before GateOp checks the operands;
        # GateOp checks the qubits, then the angle count, then the values.
        with pytest.raises(ValidationError, match="angles must be numbers"):
            Circuit(2).add_gate("h", [0, 1], ["x"])
        with pytest.raises(ArityError, match="h takes 1 qubit"):
            GateOp(GateKind.H, (0, 1), ("x",))
        with pytest.raises(ArityError, match="h takes 0 parameter"):
            GateOp(GateKind.H, (0,), ("x",))


class TestAddGate:
    def test_append_h(self):
        c = Circuit(2, 2)
        c.add_gate("h", [0])
        assert c.ops == [GateOp(GateKind.H, (0,))]

    def test_append_cphase_uppercase(self):
        c = Circuit(2, 2)
        c.add_gate("CPHASE", [0, 1], [math.pi / 2])
        op = c.ops[0]
        assert op.kind is GateKind.CPHASE
        assert op.qubits == (0, 1)
        assert op.params == (math.pi / 2,)

    def test_duplicate_operand_rejected(self):
        c = Circuit(2, 0)
        with pytest.raises(DuplicateOperandError):
            c.add_gate("cnot", [0, 0])

    def test_measure_operands_are_qubit_then_clbit(self):
        c = Circuit(2, 2)
        c.add_gate("MEASURE", [1, 0])
        assert c.ops[0] == GateOp(GateKind.MEASURE, (1,), (), 0)

    def test_wrong_qubit_count(self):
        c = Circuit(3, 0)
        with pytest.raises(ArityError):
            c.add_gate("cnot", [0])
        with pytest.raises(ArityError):
            c.add_gate("h", [0, 1])
        with pytest.raises(ArityError):
            c.add_gate("measure", [0])

    def test_wrong_param_count(self):
        c = Circuit(1, 0)
        with pytest.raises(ArityError):
            c.add_gate("rx", [0])
        with pytest.raises(ArityError):
            c.add_gate("h", [0], [1.0])

    def test_out_of_range_is_index_error(self):
        c = Circuit(2, 1)
        with pytest.raises(OperandRangeError):
            c.add_gate("h", [2])
        with pytest.raises(IndexError):
            c.add_gate("h", [-1])
        with pytest.raises(OperandRangeError):
            c.add_gate("measure", [0, 1])

    def test_non_finite_angle_rejected(self):
        c = Circuit(1, 0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                c.add_gate("rx", [0], [bad])

    @pytest.mark.parametrize("bad", ["abc", None, "x", 1j, [0.5]])
    def test_non_numeric_angle_is_validation_error(self, bad):
        with pytest.raises(ValidationError):
            Circuit(1).add_gate("rx", [0], [bad])
        with pytest.raises(ValidationError):
            GateOp(GateKind.RX, (0,), (bad,))
        # add_gate still reads a numeric string as its float.
        assert Circuit(1).add_gate("rx", [0], ["1.5"]).ops[0].params == (1.5,)

    def test_invalid_append_leaves_circuit_unchanged(self):
        c = Circuit(3, 1)
        c.add_gate("h", [0]).add_gate("cnot", [0, 1])
        snapshot = list(c.ops)
        for attempt in (
            lambda: c.add_gate("nosuch", [0]),
            lambda: c.add_gate("cnot", [1, 1]),
            lambda: c.add_gate("toffoli", [0, 1, 5]),
            lambda: c.add_gate("rx", [0], []),
            lambda: c.add_gate("measure", [0, 3]),
        ):
            with pytest.raises(Exception):
                attempt()
            assert c.ops == snapshot
        c.add_gate("measure", [2, 0])
        assert len(c.ops) == 3

    @pytest.mark.parametrize("entry", ["h", ("h", [0]), None])
    def test_append_refuses_a_non_gateop(self, entry):
        c = Circuit(2, 1).add_gate("h", [0])
        snapshot = list(c.ops)
        with pytest.raises(ValidationError, match="GateOp"):
            c.append(entry)
        assert c.ops == snapshot

    def test_random_appends_preserve_order_and_length(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            num_gates = int(rng.integers(1, 40))
            c = random_circuit(rng, int(rng.integers(1, 6)), num_gates, 3, 0.2)
            assert len(c.ops) == num_gates
            rebuilt = Circuit(c.num_qubits, c.num_clbits)
            for op in c.ops:
                rebuilt.append(op)
            assert rebuilt.ops == c.ops


class TestHasMeasurement:
    def test_bell_circuit(self):
        from gatekit.algos import build_bell

        assert build_bell().has_measurement()

    def test_empty_circuit(self):
        assert not Circuit(1, 0).has_measurement()

    def test_gates_only(self):
        c = Circuit(2, 2)
        c.add_gate("h", [0]).add_gate("cnot", [0, 1])
        assert not c.has_measurement()
