"""Source-text emission for five quantum-framework dialects, plus ASCII diagrams.

translate() renders a circuit as a complete, self-contained program in one of
{qiskit, cirq, pennylane, pyquil, braket}.  Emission is one-way source text:
the output is runnable by users who have the target framework installed, and
byte-identical for equal (circuit, dialect) inputs.  Angles are printed as the
shortest decimal that round-trips to the same double.

How each gate kind is spelled in each dialect lives in data, not code: one
line table per dialect (_LINES) holds a str.format pattern per GateKind, and
_GLYPHS holds the diagram glyphs per GateKind.  Patterns read the op's fields
(_fields): qubits {0} {1} {2}, angle {t}, angle/pi {t_pi} and clbit {c}.

Per-dialect notes:
  * pyquil: bare Quil text ("DECLARE ro BIT[nc]" prologue when nc > 0).
  * qiskit: builds a QuantumCircuit; measure maps qubit -> clbit directly.
  * cirq: LineQubits with one append per gate; each measure is keyed "c<clbit>";
    cphase is a CZPowGate whose exponent is the angle over pi.
  * pennylane: qnode over default.qubit; each measure op is recorded as a
    "# measure qubit q -> clbit c" comment and the function returns one
    computational-basis sample per measured wire (qml.state() if nothing is
    measured, since a qnode must return a measurement).
  * braket: chained Circuit calls; results are addressed per qubit, so each
    measure emits circuit.measure(q) with a comment recording the clbit.
"""
from __future__ import annotations

import math

from .errors import ValidationError
from .ir import Circuit, GateKind, GateOp, _Frozen

DIALECTS = ("qiskit", "cirq", "pennylane", "pyquil", "braket")


class EmittedProgram(_Frozen):
    """One translation: its dialect and the complete source text."""

    __match_args__ = __slots__ = ("dialect", "source")

    def __init__(self, dialect: str, source: str):
        object.__setattr__(self, "dialect", dialect)
        object.__setattr__(self, "source", source)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _fields(op: GateOp) -> dict[str, object]:
    """Named format fields of one op; the qubits are passed positionally."""
    if op.params:
        theta = op.params[0]
        return {"t": _fmt(theta), "t_pi": _fmt(theta / math.pi)}
    return {"c": op.clbit}


# ---------------------------------------------------------------------------
# dialect tables: fixed head lines over {nq} and {nc}, then one line per op

_HEADS = {
    "qiskit": (
        "from qiskit import QuantumCircuit",
        "",
        "qc = QuantumCircuit({nq}, {nc})",
    ),
    "cirq": (
        "import cirq",
        "",
        "q = cirq.LineQubit.range({nq})",
        "circuit = cirq.Circuit()",
    ),
    "pennylane": (
        "import pennylane as qml",
        "",
        'dev = qml.device("default.qubit", wires={nq}, shots=1000)',
        "",
        "@qml.qnode(dev)",
        "def circuit():",
    ),
    "pyquil": (),
    "braket": (
        "from braket.circuits import Circuit",
        "",
        "circuit = Circuit()",
    ),
}

_LINES = {
    "qiskit": {
        GateKind.H: "qc.h({0})",
        GateKind.X: "qc.x({0})",
        GateKind.Y: "qc.y({0})",
        GateKind.Z: "qc.z({0})",
        GateKind.RX: "qc.rx({t}, {0})",
        GateKind.RY: "qc.ry({t}, {0})",
        GateKind.RZ: "qc.rz({t}, {0})",
        GateKind.CNOT: "qc.cx({0}, {1})",
        GateKind.TOFFOLI: "qc.ccx({0}, {1}, {2})",
        GateKind.SWAP: "qc.swap({0}, {1})",
        GateKind.CPHASE: "qc.cp({t}, {0}, {1})",
        GateKind.MEASURE: "qc.measure({0}, {c})",
    },
    "cirq": {
        GateKind.H: "circuit.append(cirq.H(q[{0}]))",
        GateKind.X: "circuit.append(cirq.X(q[{0}]))",
        GateKind.Y: "circuit.append(cirq.Y(q[{0}]))",
        GateKind.Z: "circuit.append(cirq.Z(q[{0}]))",
        GateKind.RX: "circuit.append(cirq.rx({t}).on(q[{0}]))",
        GateKind.RY: "circuit.append(cirq.ry({t}).on(q[{0}]))",
        GateKind.RZ: "circuit.append(cirq.rz({t}).on(q[{0}]))",
        GateKind.CNOT: "circuit.append(cirq.CNOT(q[{0}], q[{1}]))",
        GateKind.TOFFOLI: "circuit.append(cirq.TOFFOLI(q[{0}], q[{1}], q[{2}]))",
        GateKind.SWAP: "circuit.append(cirq.SWAP(q[{0}], q[{1}]))",
        GateKind.CPHASE: "circuit.append(cirq.CZPowGate(exponent={t_pi}).on(q[{0}], q[{1}]))",
        GateKind.MEASURE: 'circuit.append(cirq.measure(q[{0}], key="c{c}"))',
    },
    "pennylane": {
        GateKind.H: "    qml.Hadamard(wires={0})",
        GateKind.X: "    qml.PauliX(wires={0})",
        GateKind.Y: "    qml.PauliY(wires={0})",
        GateKind.Z: "    qml.PauliZ(wires={0})",
        GateKind.RX: "    qml.RX({t}, wires={0})",
        GateKind.RY: "    qml.RY({t}, wires={0})",
        GateKind.RZ: "    qml.RZ({t}, wires={0})",
        GateKind.CNOT: "    qml.CNOT(wires=[{0}, {1}])",
        GateKind.TOFFOLI: "    qml.Toffoli(wires=[{0}, {1}, {2}])",
        GateKind.SWAP: "    qml.SWAP(wires=[{0}, {1}])",
        GateKind.CPHASE: "    qml.ControlledPhaseShift({t}, wires=[{0}, {1}])",
        GateKind.MEASURE: "    # measure qubit {0} -> clbit {c}",
    },
    "pyquil": {
        GateKind.H: "H {0}",
        GateKind.X: "X {0}",
        GateKind.Y: "Y {0}",
        GateKind.Z: "Z {0}",
        GateKind.RX: "RX({t}) {0}",
        GateKind.RY: "RY({t}) {0}",
        GateKind.RZ: "RZ({t}) {0}",
        GateKind.CNOT: "CNOT {0} {1}",
        GateKind.TOFFOLI: "CCNOT {0} {1} {2}",
        GateKind.SWAP: "SWAP {0} {1}",
        GateKind.CPHASE: "CPHASE({t}) {0} {1}",
        GateKind.MEASURE: "MEASURE {0} ro[{c}]",
    },
    "braket": {
        GateKind.H: "circuit.h({0})",
        GateKind.X: "circuit.x({0})",
        GateKind.Y: "circuit.y({0})",
        GateKind.Z: "circuit.z({0})",
        GateKind.RX: "circuit.rx({0}, {t})",
        GateKind.RY: "circuit.ry({0}, {t})",
        GateKind.RZ: "circuit.rz({0}, {t})",
        GateKind.CNOT: "circuit.cnot({0}, {1})",
        GateKind.TOFFOLI: "circuit.ccnot({0}, {1}, {2})",
        GateKind.SWAP: "circuit.swap({0}, {1})",
        GateKind.CPHASE: "circuit.cphaseshift({0}, {1}, {t})",
        GateKind.MEASURE: "circuit.measure({0})  # clbit {c}",
    },
}


def translate(circuit: Circuit, dialect: str) -> EmittedProgram:
    """Render the circuit as source text for one of the five dialects."""
    if dialect not in DIALECTS:
        raise ValidationError(f"unknown dialect {dialect!r}; expected one of {DIALECTS}")
    nq, nc = circuit.num_qubits, circuit.num_clbits
    lines = [head.format(nq=nq, nc=nc) for head in _HEADS[dialect]]
    if dialect == "pyquil" and nc > 0:
        lines.append(f"DECLARE ro BIT[{nc}]")
    table = _LINES[dialect]
    lines += [table[op.kind].format(*op.qubits, **_fields(op)) for op in circuit.ops]
    if dialect == "pennylane":
        sampled = [op.qubits[0] for op in circuit.ops if op.clbit is not None]
        if sampled:
            samples = ", ".join(f"qml.sample(qml.PauliZ({w}))" for w in sampled)
            lines.append(f"    return [{samples}]")
        else:
            lines.append("    return qml.state()")
    return EmittedProgram(dialect, "\n".join(lines) + "\n" if lines else "")


# ---------------------------------------------------------------------------
# ASCII diagram: one glyph pattern per operand, in operand order

_GLYPHS = {
    GateKind.H: ("H",),
    GateKind.X: ("X",),
    GateKind.Y: ("Y",),
    GateKind.Z: ("Z",),
    GateKind.RX: ("RX({t})",),
    GateKind.RY: ("RY({t})",),
    GateKind.RZ: ("RZ({t})",),
    GateKind.CNOT: ("*", "+"),
    GateKind.TOFFOLI: ("*", "*", "+"),
    GateKind.SWAP: ("x", "x"),
    GateKind.CPHASE: ("*", "P({t})"),
    GateKind.MEASURE: ("M{c}",),
}


def _glyphs(op: GateOp) -> dict[int, str]:
    fields = _fields(op)
    return {q: glyph.format(**fields) for q, glyph in zip(op.qubits, _GLYPHS[op.kind])}


def print_circuit(circuit: Circuit) -> str:
    """ASCII diagram: one labeled row per qubit, instructions left to right.

    Each instruction occupies the earliest column free on every row it spans
    (multi-qubit gates block the rows between their endpoints); rows are
    padded with '-' so every line has equal length.
    """
    nq = circuit.num_qubits
    labels = [f"q{i}: " for i in range(nq)]
    width = max(len(lbl) for lbl in labels)
    labels = [lbl.ljust(width) for lbl in labels]

    cursor = [0] * nq
    columns: list[dict[int, str]] = []
    for op in circuit.ops:
        glyphs = _glyphs(op)
        span = range(min(glyphs), max(glyphs) + 1)
        col = max(cursor[q] for q in span)
        while len(columns) <= col:
            columns.append({})
        columns[col].update(glyphs)
        for q in span:
            cursor[q] = col + 1

    widths = [max(map(len, col.values())) for col in columns]
    rows = []
    for q in range(nq):
        row = labels[q]
        for col, cell_width in zip(columns, widths):
            row += "-" + col.get(q, "").ljust(cell_width, "-")
        rows.append(row + "-")
    return "\n".join(rows) + "\n"
