"""Source-text emission for five quantum-framework dialects, plus ASCII diagrams.

translate() renders a circuit as a complete, self-contained program in one of
{qiskit, cirq, pennylane, pyquil, braket}.  Emission is one-way source text:
the output is runnable by users who have the target framework installed, and
byte-identical for equal (circuit, dialect) inputs.  Angles are printed as the
shortest decimal that round-trips to the same double.

Per-dialect notes:
  * pyquil: bare Quil text ("DECLARE ro BIT[nc]" prologue when nc > 0).
  * qiskit: builds a QuantumCircuit; measure maps qubit -> clbit directly.
  * cirq: LineQubits with one append per gate; each measure is keyed "c<clbit>".
  * pennylane: qnode over default.qubit; each measure op is recorded as a
    "# measure qubit q -> clbit c" comment and the function returns one
    computational-basis sample per measured wire (qml.state() if nothing is
    measured, since a qnode must return a measurement).
  * braket: chained Circuit calls; results are addressed per qubit, so each
    measure emits circuit.measure(q) with a comment recording the clbit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .ir import Circuit, GateKind, GateOp

DIALECTS = ("qiskit", "cirq", "pennylane", "pyquil", "braket")


@dataclass(frozen=True)
class EmittedProgram:
    dialect: str
    source: str


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# dialect renderers: one function per dialect, one output line per instruction


def _emit_pyquil(c: Circuit) -> str:
    lines = []
    if c.num_clbits > 0:
        lines.append(f"DECLARE ro BIT[{c.num_clbits}]")
    for op in c.ops:
        k, q = op.kind, op.qubits
        if k in (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z):
            lines.append(f"{k.value.upper()} {q[0]}")
        elif k in (GateKind.RX, GateKind.RY, GateKind.RZ):
            lines.append(f"{k.value.upper()}({_fmt(op.params[0])}) {q[0]}")
        elif k is GateKind.CNOT:
            lines.append(f"CNOT {q[0]} {q[1]}")
        elif k is GateKind.TOFFOLI:
            lines.append(f"CCNOT {q[0]} {q[1]} {q[2]}")
        elif k is GateKind.SWAP:
            lines.append(f"SWAP {q[0]} {q[1]}")
        elif k is GateKind.CPHASE:
            lines.append(f"CPHASE({_fmt(op.params[0])}) {q[0]} {q[1]}")
        else:
            lines.append(f"MEASURE {q[0]} ro[{op.clbit}]")
    return _join(lines)


def _emit_qiskit(c: Circuit) -> str:
    lines = [
        "from qiskit import QuantumCircuit",
        "",
        f"qc = QuantumCircuit({c.num_qubits}, {c.num_clbits})",
    ]
    for op in c.ops:
        k, q = op.kind, op.qubits
        if k in (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z):
            lines.append(f"qc.{k.value}({q[0]})")
        elif k in (GateKind.RX, GateKind.RY, GateKind.RZ):
            lines.append(f"qc.{k.value}({_fmt(op.params[0])}, {q[0]})")
        elif k is GateKind.CNOT:
            lines.append(f"qc.cx({q[0]}, {q[1]})")
        elif k is GateKind.TOFFOLI:
            lines.append(f"qc.ccx({q[0]}, {q[1]}, {q[2]})")
        elif k is GateKind.SWAP:
            lines.append(f"qc.swap({q[0]}, {q[1]})")
        elif k is GateKind.CPHASE:
            lines.append(f"qc.cp({_fmt(op.params[0])}, {q[0]}, {q[1]})")
        else:
            lines.append(f"qc.measure({q[0]}, {op.clbit})")
    return _join(lines)


_CIRQ_SINGLE = {GateKind.H: "H", GateKind.X: "X", GateKind.Y: "Y", GateKind.Z: "Z"}


def _emit_cirq(c: Circuit) -> str:
    lines = [
        "import cirq",
        "",
        f"q = cirq.LineQubit.range({c.num_qubits})",
        "circuit = cirq.Circuit()",
    ]
    for op in c.ops:
        k, q = op.kind, op.qubits
        if k in _CIRQ_SINGLE:
            lines.append(f"circuit.append(cirq.{_CIRQ_SINGLE[k]}(q[{q[0]}]))")
        elif k in (GateKind.RX, GateKind.RY, GateKind.RZ):
            lines.append(f"circuit.append(cirq.{k.value}({_fmt(op.params[0])}).on(q[{q[0]}]))")
        elif k is GateKind.CNOT:
            lines.append(f"circuit.append(cirq.CNOT(q[{q[0]}], q[{q[1]}]))")
        elif k is GateKind.TOFFOLI:
            lines.append(f"circuit.append(cirq.TOFFOLI(q[{q[0]}], q[{q[1]}], q[{q[2]}]))")
        elif k is GateKind.SWAP:
            lines.append(f"circuit.append(cirq.SWAP(q[{q[0]}], q[{q[1]}]))")
        elif k is GateKind.CPHASE:
            exponent = _fmt(op.params[0] / math.pi)
            lines.append(
                f"circuit.append(cirq.CZPowGate(exponent={exponent}).on(q[{q[0]}], q[{q[1]}]))"
            )
        else:
            lines.append(f'circuit.append(cirq.measure(q[{q[0]}], key="c{op.clbit}"))')
    return _join(lines)


_PENNYLANE_SINGLE = {
    GateKind.H: "Hadamard",
    GateKind.X: "PauliX",
    GateKind.Y: "PauliY",
    GateKind.Z: "PauliZ",
}


def _emit_pennylane(c: Circuit) -> str:
    lines = [
        "import pennylane as qml",
        "",
        f'dev = qml.device("default.qubit", wires={c.num_qubits}, shots=1000)',
        "",
        "@qml.qnode(dev)",
        "def circuit():",
    ]
    sampled: list[int] = []
    for op in c.ops:
        k, q = op.kind, op.qubits
        if k in _PENNYLANE_SINGLE:
            lines.append(f"    qml.{_PENNYLANE_SINGLE[k]}(wires={q[0]})")
        elif k in (GateKind.RX, GateKind.RY, GateKind.RZ):
            lines.append(f"    qml.{k.value.upper()}({_fmt(op.params[0])}, wires={q[0]})")
        elif k is GateKind.CNOT:
            lines.append(f"    qml.CNOT(wires=[{q[0]}, {q[1]}])")
        elif k is GateKind.TOFFOLI:
            lines.append(f"    qml.Toffoli(wires=[{q[0]}, {q[1]}, {q[2]}])")
        elif k is GateKind.SWAP:
            lines.append(f"    qml.SWAP(wires=[{q[0]}, {q[1]}])")
        elif k is GateKind.CPHASE:
            lines.append(
                f"    qml.ControlledPhaseShift({_fmt(op.params[0])}, wires=[{q[0]}, {q[1]}])"
            )
        else:
            lines.append(f"    # measure qubit {q[0]} -> clbit {op.clbit}")
            sampled.append(q[0])
    if sampled:
        samples = ", ".join(f"qml.sample(qml.PauliZ({w}))" for w in sampled)
        lines.append(f"    return [{samples}]")
    else:
        lines.append("    return qml.state()")
    return _join(lines)


def _emit_braket(c: Circuit) -> str:
    lines = [
        "from braket.circuits import Circuit",
        "",
        "circuit = Circuit()",
    ]
    for op in c.ops:
        k, q = op.kind, op.qubits
        if k in (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z):
            lines.append(f"circuit.{k.value}({q[0]})")
        elif k in (GateKind.RX, GateKind.RY, GateKind.RZ):
            lines.append(f"circuit.{k.value}({q[0]}, {_fmt(op.params[0])})")
        elif k is GateKind.CNOT:
            lines.append(f"circuit.cnot({q[0]}, {q[1]})")
        elif k is GateKind.TOFFOLI:
            lines.append(f"circuit.ccnot({q[0]}, {q[1]}, {q[2]})")
        elif k is GateKind.SWAP:
            lines.append(f"circuit.swap({q[0]}, {q[1]})")
        elif k is GateKind.CPHASE:
            lines.append(f"circuit.cphaseshift({q[0]}, {q[1]}, {_fmt(op.params[0])})")
        else:
            lines.append(f"circuit.measure({q[0]})  # clbit {op.clbit}")
    return _join(lines)


_EMITTERS = {
    "pyquil": _emit_pyquil,
    "qiskit": _emit_qiskit,
    "cirq": _emit_cirq,
    "pennylane": _emit_pennylane,
    "braket": _emit_braket,
}


def translate(circuit: Circuit, dialect: str) -> EmittedProgram:
    """Render the circuit as source text for one of the five dialects."""
    if dialect not in _EMITTERS:
        raise ValueError(f"unknown dialect {dialect!r}; expected one of {DIALECTS}")
    return EmittedProgram(dialect, _EMITTERS[dialect](circuit))


# ---------------------------------------------------------------------------
# ASCII diagram


def _glyphs(op: GateOp) -> dict[int, str]:
    k, q = op.kind, op.qubits
    if k is GateKind.MEASURE:
        return {q[0]: f"M{op.clbit}"}
    if k in (GateKind.RX, GateKind.RY, GateKind.RZ):
        return {q[0]: f"{k.value.upper()}({_fmt(op.params[0])})"}
    if k is GateKind.CNOT:
        return {q[0]: "*", q[1]: "+"}
    if k is GateKind.TOFFOLI:
        return {q[0]: "*", q[1]: "*", q[2]: "+"}
    if k is GateKind.SWAP:
        return {q[0]: "x", q[1]: "x"}
    if k is GateKind.CPHASE:
        return {q[0]: "*", q[1]: f"P({_fmt(op.params[0])})"}
    return {q[0]: k.value.upper()}


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
