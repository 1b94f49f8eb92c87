"""Shared test utilities: random circuit generation (seeded and as a
Hypothesis strategy), a reader that parses emitted source back into ops, an
independent dense-matrix oracle for cross-checking the simulator kernels,
numpy's own per-shot stream as the oracle for the vectorised draws, and the
per-shot replay and recursive enumeration that the branch walk replaced, kept
as oracles for it."""
from __future__ import annotations

import functools
import math
import re
import string

import numpy as np
from hypothesis import strategies as st

from gatekit.emit import _LINES
from gatekit.errors import SimError
from gatekit.gates import unitary_of
from gatekit.ir import Circuit, GateKind, GateOp
from gatekit.sim import (
    MIN_BRANCH_PROB,
    Counts,
    ExactDistribution,
    _apply_general,
    _compile_step,
)

SINGLE_QUBIT = (
    GateKind.H,
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.RX,
    GateKind.RY,
    GateKind.RZ,
)
TWO_QUBIT = (GateKind.CNOT, GateKind.SWAP, GateKind.CPHASE)


def _shot_stream(seed: int, shot: int) -> np.random.Generator:
    """Shot `shot`'s stream as numpy builds it; `sim._draws` must match it bit for bit."""
    # Zigzag maps any int seed onto the non-negative entropy SeedSequence needs.
    entropy = 2 * seed if seed >= 0 else -2 * seed - 1
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(shot,)))


def random_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    num_gates: int,
    num_clbits: int = 0,
    measure_prob: float = 0.0,
) -> Circuit:
    """Random valid circuit; measures appear with measure_prob per slot."""
    circuit = Circuit(num_qubits, num_clbits)
    for _ in range(num_gates):
        if num_clbits and rng.random() < measure_prob:
            q = int(rng.integers(num_qubits))
            c = int(rng.integers(num_clbits))
            circuit.add_gate("measure", [q, c])
            continue
        kinds = list(SINGLE_QUBIT)
        if num_qubits >= 2:
            kinds += list(TWO_QUBIT)
        if num_qubits >= 3:
            kinds.append(GateKind.TOFFOLI)
        kind = kinds[rng.integers(len(kinds))]
        qubits = [int(q) for q in rng.choice(num_qubits, size=kind.qubit_arity, replace=False)]
        params = [float(a) for a in rng.uniform(-2 * math.pi, 2 * math.pi, size=kind.param_count)]
        circuit.add_gate(kind.value, qubits, params)
    return circuit


def _circuits():
    """Hypothesis strategy: circuits of 1-6 qubits, 0-4 clbits and up to 12 ops."""
    gate_kinds = st.sampled_from(
        [k for k in GateKind if k is not GateKind.MEASURE] + [GateKind.MEASURE] * 3
    )
    angles = st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
    )

    @st.composite
    def build(draw):
        nq = draw(st.integers(1, 6))
        nc = draw(st.integers(0, 4))
        circuit = Circuit(nq, nc)
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(gate_kinds)
            if kind is GateKind.MEASURE:
                if nc == 0:
                    continue
                circuit.add_gate("measure", [draw(st.integers(0, nq - 1)), draw(st.integers(0, nc - 1))])
                continue
            if kind.qubit_arity > nq:
                continue
            qubits = draw(
                st.lists(st.integers(0, nq - 1), min_size=kind.qubit_arity,
                         max_size=kind.qubit_arity, unique=True)
            )
            params = [draw(angles)] * kind.param_count
            circuit.add_gate(kind.value, qubits, params)
        return circuit

    return build()


# one regex group per format field of an emitter line pattern
_FIELD_RE = {
    "0": r"(?P<q0>\d+)",
    "1": r"(?P<q1>\d+)",
    "2": r"(?P<q2>\d+)",
    "t": r"(?P<t>[-+.\de]+)",
    "t_pi": r"(?P<t_pi>[-+.\de]+)",
    "c": r"(?P<c>\d+)",
}


def _line_regex(pattern: str) -> re.Pattern:
    parts = []
    for literal, field, _, _ in string.Formatter().parse(pattern):
        parts.append(re.escape(literal))
        if field is not None:
            parts.append(_FIELD_RE[field])
    return re.compile("".join(parts))


_LINE_READERS = {
    dialect: [(kind, _line_regex(pattern)) for kind, pattern in table.items()]
    for dialect, table in _LINES.items()
}


def read_ops(source: str, dialect: str) -> list[GateOp]:
    """Read the ops back out of translate(c, dialect).source.

    Each line that matches one of the dialect's line patterns becomes one op;
    head and tail lines match none and are skipped.  cirq's cphase exponent
    is read as theta/pi and multiplied back by pi.
    """
    ops = []
    for line in source.splitlines():
        matches = [(k, m) for k, rx in _LINE_READERS[dialect] if (m := rx.fullmatch(line))]
        if not matches:
            continue
        assert len(matches) == 1, f"{dialect} line {line!r} matches several kinds"
        kind, m = matches[0]
        fields = m.groupdict()
        qubits = tuple(int(fields[f"q{i}"]) for i in range(kind.qubit_arity))
        if "t" in fields:
            params = (float(fields["t"]),)
        elif "t_pi" in fields:
            params = (float(fields["t_pi"]) * math.pi,)
        else:
            params = ()
        clbit = int(fields["c"]) if "c" in fields else None
        ops.append(GateOp(kind, qubits, params, clbit))
    return ops


def dense_gate_matrix(n: int, qubits: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Full 2^n x 2^n matrix of a gate, built entry-by-entry from basis states.

    Deliberately shares no code with the simulator: for each basis column j
    the gate's local input index is read off qubit bits (first operand most
    significant), then every local output index scatters into its own row.
    """
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(2**n):
        loc_in = 0
        for q in qubits:
            loc_in = (loc_in << 1) | ((j >> q) & 1)
        for loc_out in range(2**k):
            i = j
            for b, q in enumerate(qubits):
                bit = (loc_out >> (k - 1 - b)) & 1
                i = (i & ~(1 << q)) | (bit << q)
            full[i, j] += u[loc_out, loc_in]
    return full


def dense_final_state(circuit: Circuit) -> np.ndarray:
    """Final statevector of a measurement-free circuit via the dense oracle."""
    state = np.zeros(2**circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for op in circuit.ops:
        assert op.kind is not GateKind.MEASURE
        u = unitary_of(op.kind, op.params)
        state = dense_gate_matrix(circuit.num_qubits, op.qubits, u) @ state
    return state


def tv_distance(counts, dist) -> float:
    """Total-variation distance between sampled frequencies and a distribution."""
    keys = set(counts.entries) | set(dist.entries)
    return 0.5 * sum(
        abs(counts.get(k, 0) / counts.shots - dist.get(k, 0.0)) for k in keys
    )


def _row_sel(n: int, q: int, bit: int) -> tuple:
    """Index tuple over a (batch, 2, ..., 2) tensor fixing qubit q to bit."""
    sel = [slice(None)] * (n + 1)
    sel[n - q] = bit
    return tuple(sel)


def _measure_batch(states: np.ndarray, n: int, q: int, draws: np.ndarray) -> np.ndarray:
    """Collapse qubit q in place for every row; returns the outcome per row."""
    batch = states.shape[0]
    t = states.reshape((batch,) + (2,) * n)
    sel0, sel1 = _row_sel(n, q, 0), _row_sel(n, q, 1)
    p0 = np.sum(np.abs(t[sel0].reshape(batch, -1)) ** 2, axis=1)
    p1 = np.sum(np.abs(t[sel1].reshape(batch, -1)) ** 2, axis=1)
    outcome = draws < p1
    selected = np.where(outcome, p1, p0)
    if np.any(selected < MIN_BRANCH_PROB):
        raise SimError("measurement branch probability is numerically zero")
    t[sel0][outcome] = 0.0
    t[sel1][~outcome] = 0.0
    states /= np.sqrt(selected)[:, None]
    return outcome


def general_step(n: int, op: GateOp) -> functools.partial:
    """The op as the simulator's general update on its planned subspace pair,
    with the 2x2 block read off its full `unitary_of` matrix: the |01>, |10>
    block for swap, the last two rows and columns otherwise."""
    u = unitary_of(op.kind, op.params)
    block = u[1:3, 1:3] if op.kind is GateKind.SWAP else u[-2:, -2:]
    return functools.partial(_apply_general, *_compile_step(n, op.kind, op.qubits, op.params).args[:3], block)


def _reference_plan(circuit: Circuit) -> list:
    """One step per op on the full row, in program order: every unitary as
    its `general_step` and every measure as its GateOp.  None of the
    simulator's diag and anti constants or its terminal-measure table."""
    n = circuit.num_qubits
    return [op if op.kind is GateKind.MEASURE else general_step(n, op) for op in circuit.ops]


def reference_run_shots(circuit: Circuit, shots: int, seed: int = 0, *, chunk_size: int = 4096) -> Counts:
    """run_shots by replaying every instruction on one state row per shot,
    in chunks of chunk_size shots, with the same per-shot streams."""
    plan = _reference_plan(circuit)
    n, nc = circuit.num_qubits, circuit.num_clbits
    n_meas = sum(isinstance(step, GateOp) for step in plan)
    counts: dict[str, int] = {}
    for start in range(0, shots, chunk_size):
        size = min(chunk_size, shots - start)
        draws = np.empty((size, n_meas))
        for i in range(size):
            draws[i] = _shot_stream(seed, start + i).random(n_meas)
        states = np.zeros((size, 2**n), dtype=complex)
        states[:, 0] = 1.0
        creg = np.zeros((size, nc), dtype=np.uint8)
        mi = 0
        for step in plan:
            if isinstance(step, GateOp):
                creg[:, step.clbit] = _measure_batch(states, n, step.qubits[0], draws[:, mi])
                mi += 1
            else:
                for row in states:
                    step(row)
        for row in creg:
            key = "".join("1" if b else "0" for b in row[::-1])
            counts[key] = counts.get(key, 0) + 1
    return Counts(counts, shots)


def reference_exact_distribution(circuit: Circuit) -> ExactDistribution:
    """exact_distribution by recursing into both outcomes of each measure,
    on a fresh copy of the state per branch."""
    plan = _reference_plan(circuit)
    n, nc = circuit.num_qubits, circuit.num_clbits
    probs: dict[str, float] = {}

    def walk(amps: np.ndarray, bits: list[int], idx: int, weight: float) -> None:
        for i in range(idx, len(plan)):
            step = plan[i]
            if not isinstance(step, GateOp):
                step(amps)
                continue
            q, c = step.qubits[0], step.clbit
            t = amps.reshape((2,) * n)
            ax = n - 1 - q
            sel0 = [slice(None)] * n
            sel1 = [slice(None)] * n
            sel0[ax] = 0
            sel1[ax] = 1
            p0 = float(np.sum(np.abs(t[tuple(sel0)]) ** 2))
            p1 = float(np.sum(np.abs(t[tuple(sel1)]) ** 2))
            for outcome, p in ((0, p0), (1, p1)):
                if p <= MIN_BRANCH_PROB:
                    continue
                sel = [slice(None)] * n
                sel[ax] = 1 - outcome
                branch = t.copy()
                branch[tuple(sel)] = 0.0
                branch_bits = list(bits)
                branch_bits[c] = outcome
                walk(branch.reshape(-1) / np.sqrt(p), branch_bits, i + 1, weight * p)
            return
        key = "".join(str(b) for b in reversed(bits))
        probs[key] = probs.get(key, 0.0) + weight

    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    walk(amps, [0] * nc, 0, 1.0)
    return ExactDistribution(probs)
