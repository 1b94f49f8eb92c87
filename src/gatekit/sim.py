"""Dense statevector simulation with mid-circuit measurement and shot sampling.

Conventions:
  * qubit 0 is the least-significant bit of the amplitude index;
  * a counts key prints clbit nc-1 leftmost and clbit 0 rightmost;
  * measuring draws one uniform u per measure instruction and collapses to
    outcome 1 iff u < p1, then renormalizes the surviving branch;
  * shot s consumes its own substream derived from (seed, s), so shots can
    execute in any batching/order with identical results: numpy's
    default_rng(SeedSequence(entropy=zigzag(seed), spawn_key=(s,))).random(),
    computed for all shots of a chunk at once by `_draws`, one spawn word each.

Every gate is a two-level unitary (`gates.two_level`): one 2x2 block on the
pair of subspaces of the state row where its operands hold two given basis
states.  Gates update the row in place, and measures read it, through one
reshaped view (`_view`); the full 2^n x 2^n matrix is never materialized.
Each step runs the cheapest exact kernel for its block: a diagonal one
scales the pair, an anti-diagonal one exchanges it, and any other runs the
general 2x2 update, with results equal under np.array_equal.

run_shots and exact_distribution share one depth-first walk over measurement
histories (`_walk`).  A node owns one state row and holds the classical
register as an int, bit c for clbit c; at a measure it splits into its live
outcomes, by each shot's own draw when sampling or by branch probability
when enumerating, each child with its own collapsed row, so every reachable
history is simulated once however many shots follow it.  The registers
become key strings only in the result (`_keyed`).  The plan (`_plan`) runs
in dependency order: it skips gates outside the light cone of the measured
qubits and runs each unitary before every measure it does not depend on,
keeping every measure's draw and order.  It is one segment of steps before
each mid-circuit measure and one after the last, each step a callable that
takes the row and returns it.  The row holds only the live qubits: a qubit
enters at its first kept op and leaves at a measure that nothing later
reads.  The last segment ends at the last unitary; the trailing measures
after it run on the probability table of their k qubits, once per history,
for all of its rows at once (`_finish`).  Each can move a p1 by a few ulps
against a per-measure collapse of the full row in program order.

The simulator keeps the plan of the last circuit it ran, keyed on the
circuit's GateOps, so rerunning one circuit, with any seed or shot count or
as exact_distribution then run_shots, compiles it once, and a changed
circuit compiles again.  The plan holds 460-850 B a step (see the README).
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import BranchCapError, NoMeasurementError, SimError, ValidationError
from .ir import Circuit, GateKind, GateOp

# A selected measurement branch below this probability means the state is
# numerically corrupt; renormalizing would amplify garbage.
MIN_BRANCH_PROB = 1e-15

# exact_distribution follows at most 2^30 paths: it refuses more binary splits
# on one path (mid-circuit measures plus distinct trailing qubits) than this.
MEASURE_BRANCH_CAP = 30


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit register."""

    n: int
    amps: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        """The all-|0> state."""
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass
class ClassicalRegister:
    """nc classical bits, all zero at the start of each shot."""

    bits: list[int]

    @classmethod
    def zeros(cls, nc: int) -> "ClassicalRegister":
        return cls([0] * nc)

    def key(self) -> str:
        """Bitstring with the highest-index bit leftmost."""
        return "".join(str(b) for b in reversed(self.bits))


@dataclass
class Counts:
    """Occurrences per classical-register bitstring over a shot run."""

    entries: dict[str, int]
    shots: int

    def __getitem__(self, key: str) -> int:
        return self.entries[key]

    def get(self, key: str, default: int = 0) -> int:
        return self.entries.get(key, default)

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()


@dataclass
class ExactDistribution:
    """Exact probability of every reachable classical-register bitstring."""

    entries: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.entries[key]

    def get(self, key: str, default: float = 0.0) -> float:
        return self.entries.get(key, default)

    def items(self):
        return self.entries.items()


# ---------------------------------------------------------------------------
# kernels over one state row (2^n amplitudes); the gate kernels update it in place


def _view(n: int, qubits: tuple, *bits: tuple) -> tuple:
    """(shape, index per tuple in `bits`): the shape gives an n-qubit row an
    axis of 2 per operand qubit, highest first, and one axis per run of the
    other qubits around them; each index fixes qubits[i] to bits[i].  One
    qubit q gives the (outer, 2, inner) view."""
    shape, top, index = [], n, [[] for _ in bits]
    for i in sorted(range(len(qubits)), key=qubits.__getitem__, reverse=True):
        shape += (1 << top - 1 - qubits[i], 2)
        top = qubits[i]
        for ix, b in zip(index, bits):
            ix += (slice(None), b[i])
    shape.append(1 << top)
    return (tuple(shape), *map(tuple, index))


def _apply_general(shape: tuple, s0: tuple, s1: tuple, u: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Any 2x2 block u on the subspace pair (v[s0], v[s1]) of the row as `shape`."""
    v = amps.reshape(shape)
    low = v[s0].copy()
    v[s0] *= u[0, 0]
    v[s0] += u[0, 1] * v[s1]
    v[s1] *= u[1, 1]
    v[s1] += u[1, 0] * low
    return amps


def _scale(v: np.ndarray, s0: tuple, s1: tuple, d: tuple) -> None:
    """Scale v[s0] by d0 and v[s1] by d1, skipping a factor of exactly 1.
    Equal to `_apply_general` under np.array_equal: there the zero entries
    only add signed zeros."""
    for s, f in zip((s0, s1), d):
        if f != 1:
            v[s] *= f


def _apply_diag(shape: tuple, s0: tuple, s1: tuple, d: tuple, amps: np.ndarray) -> np.ndarray:
    """diag(d0, d1) on the subspace pair (`_scale`)."""
    _scale(amps.reshape(shape), s0, s1, d)
    return amps


def _apply_anti(shape: tuple, s0: tuple, s1: tuple, a: tuple, amps: np.ndarray) -> np.ndarray:
    """[[0, a0], [a1, 0]]: exchange the subspaces, then `_scale` them."""
    v = amps.reshape(shape)
    low = v[s0].copy()
    v[s0] = v[s1]
    v[s1] = low
    _scale(v, s0, s1, a)
    return amps


def _grow(k: int, amps: np.ndarray) -> np.ndarray:
    """The row with k new highest qubits, all |0>: zero past the old row."""
    return np.concatenate((amps, np.zeros(amps.size * ((1 << k) - 1), complex)))


def _branch_probs(amps: np.ndarray, n: int, q: int) -> tuple[float, float]:
    """(p0, p1) of measuring qubit q."""
    shape, *halves = _view(n, (q,), (0,), (1,))
    v = amps.reshape(shape)
    # Flattened first, each half is summed pairwise over one fixed order.
    return tuple(float(np.sum(np.abs(v[s].reshape(-1)) ** 2)) for s in halves)


def _collapse(amps: np.ndarray, n: int, q: int, outcome: int, p: float, close: bool = False) -> np.ndarray:
    """A new row: `amps` projected onto qubit q == outcome and renormalized
    by p, or with `close` that half alone, an (n-1)-qubit row without qubit
    q.  `amps` is never written."""
    if p < MIN_BRANCH_PROB:
        raise SimError("measurement branch probability is numerically zero")
    shape, keep = _view(n, (q,), (outcome,))
    half = amps.reshape(shape)[keep]
    if close:
        return (half / np.sqrt(p)).reshape(-1)
    row = np.zeros_like(amps)
    np.divide(half, np.sqrt(p), out=row.reshape(shape)[keep])
    return row


def _compile_step(n: int, k: GateKind, q: tuple, params: tuple) -> functools.partial:
    """One unitary, given by its parts, as a step: a kernel bound to (shape,
    s0, s1, block).  The gate's 2x2 block (`gates.two_level`) acts on the
    subspace pair s0, s1 where its operands q hold bits0 and bits1 in the row
    reshaped to `shape` (`_view`), and the block's zero pattern picks the
    kernel: `_apply_diag`, `_apply_anti` or `_apply_general`."""
    bits0, bits1, u = gates.two_level(k, params)
    pair = _view(n, q, bits0, bits1)
    if u[0, 1] == 0 and u[1, 0] == 0:
        return functools.partial(_apply_diag, *pair, (u[0, 0], u[1, 1]))
    if u[0, 0] == 0 and u[1, 1] == 0:
        return functools.partial(_apply_anti, *pair, (u[0, 1], u[1, 0]))
    return functools.partial(_apply_general, *pair, u)


# ---------------------------------------------------------------------------
# single-state operations


def _check_operands(state: StateVector, qubits) -> None:
    """Refuse a state whose amps are not 2^n long, or a qubit outside it."""
    if np.shape(state.amps) != (2**state.n,):
        raise SimError(f"amps of shape {np.shape(state.amps)} do not fit a {state.n}-qubit state")
    for q in qubits:
        if not 0 <= q < state.n:
            raise SimError(f"qubit {q} out of range for {state.n}-qubit state")


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Return the state transformed by one non-measure instruction."""
    if op.kind is GateKind.MEASURE:
        raise SimError("apply_gate cannot execute measure; use apply_measure")
    _check_operands(state, op.qubits)
    return StateVector(state.n, _compile_step(state.n, op.kind, op.qubits, op.params)(state.amps.astype(complex)))


def apply_measure(
    state: StateVector,
    q: int,
    c: int,
    reg: ClassicalRegister,
    rng,
) -> tuple[StateVector, ClassicalRegister]:
    """Measure qubit q into clbit c, collapsing the state.

    `rng` is any stream with a `random()` method; one uniform is consumed.
    """
    _check_operands(state, (q,))
    if not 0 <= c < len(reg.bits):
        raise SimError(f"clbit {c} out of range for {len(reg.bits)}-bit register")
    p = _branch_probs(state.amps, state.n, q)
    outcome = int(float(rng.random()) < p[1])
    amps = _collapse(state.amps, state.n, q, outcome, p[outcome])
    bits = list(reg.bits)
    bits[c] = outcome
    return StateVector(state.n, amps), ClassicalRegister(bits)


# ---------------------------------------------------------------------------
# shot execution


_M32 = 2**32 - 1
# numpy's SeedSequence hash constants.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier: its high and low words, then the low
# word's two 32-bit limbs, each a uint64 array so that every product wraps
# as an array op.
_PCG_HI, _PCG_LO, _PCG_LO0, _PCG_LO1 = (
    np.array([w], np.uint64) for w in (0x2360ED051FC65DA4, 0x4385DF649FCCF645, 0x9FCCF645, 0x4385DF64)
)


def _hash_consts(init: int, mult: int):
    """SeedSequence's running hash constant, as (xor, multiplier) per use."""
    while True:
        nxt = init * mult & _M32
        yield init, nxt
        init = nxt


def _const_cols(consts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The next k hash constants as two (k, 1) uint32 columns."""
    x, m = zip(*(next(consts) for _ in range(k)))
    return np.array(x, np.uint32)[:, None], np.array(m, np.uint32)[:, None]


def _hash(value, consts):
    # Works alike on Python ints and on uint32 arrays, which wrap mod 2^32.
    x, m = consts
    value = (value ^ x) * m & _M32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _mul128(ah, al):
    """(a * PCG64's multiplier) mod 2^128 on (hi, lo) uint64 pairs; mulhi
    via 32-bit limbs."""
    a0, a1 = al & _M32, al >> 32
    p01, p10 = a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = (a0 * _PCG_LO0 >> 32) + (p01 & _M32) + (p10 & _M32)
    mulhi = a1 * _PCG_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return mulhi + al * _PCG_HI + ah * _PCG_LO, al * _PCG_LO


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


def _draws(seed: int, start: int, size: int, n_meas: int) -> np.ndarray:
    """float64[size, n_meas]: row i is shot start+i's n_meas uniforms.

    Bit-identical to default_rng(SeedSequence(entropy=zigzag(seed),
    spawn_key=(s,))).random(n_meas) for start + size <= 2^32, computed for
    all shots at once: the seed-only part of the SeedSequence pool is hashed
    once as Python ints, each shot's one spawn word and generate_state(4,
    uint64) as uint32 arrays, and PCG64's LCG steps on uint64 (hi, lo) pairs.
    """
    # Zigzag maps any int seed onto the non-negative entropy SeedSequence
    # needs; its little-endian 32-bit words are zero-padded to the pool size.
    entropy = 2 * seed if seed >= 0 else -2 * seed - 1
    words = [entropy >> 32 * i & _M32 for i in range(max(4, (entropy.bit_length() + 31) // 32))]
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(w, next(consts)) for w in words[:4]]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = _mix(pool[j], _hash(pool[i], next(consts)))
    for w in words[4:]:
        pool = [_mix(p, _hash(w, next(consts))) for p in pool]
    pool = np.array(pool, np.uint32)[:, None]
    pool = _mix(pool, _hash(np.arange(start, start + size, dtype=np.uint32), _const_cols(consts, 4)))
    state = _hash(np.tile(pool, (2, 1)), _const_cols(_hash_consts(_INIT_B, _MULT_B), 8)).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = state[0::2] | state[1::2] << 32

    # PCG64 from inc = 2*initseq + 1 and state = inc + initstate: one step,
    # state = M*state + inc, seeds it, and each later step emits one draw by
    # XSL-RR.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    out = np.empty((size, n_meas))
    for k in range(-1, n_meas):
        hi, lo = _add128(*_mul128(hi, lo), inc_hi, inc_lo)
        if k >= 0:
            x, rot = hi ^ lo, hi >> 58
            out[:, k] = (x >> rot | x << ((64 - rot) & 63)) >> 11
    return out * 2.0**-53


@functools.lru_cache(maxsize=1)
def _plan(ops: tuple[GateOp, ...]) -> tuple[list[list], list[tuple], tuple, list[tuple]]:
    """(segments, measures, table, trailing): the circuit's ops in dependency
    order, with the same measured distributions and the same draw per
    measure.  Runs share the one plan kept and never change it.

    A backward scan keeps every measure and only the unitaries in the light
    cone of the measured qubits: one that shares a qubit with a later kept
    measure or kept unitary.  Measures keep their program order, and each
    kept unitary runs right after the latest earlier measure it depends on,
    through its qubits or the earlier gates on them, so it runs before every
    measure it does not depend on.

    measures[i] is (slot, clbit, close) for mid-circuit measure i, one before
    the last unitary, and segments[i] the steps (`_compile_step`) that run
    before it, over the slots of the row as it is then.  A qubit takes the
    next slot at its first kept op, after one `_grow` step for the k qubits
    that op brings in; a measure whose qubit no later kept op touches closes
    its slot, and the higher slots shift down.  The last segment ends at the
    last unitary and a grow of the trailing measures' untouched qubits.
    `table` holds the slots of the k distinct qubits the trailing measures
    read, in order of first appearance, and `trailing` one (j, clbit) per
    trailing measure, which measures qubit j of that k-qubit table.
    """
    needed, kept = set(), []
    for op in reversed(ops):
        if op.kind is GateKind.MEASURE or needed.intersection(op.qubits):
            needed.update(op.qubits)
            kept.append(op)
    # Group i > 0 opens with measure i-1; after[q] is the group of q's
    # latest measure or kept unitary so far.
    after, groups = {}, [[]]
    for op in reversed(kept):
        if op.kind is GateKind.MEASURE:
            groups.append([op])
            after[op.qubits[0]] = len(groups) - 1
        else:
            g = max(after.get(q, 0) for q in op.qubits)
            groups[g].append(op)
            after.update((q, g) for q in op.qubits)
    ops = [op for group in groups for op in group]
    # The last kept op is always a measure, so the trailing table is never empty.
    head = max((i + 1 for i, op in enumerate(ops) if op.kind is not GateKind.MEASURE), default=0)
    last = {q: i for i, op in enumerate(ops) for q in op.qubits}
    live, segments, measures = [], [[]], []

    def grow(qubits):
        new = [q for q in qubits if q not in live]
        if new:
            segments[-1].append(functools.partial(_grow, len(new)))
            live.extend(new)

    for i, op in enumerate(ops[:head]):
        grow(op.qubits)
        slots = tuple(map(live.index, op.qubits))
        if op.kind is GateKind.MEASURE:
            close = last[op.qubits[0]] == i
            measures.append((slots[0], op.clbit, close))
            if close:
                live.remove(op.qubits[0])
            segments.append([])
        else:
            segments[-1].append(_compile_step(len(live), op.kind, slots, op.params))
    qubits = tuple(dict.fromkeys(op.qubits[0] for op in ops[head:]))
    grow(qubits)
    trailing = [(qubits.index(op.qubits[0]), op.clbit) for op in ops[head:]]
    return segments, measures, tuple(map(live.index, qubits)), trailing


def _marginal_table(amps: np.ndarray, n: int, qubits: tuple) -> np.ndarray:
    """The joint distribution of `qubits` as a real k-qubit table whose qubit
    j is qubits[j]: |amps|^2 once, then every other qubit summed out, highest
    first, as one add of its two halves."""
    t = (np.abs(amps) ** 2).reshape((2,) * n)
    for q in sorted(set(range(n)) - set(qubits), reverse=True):
        ix = (slice(None),) * sum(m > q for m in qubits)
        t = t[ix + (0,)] + t[ix + (1,)]
    axes = sorted(qubits, reverse=True)
    return t.transpose([axes.index(q) for q in reversed(qubits)]).reshape(-1)


def _finish(table: np.ndarray, trailing: list[tuple], mi: int, reg: int, payload, split):
    """Run the trailing measures, (j, clbit) pairs, on a k-qubit probability
    table for all rows of `payload` at once; return (regs, inverse, payload):
    the register `reg` with the trailing measures' clbits written, one int
    per distinct outcome, and per row the index of its register.

    A row's code holds the outcomes of the table qubits fixed so far, which
    are 0..j-1 when qubit j is first measured.  At that measure (m0, m1) is
    the table summed over the qubits above j, read at the code with bit j
    clear and set, and `split` gets p = (m0, m1) / (m0 + m1).  A repeated
    qubit keeps its outcome and draws nothing; its draw column `mi` advances.
    """
    codes, fixed, bit = np.zeros(len(payload), np.int64), 0, np.array([[0], [1]])
    for mi, (j, c) in enumerate(trailing, mi):
        if j == fixed:
            m = table.reshape(-1, 2 << j).sum(0)[codes | bit << j]
            parent, outcome, payload = split(payload, mi, m / (m[0] + m[1]))
            codes = codes[parent] | outcome << j
            fixed += 1
    # Each clbit ends as the bit of the table qubit last measured into it.
    last = {c: j for j, c in trailing}
    reg &= ~sum(1 << c for c in last)
    codes, inverse = np.unique(codes, return_inverse=True)
    regs = [reg | sum((code >> j & 1) << c for c, j in last.items()) for code in codes.tolist()]
    return regs, inverse, payload


def _walk(plan: tuple, root, split):
    """Depth-first over measurement histories; yields `_finish`'s (regs,
    inverse, payload) per history past the plan's last segment.

    A node (i, amps, reg, payload) runs segment i next, and i is also the
    draw column of the measure after it.  It owns one state row, at first
    the single amplitude 1, and holds the classical register as an int, bit
    c for clbit c, and a mode payload of rows: shots when sampling, one
    weight in exact mode.  `split(payload, mi, p)` takes (p0, p1) per row as
    a (2, rows) array, or (2, 1) for all rows alike, and returns (parent,
    outcome, payload) for the rows that go on.  At a mid-circuit measure the
    node's rows of each outcome form a child, outcome 0 run first, with its
    own row collapsed from the node's (`_collapse`).  Only rows of pending
    siblings on the current path are held, never one per shot.  Past the
    last segment, the probability table of the plan's table slots
    (`_marginal_table`) goes to `_finish` with the trailing measures.
    """
    segments, measures, table, trailing = plan
    stack = [(0, np.ones(1, complex), 0, root)]
    while stack:
        i, amps, reg, payload = stack.pop()
        for step in segments[i]:
            amps = step(amps)
        n = amps.size.bit_length() - 1
        if i == len(measures):
            yield _finish(_marginal_table(amps, n, table), trailing, i, reg, payload, split)
            continue
        q, c, close = measures[i]
        p = _branch_probs(amps, n, q)
        _, outcomes, payload = split(payload, i, np.array(p)[:, None])
        for outcome in (1, 0):
            if len(sub := payload[outcomes == outcome]):
                row = _collapse(amps, n, q, outcome, p[outcome], close)
                stack.append((i + 1, row, reg & ~(1 << c) | outcome << c, sub))


def _keyed(tally: dict, nc: int) -> dict:
    """`tally` keyed by bitstring, clbit nc-1 leftmost, in the same order."""
    return {format(reg, f"0{nc}b"): value for reg, value in tally.items()}


def run_shots(circuit: Circuit, shots: int, seed: int = 0, *, chunk_size: int = 4096) -> Counts:
    """Execute the circuit shots times and count classical-register bitstrings.

    Each shot starts from |0...0> with a zeroed register.  Shots share the
    measurement-branch walk (`_walk`): a node's shots split by their own
    draw, `u < p1`, so each distinct history is simulated once and a leaf
    adds its number of shots to its key.  `chunk_size` only bounds how many
    shots' draws (`_draws`) are held at once; it never changes the returned
    Counts.
    """
    if not circuit.has_measurement():
        raise NoMeasurementError("circuit has no measure instruction")
    try:
        shots, seed, chunk_size = map(operator.index, (shots, seed, chunk_size))
    except TypeError:
        raise ValidationError(f"shots, seed and chunk_size must be integers, got {(shots, seed, chunk_size)}") from None
    if not 1 <= shots <= 2**32:  # so that each shot's stream has one spawn word
        raise ValidationError(f"shots must be from 1 to 2^32, got {shots}")
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")

    plan = _plan(tuple(circuit.ops))
    n_meas = sum(op.kind is GateKind.MEASURE for op in circuit.ops)
    counts: dict[int, int] = {}

    for start in range(0, shots, chunk_size):
        size = min(chunk_size, shots - start)
        draws = _draws(seed, start, size, n_meas)

        def split(idx, mi, p):
            one = draws[idx, mi] < p[1]
            # Written so that a NaN probability raises as well.
            if not np.where(one, p[1], p[0]).min() >= MIN_BRANCH_PROB:
                raise SimError("measurement branch probability is numerically zero")
            return np.arange(len(idx)), one, idx

        for regs, inverse, _ in _walk(plan, np.arange(size), split):
            for reg, count in zip(regs, np.bincount(inverse).tolist()):
                counts[reg] = counts.get(reg, 0) + count

    return Counts(_keyed(counts, circuit.num_clbits), shots)


def exact_distribution(circuit: Circuit) -> ExactDistribution:
    """Exact outcome probabilities by expanding every measurement branch.

    The same walk as `run_shots` (`_walk`), with a probability weight in
    place of the shots: each branch with p > MIN_BRANCH_PROB is followed with
    weight w*p, and a leaf adds its weight to its key.  No random draws.
    """
    if not circuit.has_measurement():
        raise NoMeasurementError("circuit has no measure instruction")
    _, measures, table, _ = plan = _plan(tuple(circuit.ops))
    splits = len(measures) + len(table)
    if splits > MEASURE_BRANCH_CAP:
        raise BranchCapError(f"{splits} branch points on one path exceed the {MEASURE_BRANCH_CAP}-branch cap")

    def split(weight, mi, p):
        parent, outcome = np.nonzero(p.T > MIN_BRANCH_PROB)
        return parent, outcome, weight[parent] * p[outcome, parent]

    probs: dict[int, float] = {}
    for regs, inverse, weight in _walk(plan, np.ones(1), split):
        for reg, p in zip(regs, np.bincount(inverse, weight).tolist()):
            probs[reg] = probs.get(reg, 0.0) + p
    return ExactDistribution(_keyed(probs, circuit.num_clbits))
