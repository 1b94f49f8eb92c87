"""Circuit intermediate representation: twelve gate kinds, instructions, circuits.

Gate set: h, x, y, z, rx, ry, rz, cnot, toffoli, swap, cphase, measure.
Angles are double-precision radians.  For controlled gates the operand order
is [control, target] (cnot, cphase) and [control0, control1, target]
(toffoli).  A measure instruction pairs one qubit with one classical bit;
later measures into the same classical bit overwrite earlier results.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    ArityError,
    CapacityError,
    DuplicateOperandError,
    OperandRangeError,
    UnknownGateError,
    ValidationError,
)

# Dense statevector simulation caps circuits at 2^24 amplitudes (~256 MiB).
MAX_QUBITS = 24


class GateKind(Enum):
    """One row per kind: (name, qubit_arity, param_count); the name is the value."""

    H = ("h", 1, 0)
    X = ("x", 1, 0)
    Y = ("y", 1, 0)
    Z = ("z", 1, 0)
    RX = ("rx", 1, 1)
    RY = ("ry", 1, 1)
    RZ = ("rz", 1, 1)
    CNOT = ("cnot", 2, 0)
    TOFFOLI = ("toffoli", 3, 0)
    SWAP = ("swap", 2, 0)
    CPHASE = ("cphase", 2, 1)
    MEASURE = ("measure", 1, 0)

    def __new__(cls, name: str, qubit_arity: int, param_count: int):
        kind = object.__new__(cls)
        kind._value_, kind.qubit_arity, kind.param_count = name, qubit_arity, param_count
        return kind


# Every lower-case gate name and alias -> its kind.
_BY_NAME = {
    **{kind.value: kind for kind in GateKind},
    "ccnot": GateKind.TOFFOLI,
    "cx": GateKind.CNOT,
    "cp": GateKind.CPHASE,
}


def resolve_gate_name(name: str) -> GateKind:
    """Resolve a gate name (any casing, aliases allowed) to its GateKind."""
    kind = _BY_NAME.get(name.lower())
    if kind is None:
        raise UnknownGateError(f"unknown gate name {name!r}")
    return kind


@dataclass(frozen=True)
class GateOp:
    """One circuit instruction: a gate kind, its qubits, and any angle."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    def __post_init__(self):
        # Stored as tuples, the angles as Python floats: equal ops compare and hash alike.
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != self.kind.qubit_arity:
            raise ArityError(
                f"{self.kind.value} takes {self.kind.qubit_arity} qubit(s), "
                f"got {len(self.qubits)}"
            )
        for q in self.qubits:
            if not isinstance(q, int) or isinstance(q, bool):
                raise ValidationError(f"qubit index {q!r} is not an integer")
        if len(set(self.qubits)) != len(self.qubits):
            raise DuplicateOperandError(
                f"{self.kind.value} operands must be distinct, got {list(self.qubits)}"
            )
        if len(self.params) != self.kind.param_count:
            raise ArityError(
                f"{self.kind.value} takes {self.kind.param_count} parameter(s), "
                f"got {len(self.params)}"
            )
        # An exact float needs no ABC check and no conversion: add_gate hands
        # its angles over as a tuple of them, already converted.
        exact = type(self.params) is tuple
        for angle in self.params:
            if type(angle) is not float:
                exact = False
                if not isinstance(angle, numbers.Real):
                    raise ValidationError(f"angle {angle!r} is not a finite number")
            if not math.isfinite(angle):
                raise ValidationError(f"angle {angle!r} is not a finite number")
        if not exact:
            object.__setattr__(self, "params", tuple(map(float, self.params)))
        if (self.clbit is not None) != (self.kind is GateKind.MEASURE):
            raise ValidationError("clbit must be present exactly for measure")
        if self.clbit is not None and (not isinstance(self.clbit, int) or isinstance(self.clbit, bool)):
            raise ValidationError(f"classical-bit index {self.clbit!r} is not an integer")


@dataclass
class Circuit:
    """Ordered instruction list over num_qubits qubits and num_clbits classical bits.

    Construction is single-writer; once fully built a Circuit is treated as
    immutable and may be shared freely for emission and simulation.
    """

    num_qubits: int
    num_clbits: int = 0
    ops: list[GateOp] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.num_qubits, int) or isinstance(self.num_qubits, bool):
            raise ValidationError("num_qubits must be an integer")
        if not isinstance(self.num_clbits, int) or isinstance(self.num_clbits, bool):
            raise ValidationError("num_clbits must be an integer")
        if self.num_qubits < 1:
            raise ValidationError(f"need at least 1 qubit, got {self.num_qubits}")
        if self.num_qubits > MAX_QUBITS:
            raise CapacityError(
                f"{self.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit simulation cap"
            )
        if self.num_clbits < 0:
            raise ValidationError(f"num_clbits must be >= 0, got {self.num_clbits}")
        # A list of its own: a tuple or an iterator can be appended to, and
        # the caller's list cannot change the circuit past `_check`.
        try:
            self.ops = list(self.ops)
        except TypeError:
            raise ValidationError(f"circuit ops must be an iterable of GateOps, got {self.ops!r}") from None
        for op in self.ops:
            self._check(op)

    def add_gate(self, name: str, operands: list[int], params: list[float] = ()) -> "Circuit":
        """Append one instruction; on any validation error the circuit is unchanged.

        For measure the operands are [qubit, clbit]; for everything else they
        are the gate's qubits in [control..., target] order.
        """
        kind = resolve_gate_name(name)
        if kind is GateKind.MEASURE and len(operands) != 2:
            raise ArityError(f"measure takes [qubit, clbit], got {list(operands)}")
        try:
            params = tuple(map(float, params))
        except (TypeError, ValueError):
            raise ValidationError(f"{kind.value} angles must be numbers, got {params!r}") from None
        if kind is GateKind.MEASURE:
            op = GateOp(kind, (operands[0],), params, operands[1])
        else:
            op = GateOp(kind, tuple(operands), params)
        return self.append(op)

    def append(self, op: GateOp) -> "Circuit":
        """Append an already-built GateOp after checking it (`_check`)."""
        self._check(op)
        self.ops.append(op)
        return self

    def _check(self, op: GateOp) -> None:
        """Refuse an entry that is not a GateOp or reads outside the registers."""
        if not isinstance(op, GateOp):
            raise ValidationError(f"circuit ops must be GateOps, got {op!r}")
        for q in op.qubits:
            if not 0 <= q < self.num_qubits:
                raise OperandRangeError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        if op.clbit is not None and not 0 <= op.clbit < self.num_clbits:
            raise OperandRangeError(
                f"clbit {op.clbit} out of range for {self.num_clbits} classical bits"
            )

    def has_measurement(self) -> bool:
        return any(op.kind is GateKind.MEASURE for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)
