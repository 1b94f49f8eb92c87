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
from collections.abc import Iterable
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


class _Record:
    """Value semantics over the fields that __match_args__ names, as a
    dataclass gives them: a keyword repr, equality of the field tuples with
    NotImplemented for any other class, and no hash, since a plain record's
    fields can be reassigned."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose __init__ sets each slot once, past the refusing
    __setattr__: assigning or deleting a field raises AttributeError, equal
    records hash alike, and pickle and copy call the class with the fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class GateOp(_Frozen):
    """One circuit instruction: a gate kind, its qubits, and any angle."""

    __match_args__ = __slots__ = ("kind", "qubits", "params", "clbit")

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...] = (),
                 clbit: int | None = None):
        # Stored as tuples, the angles as Python floats: equal ops compare and hash alike.
        qubits = tuple(qubits)
        if len(qubits) != kind.qubit_arity:
            raise ArityError(
                f"{kind.value} takes {kind.qubit_arity} qubit(s), got {len(qubits)}"
            )
        for q in qubits:
            if not isinstance(q, int) or isinstance(q, bool):
                raise ValidationError(f"qubit index {q!r} is not an integer")
        if len(set(qubits)) != len(qubits):
            raise DuplicateOperandError(
                f"{kind.value} operands must be distinct, got {list(qubits)}"
            )
        if len(params) != kind.param_count:
            raise ArityError(
                f"{kind.value} takes {kind.param_count} parameter(s), got {len(params)}"
            )
        # An exact float needs no ABC check and no conversion: add_gate hands
        # its angles over as a tuple of them, already converted.
        exact = type(params) is tuple
        for angle in params:
            if type(angle) is not float:
                exact = False
                if not isinstance(angle, numbers.Real):
                    raise ValidationError(f"angle {angle!r} is not a finite number")
            if not math.isfinite(angle):
                raise ValidationError(f"angle {angle!r} is not a finite number")
        if not exact:
            params = tuple(map(float, params))
        if (clbit is not None) != (kind is GateKind.MEASURE):
            raise ValidationError("clbit must be present exactly for measure")
        if clbit is not None and (not isinstance(clbit, int) or isinstance(clbit, bool)):
            raise ValidationError(f"classical-bit index {clbit!r} is not an integer")
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_params(self, params)
        _set_clbit(self, clbit)

    # Inline rather than through _values: the simulator's plan cache hashes
    # and compares every op of a circuit on each run.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.qubits, self.params, self.clbit) == (
                other.kind, other.qubits, other.params, other.clbit
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.qubits, self.params, self.clbit))


# The slots' own setters: __init__ stores each field past the refusing __setattr__.
_set_kind, _set_qubits, _set_params, _set_clbit = (
    vars(GateOp)[name].__set__ for name in GateOp.__slots__
)


class Circuit(_Record):
    """Ordered instruction list over num_qubits qubits and num_clbits classical bits.

    Construction is single-writer; once fully built a Circuit is treated as
    immutable and may be shared freely for emission and simulation.
    """

    __match_args__ = ("num_qubits", "num_clbits", "ops")

    def __init__(self, num_qubits: int, num_clbits: int = 0, ops: Iterable[GateOp] = ()):
        if not isinstance(num_qubits, int) or isinstance(num_qubits, bool):
            raise ValidationError("num_qubits must be an integer")
        if not isinstance(num_clbits, int) or isinstance(num_clbits, bool):
            raise ValidationError("num_clbits must be an integer")
        if num_qubits < 1:
            raise ValidationError(f"need at least 1 qubit, got {num_qubits}")
        if num_qubits > MAX_QUBITS:
            raise CapacityError(
                f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit simulation cap"
            )
        if num_clbits < 0:
            raise ValidationError(f"num_clbits must be >= 0, got {num_clbits}")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        # A list of its own: a tuple or an iterator can be appended to, and
        # the caller's list cannot change the circuit past `_check`.
        try:
            self.ops = list(ops)
        except TypeError:
            raise ValidationError(f"circuit ops must be an iterable of GateOps, got {ops!r}") from None
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
