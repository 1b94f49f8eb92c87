"""The gate set as data: one 2x2 block per non-measure kind.

A k-qubit gate is two-level (`two_level`): its block u acts on two basis
states of its operands, bits0 and bits1, and it is the identity on all the
others.  For swap they are |01> and |10> and u is X; for every other gate
they are the controls at 1 with the target at 0 and 1, so cnot and toffoli
are X and cphase(t) is diag(1, e^{it}) on the target.

`unitary_of` embeds the block in the 2^k x 2^k identity over the basis
|q_first q_second ...>, the FIRST listed operand the most significant bit of
the local index, so CNOT is [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]] over
|control,target>.  Global phases follow the package's fixed conventions,
e.g. RZ(t) = diag(e^{-it/2}, e^{+it/2}); no re-phasing is applied.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ArityError, SemanticsError
from .ir import GateKind

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex)


# Each kind's block as a function of its angles.
_BLOCKS = {
    GateKind.H: lambda: np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    GateKind.X: _x,
    GateKind.Y: lambda: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: lambda: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.RX: _rx,
    GateKind.RY: _ry,
    GateKind.RZ: _rz,
    GateKind.CNOT: _x,
    GateKind.TOFFOLI: _x,
    GateKind.SWAP: _x,
    GateKind.CPHASE: lambda theta: np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex),
}


def two_level(kind: GateKind, params: tuple[float, ...] = ()) -> tuple[tuple, tuple, np.ndarray]:
    """(bits0, bits1, u): the gate is the 2x2 block u, a fresh array, on the
    operand basis states bits0 and bits1 (one bit per operand, in operand
    order), and the identity on every other state."""
    if kind is GateKind.MEASURE:
        raise SemanticsError("measure has no unitary")
    if len(params) != kind.param_count:
        raise ArityError(
            f"{kind.value} takes {kind.param_count} parameter(s), got {len(params)}"
        )
    u = _BLOCKS[kind](*map(float, params))
    if kind is GateKind.SWAP:
        return (0, 1), (1, 0), u
    ones = (1,) * (kind.qubit_arity - 1)
    return ones + (0,), ones + (1,), u


def unitary_of(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """Return the 2^k x 2^k unitary of a k-qubit gate as a fresh array."""
    bits0, bits1, u = two_level(kind, params)
    index = [int("".join(map(str, bits)), 2) for bits in (bits0, bits1)]
    full = np.eye(1 << len(bits0), dtype=complex)
    full[np.ix_(index, index)] = u
    return full


def is_unitary(u: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff max|U†U - I| <= tol entrywise."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    dev = u.conj().T @ u - np.eye(u.shape[0])
    return bool(np.max(np.abs(dev)) <= tol)
