"""Exception hierarchy shared by all gatekit modules."""


class GatekitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GatekitError, ValueError):
    """A value violates a structural constraint (counts, signs, finiteness)."""


class CapacityError(GatekitError):
    """Requested circuit exceeds the dense-simulation qubit cap."""


class UnknownGateError(GatekitError):
    """Gate name does not resolve to any known gate or alias."""


class ArityError(GatekitError):
    """Operand or parameter count does not match the gate's signature."""


class DuplicateOperandError(GatekitError):
    """The same qubit appears more than once in one gate's operands."""


class OperandRangeError(GatekitError, IndexError):
    """A qubit or classical-bit index falls outside the circuit's registers."""


class SemanticsError(GatekitError):
    """No unitary exists for the requested operation (e.g. measure)."""


class SimError(GatekitError):
    """Simulation failed (bad operand, numerically corrupt state)."""


class NoMeasurementError(SimError):
    """Shot execution requested for a circuit with no measure instruction."""


class BranchCapError(SimError):
    """Exact enumeration requested beyond the measurement branch cap."""


class ParseError(GatekitError):
    """Circuit file rejected; carries the 1-based line number of the offence."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
