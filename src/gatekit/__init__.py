"""gatekit: build quantum circuits over a twelve-gate set, emit them as source
text for five frameworks, and simulate them with a seeded shot-based
statevector engine."""

from .algos import (
    FactorReport,
    ShorConfig,
    build_bell,
    build_shor15,
    estimate_period,
    extract_factors,
    extract_measured_values,
    run_shor15_pipeline,
)
from .dsl import parse, serialize
from .emit import DIALECTS, EmittedProgram, print_circuit, translate
from .errors import (
    ArityError,
    BranchCapError,
    CapacityError,
    DuplicateOperandError,
    GatekitError,
    NoMeasurementError,
    OperandRangeError,
    ParseError,
    SemanticsError,
    SimError,
    UnknownGateError,
    ValidationError,
)
from .gates import is_unitary, unitary_of
from .ir import MAX_QUBITS, Circuit, GateKind, GateOp, resolve_gate_name
from .sim import (
    ClassicalRegister,
    Counts,
    ExactDistribution,
    StateVector,
    apply_gate,
    apply_measure,
    exact_distribution,
    run_shots,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BranchCapError",
    "CapacityError",
    "Circuit",
    "ClassicalRegister",
    "Counts",
    "DIALECTS",
    "DuplicateOperandError",
    "EmittedProgram",
    "ExactDistribution",
    "FactorReport",
    "GateKind",
    "GateOp",
    "GatekitError",
    "MAX_QUBITS",
    "NoMeasurementError",
    "OperandRangeError",
    "ParseError",
    "SemanticsError",
    "ShorConfig",
    "SimError",
    "StateVector",
    "UnknownGateError",
    "ValidationError",
    "apply_gate",
    "apply_measure",
    "build_bell",
    "build_shor15",
    "estimate_period",
    "exact_distribution",
    "extract_factors",
    "extract_measured_values",
    "is_unitary",
    "parse",
    "print_circuit",
    "resolve_gate_name",
    "run_shor15_pipeline",
    "run_shots",
    "serialize",
    "translate",
    "unitary_of",
]
