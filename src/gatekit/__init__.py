"""gatekit: build quantum circuits over a twelve-gate set, emit them as source
text for five frameworks, and simulate them with a seeded shot-based
statevector engine.

`_EXPORTS` maps each public name to the submodule that defines it, and
`__all__` is its sorted keys.  Names and submodules load on first use
(PEP 562), so `import gatekit` loads no submodule and numpy is imported only
when `gates`, `sim` or something that simulates is first used.  A name is
looked up in its submodule on every read and never stored here: a function
replaced in its submodule is seen at once through the package.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        ("FactorReport", "ShorConfig", "build_bell", "build_shor15", "estimate_period",
         "extract_factors", "extract_measured_values", "run_shor15_pipeline"),
        "algos",
    ),
    **dict.fromkeys(("parse", "serialize"), "dsl"),
    **dict.fromkeys(("DIALECTS", "EmittedProgram", "print_circuit", "translate"), "emit"),
    **dict.fromkeys(
        ("ArityError", "BranchCapError", "CapacityError", "DuplicateOperandError",
         "GatekitError", "NoMeasurementError", "OperandRangeError", "ParseError",
         "SemanticsError", "SimError", "UnknownGateError", "ValidationError"),
        "errors",
    ),
    **dict.fromkeys(("is_unitary", "unitary_of"), "gates"),
    **dict.fromkeys(("MAX_QUBITS", "Circuit", "GateKind", "GateOp", "resolve_gate_name"), "ir"),
    **dict.fromkeys(
        ("ClassicalRegister", "Counts", "ExactDistribution", "StateVector", "apply_gate",
         "apply_measure", "exact_distribution", "run_shots"),
        "sim",
    ),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
