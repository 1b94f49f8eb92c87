"""Reference circuits (Bell pair, compiled order-finding for 15) and the
classical post-processing that turns counting-register readouts into factors.

The factoring circuit is the fixed 8-qubit instance for base 7 modulo 15:
four counting qubits (0-3), four work qubits (4-7) holding 7^x mod 15, a
4-qubit transform over the counting register, and a final readout of qubits
0-3 into clbits 4-7 that overwrites the earlier work-register readout.
"""
from __future__ import annotations

import math
import sys

from .ir import Circuit, _Frozen, _Record


def __getattr__(name):
    # `Counts` and `run_shots` are sim's, imported by the functions that use
    # them so that building a circuit never loads numpy; they are read from
    # sim on every access, as the package reads its names.
    if name in ("Counts", "run_shots"):
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ShorConfig(_Frozen):
    """Fixed problem instance: factor 15 with a 4-qubit counting register."""

    __match_args__ = __slots__ = ("n_count", "modulus")

    def __init__(self, n_count: int = 4, modulus: int = 15):
        object.__setattr__(self, "n_count", n_count)
        object.__setattr__(self, "modulus", modulus)

    @property
    def base_set(self) -> tuple[int, ...]:
        """Candidate bases a in [2, modulus) coprime to the modulus."""
        return tuple(a for a in range(2, self.modulus) if math.gcd(a, self.modulus) == 1)


class FactorReport(_Record):
    """Everything the factoring pipeline produced, intermediate steps included."""

    __match_args__ = ("measured_values", "periods_tried", "period_found", "factors",
                      "prime_factors", "counts")

    # periods_tried holds one (base a, estimate r, accepted) row per try.
    def __init__(self, measured_values: set[int], periods_tried: list[tuple[int, int, bool]],
                 period_found: dict[int, bool], factors: set[int], prime_factors: set[int],
                 counts: Counts | None = None):
        self.measured_values = measured_values
        self.periods_tried = periods_tried
        self.period_found = period_found
        self.factors = factors
        self.prime_factors = prime_factors
        self.counts = counts


def build_bell() -> Circuit:
    """Two-qubit circuit preparing (|00> + |11>)/sqrt(2) and measuring both."""
    circuit = Circuit(2, 2)
    circuit.add_gate("h", [0])
    circuit.add_gate("cnot", [0, 1])
    circuit.add_gate("measure", [0, 0])
    circuit.add_gate("measure", [1, 1])
    return circuit


def build_shor15() -> Circuit:
    """Compiled order-finding circuit for 7 mod 15 (8 qubits, 33 instructions)."""
    circuit = Circuit(8, 8)
    for i in range(4):
        circuit.add_gate("h", [i])

    # multiply-by-7 mod 15 on the work register, controlled on counting bits
    circuit.add_gate("x", [4])
    circuit.add_gate("cnot", [0, 5])
    circuit.add_gate("cnot", [0, 6])
    circuit.add_gate("cnot", [1, 4])
    circuit.add_gate("cnot", [1, 6])
    for i in range(4, 8):
        circuit.add_gate("toffoli", [0, 1, i])

    # read the work register mid-circuit
    for i in range(4, 8):
        circuit.add_gate("measure", [i, i])

    # Fourier transform over the counting register
    n = 4
    for i in range(n - 1, -1, -1):
        circuit.add_gate("h", [i])
        for j in range(i - 1, -1, -1):
            circuit.add_gate("cphase", [j, i], [math.pi / (2 ** (i - j))])
    for i in range(n // 2):
        circuit.add_gate("swap", [i, n - i - 1])

    # counting-register readout overwrites clbits 4-7
    for i in range(4):
        circuit.add_gate("measure", [i, i + 4])
    return circuit


def extract_measured_values(counts, n_count: int) -> set[int]:
    """Decode each key's leftmost n_count bits as an integer; drop zero."""
    # A Counts exists only once sim is loaded; a plain dict must not load it.
    sim = sys.modules.get(f"{__package__}.sim")
    entries = counts.entries if sim is not None and isinstance(counts, sim.Counts) else counts
    values = {int(key[:n_count], 2) for key in entries}
    values.discard(0)
    return values


def estimate_period(m: int, n_count: int) -> int:
    """Denominator of m / 2^n_count in lowest terms: the period estimate."""
    return 2**n_count // math.gcd(m, 2**n_count)


def extract_factors(measured_values: set[int], config: ShorConfig = ShorConfig()) -> FactorReport:
    """Turn measured counting values into factors of the modulus.

    For every coprime base a and every measured value m: estimate r from m;
    if a^r = 1 (mod modulus), both gcd(a^(r//2) +/- 1, modulus) > 1 join the
    factor set.  r//2 floors for odd r, deliberately.
    """
    modulus = config.modulus
    factors: set[int] = set()
    periods_tried: list[tuple[int, int, bool]] = []
    period_found: dict[int, bool] = {}
    for a in config.base_set:
        found = False
        for m in sorted(measured_values):
            r = estimate_period(m, config.n_count)
            accepted = pow(a, r, modulus) == 1
            periods_tried.append((a, r, accepted))
            if accepted:
                for candidate in (
                    math.gcd(a ** (r // 2) + 1, modulus),
                    math.gcd(a ** (r // 2) - 1, modulus),
                ):
                    if candidate > 1:
                        factors.add(candidate)
                found = True
        period_found[a] = found
    primes = {f for f in factors if _is_prime(f)}
    return FactorReport(
        measured_values=set(measured_values),
        periods_tried=periods_tried,
        period_found=period_found,
        factors=factors,
        prime_factors=primes,
    )


def run_shor15_pipeline(shots: int = 1000, seed: int = 0) -> FactorReport:
    """Simulate the compiled circuit and post-process the counts into factors."""
    from .sim import run_shots

    config = ShorConfig()
    counts = run_shots(build_shor15(), shots, seed)
    measured = extract_measured_values(counts, config.n_count)
    report = extract_factors(measured, config)
    report.counts = counts
    return report


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True
