"""Reference circuits and the factor-15 post-processing chain."""
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from gatekit.algos import (
    ShorConfig,
    build_bell,
    build_shor15,
    estimate_period,
    extract_factors,
    extract_measured_values,
    run_shor15_pipeline,
)
from gatekit.emit import print_circuit
from gatekit.ir import Circuit, GateKind
from gatekit.sim import exact_distribution

SHOR_KEYS = {"00000000", "01000000", "10000000", "11000000"}


def _naive_factor_loop(measured_values, n_count=4, modulus=15):
    """Straight transcription of the fraction/gcd post-processing procedure,
    kept independent of the implementation under test."""
    factors = set()
    for a in range(2, modulus):
        if math.gcd(a, modulus) != 1:
            continue
        for m in measured_values:
            r = Fraction(m, 2**n_count).denominator
            if pow(a, r, modulus) == 1:
                f1 = math.gcd(a ** (r // 2) + 1, modulus)
                f2 = math.gcd(a ** (r // 2) - 1, modulus)
                if f1 > 1:
                    factors.add(f1)
                if f2 > 1:
                    factors.add(f2)
    return factors


class TestBuildBell:
    def test_structure(self):
        c = build_bell()
        assert (c.num_qubits, c.num_clbits) == (2, 2)
        assert [(op.kind, op.qubits, op.clbit) for op in c.ops] == [
            (GateKind.H, (0,), None),
            (GateKind.CNOT, (0, 1), None),
            (GateKind.MEASURE, (0,), 0),
            (GateKind.MEASURE, (1,), 1),
        ]

    def test_exact_distribution(self):
        dist = exact_distribution(build_bell())
        assert set(dist.entries) == {"00", "11"}
        assert abs(dist["00"] - 0.5) <= 1e-12

    def test_diagram_has_two_rows(self):
        assert len(print_circuit(build_bell()).splitlines()) == 2


class TestBuildShor15:
    def test_op_count(self):
        assert len(build_shor15().ops) == 33

    def test_gate_kind_multiset(self):
        kinds = Counter(op.kind.value for op in build_shor15().ops)
        assert kinds == {
            "h": 8, "x": 1, "cnot": 4, "toffoli": 4, "cphase": 6, "swap": 2, "measure": 8,
        }

    def test_cphase_angles(self):
        angles = {
            (op.qubits[0], op.qubits[1]): op.params[0]
            for op in build_shor15().ops
            if op.kind is GateKind.CPHASE
        }
        assert angles[(0, 3)] == pytest.approx(math.pi / 8, abs=1e-15)
        assert angles[(2, 3)] == pytest.approx(math.pi / 2, abs=1e-15)
        assert angles[(1, 3)] == pytest.approx(math.pi / 4, abs=1e-15)
        assert angles[(1, 2)] == pytest.approx(math.pi / 2, abs=1e-15)
        assert angles[(0, 2)] == pytest.approx(math.pi / 4, abs=1e-15)
        assert angles[(0, 1)] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_measure_wiring(self):
        measures = [(op.qubits[0], op.clbit) for op in build_shor15().ops
                    if op.kind is GateKind.MEASURE]
        assert measures[:4] == [(4, 4), (5, 5), (6, 6), (7, 7)]
        assert measures[4:] == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_calls_return_independent_circuits(self):
        first = build_shor15()
        first.add_gate("x", [0])
        first.ops[0] = first.ops[1]
        second = build_shor15()
        assert len(second.ops) == 33 and second.ops[0].qubits == (0,)
        assert second.ops is not build_shor15().ops

    def test_ops_equal_a_reference_built_gate_by_gate(self):
        ref = Circuit(8, 8)
        for q in range(4):
            ref.add_gate("h", [q])
        ref.add_gate("x", [4])
        for operands in ([0, 5], [0, 6], [1, 4], [1, 6]):
            ref.add_gate("cnot", operands)
        for q in range(4, 8):
            ref.add_gate("toffoli", [0, 1, q])
        for q in range(4, 8):
            ref.add_gate("measure", [q, q])
        for target in (3, 2, 1, 0):
            ref.add_gate("h", [target])
            for control in range(target - 1, -1, -1):
                ref.add_gate("cphase", [control, target], [math.pi / 2 ** (target - control)])
        ref.add_gate("swap", [0, 3])
        ref.add_gate("swap", [1, 2])
        for q in range(4):
            ref.add_gate("measure", [q, q + 4])
        c = build_shor15()
        assert (c.num_qubits, c.num_clbits) == (8, 8)
        assert c.ops == ref.ops

    def test_exact_distribution_support(self):
        dist = exact_distribution(build_shor15())
        assert set(dist.entries) == SHOR_KEYS
        for key in SHOR_KEYS:
            assert abs(dist[key] - 0.25) <= 1e-9


class TestExtractMeasuredValues:
    def test_published_counts(self):
        counts = {"11000000": 224, "10000000": 255, "01000000": 252, "00000000": 269}
        assert extract_measured_values(counts, 4) == {12, 8, 4}

    def test_zero_removed(self):
        assert extract_measured_values({"0000": 17}, 4) == set()

    def test_single_key(self):
        assert extract_measured_values({"0100": 1}, 4) == {4}


class TestEstimatePeriod:
    @pytest.mark.parametrize("m,r", [(8, 2), (12, 4), (4, 4)])
    def test_examples(self, m, r):
        assert estimate_period(m, 4) == r

    @pytest.mark.parametrize("n_count", range(7))
    def test_matches_fraction_denominator(self, n_count):
        size = 2**n_count
        for m in (0, -1, -size, -3 * size - 1, *range(-size - 3, 2 * size + 3)):
            assert estimate_period(m, n_count) == Fraction(m, size).denominator, m

    def test_denominator_divides_register_size(self):
        for m in range(1, 16):
            r = estimate_period(m, 4)
            assert 16 % r == 0
            assert r == 16 // math.gcd(m, 16)


class TestExtractFactors:
    def test_published_measured_values(self):
        report = extract_factors({12, 8, 4})
        assert report.factors == {3, 5, 15}
        assert report.prime_factors == {3, 5}

    def test_empty_measured_values(self):
        report = extract_factors(set())
        assert report.factors == set()
        assert report.periods_tried == []
        assert set(report.period_found) == set(ShorConfig().base_set)
        assert not any(report.period_found.values())

    def test_single_value_eight(self):
        report = extract_factors({8})
        assert (2, 2, False) in report.periods_tried  # 2^2 = 4 != 1 (mod 15)
        assert (4, 2, True) in report.periods_tried   # 4^2 = 16 = 1 (mod 15)
        assert {3, 5} <= report.factors

    def test_accepted_periods_satisfy_order_condition(self):
        for values in ({8}, {4, 12}, {1, 2, 3}, {15}):
            report = extract_factors(values)
            for a, r, accepted in report.periods_tried:
                assert accepted == (pow(a, r, 15) == 1)

    def test_all_singletons_and_pairs_match_naive_loop(self):
        cases = [{m} for m in range(1, 16)]
        cases += [set(pair) for pair in combinations(range(1, 16), 2)]
        assert len(cases) == 120
        for values in cases:
            report = extract_factors(values)
            assert report.factors == _naive_factor_loop(values)
            assert report.factors <= {3, 5, 15}


class TestPipeline:
    def test_thousand_shots_finds_everything(self):
        report = run_shor15_pipeline(1000, seed=1)
        assert report.measured_values == {4, 8, 12}
        assert report.factors == {3, 5, 15}
        assert report.prime_factors == {3, 5}
        assert set(report.counts.keys()) <= SHOR_KEYS
        assert report.counts.shots == 1000

    def test_factors_always_divide_fifteen(self):
        for seed in range(5):
            report = run_shor15_pipeline(50, seed=seed)
            assert 1 not in report.factors
            assert all(15 % f == 0 for f in report.factors)

    def test_single_zero_shot_yields_no_factors(self):
        seed = next(
            s for s in range(100)
            if set(run_shor15_pipeline(1, seed=s).counts.keys()) == {"00000000"}
        )
        report = run_shor15_pipeline(1, seed=seed)
        assert report.measured_values == set()
        assert report.factors == set()
        assert not any(report.period_found.values())

    def test_deterministic(self):
        a = run_shor15_pipeline(300, seed=9)
        b = run_shor15_pipeline(300, seed=9)
        assert a.counts.entries == b.counts.entries
        assert a.measured_values == b.measured_values
        assert a.periods_tried == b.periods_tried
        assert a.factors == b.factors
