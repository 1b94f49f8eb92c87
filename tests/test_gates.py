"""Gate unitaries: fixed matrices, rotation identities, unitarity sweeps."""
import math

import numpy as np
import pytest

from gatekit.errors import ArityError, SemanticsError
from gatekit.gates import is_unitary, unitary_of
from gatekit.ir import GateKind

INV_SQRT2 = 1 / math.sqrt(2)

FIXED_MATRICES = {
    GateKind.H: np.array([[1, 1], [1, -1]]) * INV_SQRT2,
    GateKind.X: np.array([[0, 1], [1, 0]]),
    GateKind.Y: np.array([[0, -1j], [1j, 0]]),
    GateKind.Z: np.array([[1, 0], [0, -1]]),
    GateKind.CNOT: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    GateKind.SWAP: np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}

PARAMETRIC = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CPHASE)


class TestFixedMatrices:
    @pytest.mark.parametrize("kind", list(FIXED_MATRICES))
    def test_entries(self, kind):
        np.testing.assert_allclose(unitary_of(kind), FIXED_MATRICES[kind], atol=1e-15)

    def test_toffoli_swaps_last_two_rows(self):
        u = unitary_of(GateKind.TOFFOLI)
        expected = np.eye(8)
        expected[[6, 7]] = expected[[7, 6]]
        np.testing.assert_array_equal(u, expected)

    def test_rotation_conventions(self):
        theta = 0.7
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        np.testing.assert_allclose(
            unitary_of(GateKind.RX, (theta,)), [[c, -1j * s], [-1j * s, c]], atol=1e-15
        )
        np.testing.assert_allclose(
            unitary_of(GateKind.RY, (theta,)), [[c, -s], [s, c]], atol=1e-15
        )
        np.testing.assert_allclose(
            unitary_of(GateKind.RZ, (theta,)),
            np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
            atol=1e-15,
        )

    def test_rx_zero_is_identity(self):
        np.testing.assert_allclose(unitary_of(GateKind.RX, (0.0,)), np.eye(2), atol=1e-15)

    def test_cphase_pi_is_controlled_z(self):
        np.testing.assert_allclose(
            unitary_of(GateKind.CPHASE, (math.pi,)), np.diag([1, 1, 1, -1]), atol=1e-12
        )

    def test_cphase_entries(self):
        # unitary_of and the simulator read one block, so only a literal
        # matrix catches a wrong one (e^{-i theta} passes CZ and angles-add).
        np.testing.assert_allclose(
            unitary_of(GateKind.CPHASE, (0.7,)),
            np.diag([1, 1, 1, np.exp(0.7j)]),
            atol=1e-15,
        )

    def test_measure_has_no_unitary(self):
        with pytest.raises(SemanticsError):
            unitary_of(GateKind.MEASURE)

    def test_param_count_enforced(self):
        with pytest.raises(ArityError):
            unitary_of(GateKind.RX)
        with pytest.raises(ArityError):
            unitary_of(GateKind.H, (0.1,))


class TestIsUnitary:
    def test_hadamard(self):
        assert is_unitary(unitary_of(GateKind.H), 1e-12)

    def test_non_unitary_diagonal(self):
        assert not is_unitary(np.array([[1, 0], [0, 2]]), 1e-12)

    def test_random_angle_sweep(self):
        rng = np.random.default_rng(7)
        for kind in PARAMETRIC:
            for theta in rng.uniform(-4 * math.pi, 4 * math.pi, size=100):
                u = unitary_of(kind, (float(theta),))
                assert is_unitary(u, 1e-12)
                assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12


class TestAlgebraicIdentities:
    def test_rotation_inverses(self):
        rng = np.random.default_rng(3)
        for kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
            for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=20):
                prod = unitary_of(kind, (float(theta),)) @ unitary_of(kind, (float(-theta),))
                np.testing.assert_allclose(prod, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "kind",
        [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.CNOT, GateKind.SWAP, GateKind.TOFFOLI],
    )
    def test_involutions(self, kind):
        u = unitary_of(kind)
        np.testing.assert_allclose(u @ u, np.eye(u.shape[0]), atol=1e-12)

    def test_cphase_angles_add(self):
        rng = np.random.default_rng(5)
        for t1, t2 in rng.uniform(-math.pi, math.pi, size=(20, 2)):
            prod = unitary_of(GateKind.CPHASE, (float(t1),)) @ unitary_of(GateKind.CPHASE, (float(t2),))
            np.testing.assert_allclose(
                prod, unitary_of(GateKind.CPHASE, (float(t1 + t2),)), atol=1e-12
            )

    def test_toffoli_truth_table(self):
        u = unitary_of(GateKind.TOFFOLI)
        for a in (0, 1):
            for b in (0, 1):
                for t in (0, 1):
                    src = (a << 2) | (b << 1) | t
                    dst = (a << 2) | (b << 1) | (t ^ (a & b))
                    column = np.zeros(8)
                    column[dst] = 1
                    np.testing.assert_array_equal(u[:, src], column)

    def test_determinant_magnitude_of_fixed_gates(self):
        for kind in FIXED_MATRICES:
            assert abs(abs(np.linalg.det(unitary_of(kind))) - 1.0) <= 1e-12
        assert abs(abs(np.linalg.det(unitary_of(GateKind.TOFFOLI))) - 1.0) <= 1e-12
