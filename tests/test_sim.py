"""Simulator: kernels vs dense oracle, measurement collapse, shot sampling."""
import copy
import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekit.errors import BranchCapError, NoMeasurementError, SimError, ValidationError
from gatekit import sim
from gatekit.ir import Circuit, GateKind, GateOp
from gatekit.gates import unitary_of
from gatekit.sim import (
    ClassicalRegister,
    StateVector,
    _compile_step,
    _draws,
    _plan,
    apply_gate,
    apply_measure,
    exact_distribution,
    run_shots,
)

from _helpers import (
    _shot_stream,
    dense_final_state,
    dense_gate_matrix,
    general_step,
    random_circuit,
    reference_exact_distribution,
    reference_run_shots,
    tv_distance,
)

INV_SQRT2 = 1 / math.sqrt(2)


class _FixedDraws:
    """Stub random stream yielding a preset sequence of uniforms."""

    def __init__(self, *values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestApplyGate:
    def test_hadamard_on_qubit0(self):
        s = apply_gate(StateVector.zero(2), GateOp(GateKind.H, (0,)))
        np.testing.assert_allclose(s.amps, [INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-15)

    def test_bell_amplitudes(self):
        s = apply_gate(StateVector.zero(2), GateOp(GateKind.H, (0,)))
        s = apply_gate(s, GateOp(GateKind.CNOT, (0, 1)))
        np.testing.assert_allclose(s.amps, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)

    def test_x_on_qubit1_hits_index_two(self):
        s = apply_gate(StateVector.zero(2), GateOp(GateKind.X, (1,)))
        np.testing.assert_allclose(s.amps, [0, 0, 1, 0], atol=1e-15)

    def test_input_state_not_mutated(self):
        s = StateVector.zero(1)
        apply_gate(s, GateOp(GateKind.X, (0,)))
        np.testing.assert_array_equal(s.amps, [1, 0])

    def test_measure_op_rejected(self):
        with pytest.raises(SimError):
            apply_gate(StateVector.zero(1), GateOp(GateKind.MEASURE, (0,), (), 0))

    def test_operand_out_of_range(self):
        with pytest.raises(SimError):
            apply_gate(StateVector.zero(1), GateOp(GateKind.CNOT, (0, 1)))

    @pytest.mark.parametrize("shape", [(3,), (8,), (2, 2), ()])
    def test_amps_of_the_wrong_shape(self, shape):
        state = StateVector(2, np.ones(shape, complex))
        with pytest.raises(SimError, match="shape"):
            apply_gate(state, GateOp(GateKind.H, (0,)))
        with pytest.raises(SimError, match="shape"):
            apply_measure(state, 0, 0, ClassicalRegister.zeros(1), _FixedDraws(0.5))

    def test_list_operands(self):
        # GateOp accepts any sequence of qubits; a list must run like a tuple.
        for kind, qubits in [(GateKind.H, [0]), (GateKind.CNOT, [2, 0]), (GateKind.TOFFOLI, [0, 2, 1])]:
            state = StateVector(3, np.arange(8) + 1j)
            got = apply_gate(state, GateOp(kind, qubits))
            want = apply_gate(state, GateOp(kind, tuple(qubits)))
            assert np.array_equal(got.amps, want.amps), kind

    def test_matches_dense_oracle_on_random_circuits(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            circuit = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(1, 21)))
            state = StateVector.zero(circuit.num_qubits)
            for op in circuit.ops:
                state = apply_gate(state, op)
            np.testing.assert_allclose(state.amps, dense_final_state(circuit), atol=1e-10)

    def test_norm_preserved_after_every_instruction(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            circuit = random_circuit(rng, 8, 100)
            state = StateVector.zero(8)
            for op in circuit.ops:
                state = apply_gate(state, op)
                assert abs(state.norm_sq() - 1.0) <= 1e-9


class TestPlannedKernels:
    """Each unitary's planned kernel against the general 2x2 update on the
    same subspace pair, bit for bit, and against the dense oracle."""

    KINDS = [
        (GateKind.H, (), "general"),
        (GateKind.X, (), "anti"),
        (GateKind.Y, (), "anti"),
        (GateKind.Z, (), "diag"),
        (GateKind.RX, (0.7,), "general"),
        (GateKind.RX, (0.0,), "diag"),
        (GateKind.RY, (-1.3,), "general"),
        (GateKind.RZ, (2.1,), "diag"),
        (GateKind.CNOT, (), "anti"),
        (GateKind.TOFFOLI, (), "anti"),
        (GateKind.SWAP, (), "anti"),
        (GateKind.CPHASE, (0.9,), "diag"),
    ]

    @staticmethod
    def _operands(rng, n, arity):
        """Every qubit of a 1q gate, and every operand order at n <= 3
        (targets above, below and between the controls; swap both ways);
        otherwise the lowest qubits, the highest qubits in reverse, and four
        more orders drawn without repeats."""
        orders = list(itertools.permutations(range(n), arity))
        if n <= 3 or arity == 1:
            return orders
        picks = [tuple(range(arity)), tuple(range(n - 1, n - 1 - arity, -1))]
        picks += [orders[i] for i in rng.choice(len(orders), 6, replace=False)]
        return list(dict.fromkeys(picks))[:6]

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_equal_to_general_update(self, n):
        rng = np.random.default_rng(n)
        for kind, params, planned in self.KINDS:
            if kind.qubit_arity > n:
                continue
            for qubits in self._operands(rng, n, kind.qubit_arity):
                op = GateOp(kind, qubits, params)
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                step = _compile_step(n, kind, qubits, params)
                assert step.func is getattr(sim, f"_apply_{planned}"), (kind, qubits)
                got = step(amps.copy())
                expected = general_step(n, op)(amps.copy())
                assert np.array_equal(got, expected), (kind, qubits)
                dense = dense_gate_matrix(n, qubits, unitary_of(kind, params)) @ amps
                np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12, err_msg=f"{kind} {qubits}")


class TestApplyMeasure:
    def test_eigenstate_is_certain(self):
        s = apply_gate(StateVector.zero(1), GateOp(GateKind.X, (0,)))
        out, reg = apply_measure(s, 0, 0, ClassicalRegister.zeros(1), _FixedDraws(0.999999))
        assert reg.bits == [1]
        np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)

    def test_superposition_collapses_on_low_draw(self):
        s = apply_gate(StateVector.zero(1), GateOp(GateKind.H, (0,)))
        out, reg = apply_measure(s, 0, 0, ClassicalRegister.zeros(1), _FixedDraws(0.3))
        assert reg.bits == [1]
        np.testing.assert_allclose(out.amps, [0, 1], atol=1e-12)

    def test_superposition_keeps_zero_on_high_draw(self):
        s = apply_gate(StateVector.zero(1), GateOp(GateKind.H, (0,)))
        out, reg = apply_measure(s, 0, 0, ClassicalRegister.zeros(1), _FixedDraws(0.7))
        assert reg.bits == [0]
        np.testing.assert_allclose(out.amps, [1, 0], atol=1e-12)

    def test_bell_outcomes_always_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = apply_gate(StateVector.zero(2), GateOp(GateKind.H, (0,)))
            s = apply_gate(s, GateOp(GateKind.CNOT, (0, 1)))
            s, reg = apply_measure(s, 0, 0, ClassicalRegister.zeros(2), rng)
            s, reg = apply_measure(s, 1, 1, reg, rng)
            assert reg.bits[0] == reg.bits[1]

    def test_register_overwrite(self):
        s = apply_gate(StateVector.zero(2), GateOp(GateKind.X, (0,)))
        s, reg = apply_measure(s, 0, 0, ClassicalRegister.zeros(1), _FixedDraws(0.5))
        assert reg.bits == [1]
        s, reg = apply_measure(s, 1, 0, reg, _FixedDraws(0.5))
        assert reg.bits == [0]

    def test_corrupt_state_raises(self):
        dead = StateVector(1, np.zeros(2, dtype=complex))
        with pytest.raises(SimError):
            apply_measure(dead, 0, 0, ClassicalRegister.zeros(1), _FixedDraws(0.5))


class TestRunShots:
    def test_bell_support(self):
        from gatekit.algos import build_bell

        counts = run_shots(build_bell(), 1000, 7)
        assert set(counts.keys()) <= {"00", "11"}
        assert sum(counts.entries.values()) == 1000

    def test_deterministic_single_key(self):
        c = Circuit(1, 1)
        c.add_gate("x", [0]).add_gate("measure", [0, 0])
        assert run_shots(c, 57, 123).entries == {"1": 57}

    def test_key_orders_clbits_high_to_low(self):
        c = Circuit(2, 3)
        c.add_gate("x", [0]).add_gate("measure", [0, 2]).add_gate("measure", [1, 0])
        assert run_shots(c, 5, 0).entries == {"100": 5}

    def test_requires_measurement(self):
        c = Circuit(1, 0)
        c.add_gate("h", [0])
        with pytest.raises(NoMeasurementError):
            run_shots(c, 10, 0)

    def test_requires_positive_shots(self):
        from gatekit.algos import build_bell

        with pytest.raises(ValidationError):
            run_shots(build_bell(), 0, 0)

    @pytest.mark.parametrize("shots", [2**32 + 1, 10**20])
    def test_shot_count_is_bounded(self, monkeypatch, shots):
        from gatekit.algos import build_bell

        monkeypatch.setattr(sim, "_draws", lambda *args: pytest.fail("drew before refusing"))
        with pytest.raises(ValidationError, match="2\\^32"):
            run_shots(build_bell(), shots, 0)

    @pytest.mark.parametrize("arg,value", [("shots", 10.0), ("shots", "1"), ("seed", 1.5), ("seed", "1"),
                                           ("chunk_size", 1.5), ("chunk_size", "1")])
    def test_non_integer_arguments_are_validation_errors(self, arg, value):
        from gatekit.algos import build_bell

        args = {"shots": 10, "seed": 0, "chunk_size": 4, arg: value}
        with pytest.raises(ValidationError, match="integers"):
            run_shots(build_bell(), **args)
        # Integers of any type that operator.index takes still run alike.
        ints = run_shots(build_bell(), np.int64(10), np.uint32(3), chunk_size=np.int8(4))
        assert ints.entries == run_shots(build_bell(), 10, 3, chunk_size=4).entries

    @pytest.mark.parametrize("mid_circuit", [False, True])
    def test_numerically_zero_branch_raises(self, monkeypatch, mid_circuit):
        # Every draw is 0, so each shot takes outcome 1 of ry(1e-9), whose
        # probability sin^2(5e-10) is below MIN_BRANCH_PROB.
        monkeypatch.setattr(sim, "_draws", lambda seed, start, size, n_meas: np.zeros((size, n_meas)))
        c = Circuit(1, 1)
        c.add_gate("ry", [0], [1e-9])
        c.add_gate("measure", [0, 0])
        if mid_circuit:
            c.add_gate("h", [0])
            c.add_gate("measure", [0, 0])
        with pytest.raises(SimError):
            run_shots(c, 10, 0)

    def test_numpy_integer_seed(self):
        from gatekit.algos import build_bell

        assert run_shots(build_bell(), 50, np.int64(7)).entries == run_shots(build_bell(), 50, 7).entries
        with pytest.raises(ValidationError):
            run_shots(build_bell(), 50, 7.0)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(31)
        circuit = random_circuit(rng, 4, 25, num_clbits=4, measure_prob=0.3)
        circuit.add_gate("measure", [0, 0])
        a = run_shots(circuit, 500, 42)
        b = run_shots(circuit, 500, 42)
        assert a.entries == b.entries

    def test_chunking_never_changes_counts(self):
        rng = np.random.default_rng(32)
        circuit = random_circuit(rng, 3, 15, num_clbits=3, measure_prob=0.3)
        circuit.add_gate("measure", [1, 1])
        reference = run_shots(circuit, 400, 5, chunk_size=1)
        for chunk in (7, 64, 400, 4096):
            assert run_shots(circuit, 400, 5, chunk_size=chunk).entries == reference.entries

    def test_matches_single_state_execution(self):
        # chunk executor and the public single-state ops consume the same
        # per-shot substream, so they must produce identical outcomes
        rng = np.random.default_rng(33)
        circuit = random_circuit(rng, 3, 12, num_clbits=3, measure_prob=0.4)
        circuit.add_gate("measure", [2, 2])
        seed, shots = 17, 50
        counts = run_shots(circuit, shots, seed)
        replayed = {}
        for shot in range(shots):
            stream = _shot_stream(seed, shot)
            state = StateVector.zero(3)
            reg = ClassicalRegister.zeros(3)
            for op in circuit.ops:
                if op.kind is GateKind.MEASURE:
                    state, reg = apply_measure(state, op.qubits[0], op.clbit, reg, stream)
                else:
                    state = apply_gate(state, op)
            key = reg.key()
            replayed[key] = replayed.get(key, 0) + 1
        assert replayed == counts.entries


def _stream_draws(seed, start, size, n_meas):
    return np.array([_shot_stream(seed, start + i).random(n_meas) for i in range(size)])


class TestDraws:
    """The vectorised draws against numpy's own per-shot streams, bit for bit."""

    # 2^130 + 3 zigzags to five entropy words, past SeedSequence's pool of four.
    @pytest.mark.parametrize("seed", [0, 1, 7, -1, -5, 2**32 - 1, 2**32, 2**64, -2**70, 2**130 + 3])
    def test_matches_numpy_streams(self, seed):
        # The block at 2^32 - 6 ends at the last shot run_shots accepts.
        for start in (0, 2**32 - 6):
            for n_meas in (1, 3, 8):
                got = _draws(seed, start, 6, n_meas)
                assert got.shape == (6, n_meas)
                assert np.array_equal(got, _stream_draws(seed, start, 6, n_meas)), (start, n_meas)

    @given(
        st.integers(-(2**200), 2**200),
        st.integers(0, 2**32 - 5),
        st.integers(1, 5),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_streams_property(self, seed, start, size, n_meas):
        assert np.array_equal(_draws(seed, start, size, n_meas), _stream_draws(seed, start, size, n_meas))

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1 imports numpy.random eagerly")
    def test_package_never_loads_numpy_random(self):
        # Loading numpy.random costs about 6 MiB of peak RSS and 13 ms in a
        # fresh process; the draws are computed without it.
        script = """if True:
            import contextlib, io, sys
            from gatekit import cli
            from gatekit.algos import build_bell, build_shor15
            from gatekit.sim import exact_distribution, run_shots
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["factor15"]) == 0
            exact_distribution(build_shor15())
            run_shots(build_bell(), 10)
            assert "numpy.random" not in sys.modules, "numpy.random was loaded"
        """
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestBranchWalk:
    """The branch walk against per-shot replay and recursive enumeration."""

    @staticmethod
    def _circuits(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 6))
            circuit = random_circuit(
                rng, n, int(rng.integers(4, 30)), num_clbits=int(rng.integers(2, 5)),
                measure_prob=0.3,
            )
            circuit.add_gate("measure", [int(rng.integers(n)), 0])
            yield circuit

    def test_counts_match_per_shot_replay(self):
        for i, circuit in enumerate(self._circuits(51, 30)):
            for chunk in (1, 7, 4096):
                expected = reference_run_shots(circuit, 100, seed=i, chunk_size=chunk)
                assert run_shots(circuit, 100, seed=i, chunk_size=chunk).entries == expected.entries

    def test_exact_matches_recursive_enumeration(self):
        for circuit in self._circuits(52, 40):
            expected = reference_exact_distribution(circuit).entries
            got = exact_distribution(circuit).entries
            assert set(got) == set(expected)
            for key, p in expected.items():
                assert abs(got[key] - p) <= 1e-12

    @staticmethod
    def _assert_matches_oracles(circuit, seed, chunks):
        for chunk in chunks:
            expected = reference_run_shots(circuit, 100, seed=seed, chunk_size=chunk)
            assert run_shots(circuit, 100, seed=seed, chunk_size=chunk).entries == expected.entries
        expected = reference_exact_distribution(circuit).entries
        got = exact_distribution(circuit).entries
        assert set(got) == set(expected)
        for key, p in expected.items():
            assert abs(got[key] - p) <= 1e-12

    @pytest.mark.parametrize("close", [False, True])
    def test_collapse_leaves_its_input_unchanged(self, close):
        amps = np.full(4, 0.5, complex)
        amps.flags.writeable = False
        row = sim._collapse(amps, 2, 1, 1, 0.5, close)
        assert not np.shares_memory(row, amps)
        assert np.array_equal(amps, np.full(4, 0.5))
        expected = [INV_SQRT2, INV_SQRT2] if close else [0, 0, INV_SQRT2, INV_SQRT2]
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)

    def test_register_wider_than_64_bits(self):
        # Clbits 0, 64 and 69 are written mid-circuit and again by trailing
        # measures; no bit past the 64th may be lost.
        c = Circuit(3, 70)
        for q in range(3):
            c.add_gate("h", [q])
        for q, clbit, angle in ((0, 64, 0.7), (1, 69, 1.1), (2, 0, 0.4)):
            c.add_gate("measure", [q, clbit])
            c.add_gate("ry", [(q + 1) % 3], [angle])
        c.add_gate("cnot", [0, 1])
        for q, clbit in ((0, 0), (1, 69), (0, 64)):
            c.add_gate("measure", [q, clbit])
        self._assert_matches_oracles(c, 5, (1, 4096))
        keys = list(exact_distribution(c).entries)
        assert {len(key) for key in keys} == {70}
        for clbit in (0, 64, 69):
            assert {key[-1 - clbit] for key in keys} == {"0", "1"}, clbit

    @staticmethod
    def _terminal_circuits(seed, count, mid_measure):
        """Circuits whose measures all follow the last unitary, each block
        with a repeated qubit and a clbit overwrite; with `mid_measure`, a
        measure and a further unitary come first."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n, nc = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            circuit = random_circuit(rng, n, int(rng.integers(4, 20)), num_clbits=nc)
            if mid_measure:
                circuit.add_gate("measure", [int(rng.integers(n)), int(rng.integers(nc))])
                circuit.add_gate("ry", [int(rng.integers(n))], [float(rng.uniform(0.3, 2.8))])
            block = [(int(rng.integers(n)), int(rng.integers(nc))) for _ in range(int(rng.integers(1, 5)))]
            q, c = block[0]
            block += [(q, (c + 1) % nc), (int(rng.integers(n)), c)]
            for q, c in block:
                circuit.add_gate("measure", [q, c])
            yield circuit

    @pytest.mark.parametrize("mid_measure", [False, True])
    def test_terminal_block_matches_oracles(self, mid_measure):
        for i, circuit in enumerate(self._terminal_circuits(53 + mid_measure, 15, mid_measure)):
            self._assert_matches_oracles(circuit, i, (1, 7, 4096))

    @staticmethod
    def _add_random_gates(rng, circuit, qubits, count):
        """`count` random unitaries acting only on `qubits`."""
        for op in random_circuit(rng, len(qubits), count).ops:
            circuit.add_gate(op.kind.value, [qubits[q] for q in op.qubits], list(op.params))

    @classmethod
    def _deferred_circuits(cls, seed, count):
        """Circuits whose plan both drops and reorders: a mid-circuit measure
        of qubit a followed by gates on other qubits only; a measure of b that
        overwrites a's clbit; a later gate on a and a second measure of a; and
        gates on never-measured qubits before, between and after the measures."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n, nc = int(rng.integers(3, 7)), int(rng.integers(2, 4))
            a, b, *idle = (int(q) for q in rng.permutation(n))
            c0, c1 = (int(c) for c in rng.choice(nc, size=2, replace=False))
            circuit = random_circuit(rng, n, int(rng.integers(3, 12)), num_clbits=nc)
            cls._add_random_gates(rng, circuit, idle, int(rng.integers(0, 4)))
            circuit.add_gate("measure", [a, c0])
            cls._add_random_gates(rng, circuit, [b, *idle], int(rng.integers(2, 8)))
            circuit.add_gate("measure", [b, c0])
            cls._add_random_gates(rng, circuit, idle, int(rng.integers(0, 4)))
            circuit.add_gate("ry", [a], [float(rng.uniform(0.3, 2.8))])
            circuit.add_gate("cnot", [b, a])
            cls._add_random_gates(rng, circuit, [q for q in range(n) if q != b], int(rng.integers(1, 6)))
            circuit.add_gate("measure", [a, c1])
            cls._add_random_gates(rng, circuit, [b, *idle], int(rng.integers(1, 6)))
            yield circuit

    def test_deferred_plan_matches_oracles(self):
        for i, circuit in enumerate(self._deferred_circuits(55, 20)):
            self._assert_matches_oracles(circuit, i, (1, 7, 4096))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 40),
        st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracles_property(self, seed, n, num_ops, nc):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n, num_ops - 1, num_clbits=nc, measure_prob=0.3)
        circuit.add_gate("measure", [int(rng.integers(n)), int(rng.integers(nc))])
        got = exact_distribution(circuit).entries
        expected = reference_exact_distribution(circuit).entries
        for key in set(got) | set(expected):
            assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= 1e-12
        assert run_shots(circuit, 200, seed).entries == reference_run_shots(circuit, 200, seed).entries

    @staticmethod
    def _dependency_circuit():
        """n=4: h on every qubit, measure 0 -> 0, ten gates on qubits 1-3,
        measure 1 -> 1, then an h on qubit 3, which is never measured."""
        c = Circuit(4, 2)
        for q in range(4):
            c.add_gate("h", [q])
        c.add_gate("measure", [0, 0])
        for name, qubits, params in [
            ("cnot", [2, 1], []), ("ry", [3], [0.7]), ("cnot", [3, 1], []), ("h", [2], []),
            ("rz", [1], [0.3]), ("swap", [2, 3], []), ("rx", [1], [1.1]),
            ("cphase", [1, 2], [0.5]), ("ry", [2], [0.9]), ("cnot", [2, 1], []),
        ]:
            c.add_gate(name, qubits, params)
        c.add_gate("measure", [1, 1])
        c.add_gate("h", [3])
        return c

    def test_plan_defers_measure_and_drops_unseen_gate(self):
        c = self._dependency_circuit()
        segments, measures, table, trailing = _plan(tuple(c.ops))
        # Every kept gate runs before measure 0, so both measures trail.
        assert len(segments) == 1 and measures == []
        # Qubits enter the row in the order 0-3, so each slot is its qubit.
        plan = [step for step in segments[0] if step.func is not sim._grow]
        expected = [_compile_step(4, op.kind, op.qubits, op.params) for op in c.ops[:4] + c.ops[5:15]]
        assert [step.func for step in plan] == [step.func for step in expected]
        for got, want in zip(plan[4:], expected[4:]):
            assert got.args[:3] == want.args[:3] and np.array_equal(got.args[3], want.args[3])
        assert table == (0, 1) and trailing == [(0, 0), (1, 1)]

    def test_plan_closes_a_measured_qubit_nothing_reads_again(self):
        # Qubit 0's first measure is read again by a cnot, so its slot stays;
        # its second measure is its last op, so its slot closes and qubit 1
        # moves down to slot 0.  Qubit 1's measure is read again and stays.
        c = Circuit(3, 3)
        c.add_gate("h", [0])
        c.add_gate("measure", [0, 0])
        c.add_gate("cnot", [0, 1])
        c.add_gate("measure", [0, 1])
        c.add_gate("measure", [1, 2])
        c.add_gate("cnot", [1, 2])
        c.add_gate("measure", [2, 2])
        segments, measures, table, trailing = _plan(tuple(c.ops))
        assert [[step.func for step in segment] for segment in segments] == [
            [sim._grow, sim._apply_general], [sim._grow, sim._apply_anti], [], [sim._grow, sim._apply_anti]
        ]
        assert segments[0][0].args == segments[1][0].args == segments[3][0].args == (1,)
        assert measures == [(0, 0, False), (0, 1, True), (0, 2, False)]
        cnot = _compile_step(2, GateKind.CNOT, (0, 1), ())
        assert segments[1][1].args == segments[3][1].args == cnot.args
        assert table == (1,) and trailing == [(0, 2)]

    @classmethod
    def _idle_measure_circuits(cls, seed, count):
        """Circuits that measure a qubit no gate ever touches mid-circuit,
        then measure another such qubit (and, half the time, the first one
        again) among the trailing measures."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n, nc = int(rng.integers(3, 7)), int(rng.integers(2, 4))
            a, b, *busy = (int(q) for q in rng.permutation(n))
            circuit = Circuit(n, nc)
            cls._add_random_gates(rng, circuit, busy, int(rng.integers(1, 6)))
            circuit.add_gate("measure", [a, int(rng.integers(nc))])
            circuit.add_gate("measure", [busy[0], int(rng.integers(nc))])
            circuit.add_gate("ry", [busy[0]], [float(rng.uniform(0.3, 2.8))])
            cls._add_random_gates(rng, circuit, busy, int(rng.integers(0, 6)))
            remeasure = bool(rng.integers(2))
            for q in (b, busy[0], a)[: 2 + remeasure]:
                circuit.add_gate("measure", [q, int(rng.integers(nc))])
            yield circuit, not remeasure

    def test_untouched_qubit_measures_match_oracles(self):
        for i, (circuit, closes) in enumerate(self._idle_measure_circuits(56, 15)):
            segments, measures, table, trailing = _plan(tuple(circuit.ops))
            grows = [step.args[0] for segment in segments for step in segment if step.func is sim._grow]
            closed = sum(close for _, _, close in measures)
            # The first trailing qubit, which nothing touched before, enters
            # the row last, into its top slot, just before the table reads it.
            last = segments[-1][-1]
            assert bool(closed) == closes and (last.func, last.args) == (sim._grow, (1,))
            assert table[0] == sum(grows) - closed - 1
            assert len(table) == len(trailing) == 2 + (not closes)
            self._assert_matches_oracles(circuit, i, (1, 7, 4096))

    def test_gates_after_a_deferred_measure_run_once(self, monkeypatch):
        # In program order the ten gates would run on both branches of the
        # first measure, and the final h on all four histories: 28 calls.
        # The steps bind the kernels when compiled, so the plan is made anew.
        calls = []
        sim._plan.cache_clear()
        for name in ("_apply_general", "_apply_diag", "_apply_anti"):
            def counting(*args, fn=getattr(sim, name)):
                calls.append(fn)
                return fn(*args)

            monkeypatch.setattr(sim, name, counting)
        exact_distribution(self._dependency_circuit())
        sim._plan.cache_clear()
        assert len(calls) == 14

    @classmethod
    def _trailing_block_circuit(cls, rng):
        """A circuit ending in 9-14 trailing measures of k <= 8 distinct
        qubits in random order, so qubits repeat and clbits are overwritten
        by later and by earlier table qubits.  Two of the qubits have p1
        exactly 0 (no gate) and 1 (one x); half the time a measure and a
        further unitary come first."""
        n, nc = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        zero, one, *busy = (int(q) for q in rng.permutation(n))
        circuit = Circuit(n, nc)
        circuit.add_gate("x", [one])
        if busy:
            cls._add_random_gates(rng, circuit, busy, int(rng.integers(1, 16)))
            if rng.integers(2):
                circuit.add_gate("measure", [busy[0], int(rng.integers(nc))])
                circuit.add_gate("ry", [busy[0]], [float(rng.uniform(0.3, 2.8))])
        table = [zero, one, *busy[: int(rng.integers(0, 7))]]
        block = table + [int(q) for q in rng.choice(table, size=int(rng.integers(9, 15)) - len(table))]
        for q in rng.permutation(block):
            circuit.add_gate("measure", [int(q), int(rng.integers(nc))])
        return circuit

    def test_trailing_block_matches_oracles(self):
        rng = np.random.default_rng(57)
        for i in range(20):
            self._assert_matches_oracles(self._trailing_block_circuit(rng), i, (1, 7, 4096))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trailing_block_matches_oracles_property(self, seed):
        circuit = self._trailing_block_circuit(np.random.default_rng(seed))
        self._assert_matches_oracles(circuit, seed, (4096,))

    def test_trailing_measures_split_no_state_row(self, monkeypatch):
        # shor15 measures all eight qubits after its last gate; the n=16
        # circuit measures twelve of its qubits after its last gate.
        from gatekit.algos import build_shor15

        calls = []
        for name in ("_branch_probs", "_collapse"):
            def counting(*args, fn=getattr(sim, name)):
                calls.append(fn)
                return fn(*args)

            monkeypatch.setattr(sim, name, counting)
        wide = Circuit(16, 12)
        for q in range(16):
            wide.add_gate("h", [q])
        for q in range(15):
            wide.add_gate("cnot", [q, q + 1])
            wide.add_gate("ry", [q + 1], [0.3 + 0.1 * q])
        for c in range(12):
            wide.add_gate("measure", [c + 2, c])
        for circuit in (build_shor15(), wide):
            assert sum(run_shots(circuit, 1000, 1).entries.values()) == 1000
            assert abs(sum(exact_distribution(circuit).entries.values()) - 1.0) <= 1e-9
        assert calls == []

    def test_terminal_measures_hold_small_rows(self):
        # The state row is 1 MiB. Splitting full rows at the four trailing
        # measures would hold up to five more (a 6 MiB peak); the marginal
        # table has 16 entries.
        n = 16
        c = Circuit(n, 4)
        for q in range(n):
            c.add_gate("h", [q])
        for q in range(4):
            c.add_gate("measure", [3 * q, q])
        for run in (lambda: exact_distribution(c), lambda: run_shots(c, 1000, 1)):
            tracemalloc.start()
            try:
                result = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result.entries) == 16
            assert peak < 3 * 2**20

    def test_row_holds_only_live_qubits(self):
        # All 20 qubits would be one 16 MiB row; the plan only ever holds
        # the three that gates touch.
        c = Circuit(20, 1)
        c.add_gate("h", [4])
        c.add_gate("cnot", [4, 11])
        c.add_gate("ry", [17], [0.8])
        c.add_gate("toffoli", [4, 17, 11])
        c.add_gate("measure", [11, 0])
        for run in (lambda: exact_distribution(c), lambda: run_shots(c, 1000, 1)):
            tracemalloc.start()
            try:
                result = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert set(result.entries) == {"0", "1"}
            assert peak < 2**20

    def test_sampling_memory_does_not_scale_with_shots(self):
        # One row per shot would be 2048 x 2^14 x 16 B = 512 MiB; the walk
        # holds a handful of 256 KiB rows.
        n = 14
        c = Circuit(n, 4)
        for q in range(4):
            c.add_gate("h", [q])
        c.add_gate("measure", [0, 0])
        for q in range(4, n):
            c.add_gate("cnot", [q - 4, q])
        for q in range(1, 4):
            c.add_gate("measure", [q, q])
        tracemalloc.start()
        try:
            counts = run_shots(c, 2048, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.entries.values()) == 2048
        assert peak < 32 * 2**20


def test_readme_library_tour():
    c = Circuit(2, 2)
    c.add_gate("h", [0])
    c.add_gate("cnot", [0, 1])
    c.add_gate("measure", [0, 0])
    c.add_gate("measure", [1, 1])
    assert run_shots(c, 1000, seed=7).entries == {"00": 539, "11": 461}
    assert exact_distribution(c).entries == {"00": 0.5, "11": 0.5}


class TestExactDistribution:
    def test_bell(self):
        from gatekit.algos import build_bell

        dist = exact_distribution(build_bell())
        assert set(dist.entries) == {"00", "11"}
        assert abs(dist["00"] - 0.5) <= 1e-12
        assert abs(dist["11"] - 0.5) <= 1e-12

    def test_deterministic_circuit(self):
        c = Circuit(1, 1)
        c.add_gate("x", [0]).add_gate("measure", [0, 0])
        assert exact_distribution(c).entries == {"1": 1.0}

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            circuit = random_circuit(rng, 4, 20, num_clbits=4, measure_prob=0.3)
            circuit.add_gate("measure", [0, 0])
            dist = exact_distribution(circuit)
            assert abs(sum(dist.entries.values()) - 1.0) <= 1e-9

    def test_clbit_overwrite_merges_branches(self):
        c = Circuit(2, 1)
        c.add_gate("h", [0])
        c.add_gate("measure", [0, 0])
        c.add_gate("x", [1])
        c.add_gate("measure", [1, 0])
        dist = exact_distribution(c)
        assert set(dist.entries) == {"1"}
        assert abs(dist["1"] - 1.0) <= 1e-12

    def test_requires_measurement(self):
        c = Circuit(1, 0)
        c.add_gate("h", [0])
        with pytest.raises(NoMeasurementError):
            exact_distribution(c)

    def test_branch_cap(self):
        # A repeated trailing measure keeps its outcome: the 31 measures of
        # one qubit make a single binary split.
        c = Circuit(1, 1)
        c.add_gate("h", [0])
        for _ in range(31):
            c.add_gate("measure", [0, 0])
        assert exact_distribution(c).entries == {"0": 0.5, "1": 0.5}

    def test_branch_cap_counts_splits_on_one_path(self, monkeypatch):
        # 30 splits (29 mid-circuit measures and one trailing qubit) are
        # allowed; 31 are refused before any walk starts.
        walk, walks = sim._walk, []

        def counting_walk(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(sim, "_walk", counting_walk)
        for gate, pairs, refused in (("x", 30, False), ("h", 31, True)):
            c = Circuit(1, 1)
            for _ in range(pairs):
                c.add_gate(gate, [0])
                c.add_gate("measure", [0, 0])
            walks.clear()
            if refused:
                with pytest.raises(BranchCapError):
                    exact_distribution(c)
                assert walks == []
            else:
                assert exact_distribution(c).entries == {"0": 1.0}

    def test_rz_before_measure_changes_nothing(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            base = random_circuit(rng, 3, 12, num_clbits=3)
            for q in range(3):
                base.add_gate("measure", [q, q])
            with_rz = Circuit(3, 3, list(base.ops))
            target = int(rng.integers(3))
            theta = float(rng.uniform(-math.pi, math.pi))
            insert_at = next(
                i for i, op in enumerate(with_rz.ops)
                if op.kind is GateKind.MEASURE and op.qubits[0] == target
            )
            with_rz.ops.insert(insert_at, GateOp(GateKind.RZ, (target,), (theta,)))
            before = exact_distribution(base)
            after = exact_distribution(with_rz)
            assert set(before.entries) == set(after.entries)
            for key, p in before.entries.items():
                assert abs(after[key] - p) <= 1e-12

    def test_sampling_agrees_with_exact(self):
        rng = np.random.default_rng(44)
        circuit = random_circuit(rng, 3, 10, num_clbits=3)
        for q in range(3):
            circuit.add_gate("measure", [q, q])
        counts = run_shots(circuit, 20000, 8)
        assert tv_distance(counts, exact_distribution(circuit)) <= 0.02


def _same(a, b) -> bool:
    """Equal in structure and value, numpy arrays and plan steps included."""
    if isinstance(a, functools.partial):
        return isinstance(b, functools.partial) and a.func is b.func and _same(a.args, b.args)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


class TestPlanCache:
    """run_shots and exact_distribution keep the plan of the last circuit
    compiled; every result must equal a cold run, made with the cache cleared."""

    @staticmethod
    def _run(circuit):
        return run_shots(circuit, 500, 11).entries, exact_distribution(circuit).entries

    @staticmethod
    def _cold(circuit):
        sim._plan.cache_clear()
        counts = run_shots(circuit, 500, 11).entries
        sim._plan.cache_clear()
        exact = exact_distribution(circuit).entries
        sim._plan.cache_clear()
        return counts, exact

    @staticmethod
    def _circuit(rng, n=4, nc=3):
        c = random_circuit(rng, n, 14, num_clbits=nc, measure_prob=0.2)
        for q in range(nc):
            c.add_gate("measure", [q, q])
        return c

    def test_circuit_changed_after_a_run_compiles_again(self):
        for change in ("add_gate", "replace"):
            c = Circuit(3, 3)
            c.add_gate("h", [0])
            c.add_gate("cnot", [0, 1])
            c.add_gate("ry", [2], [0.9])
            for q in range(3):
                c.add_gate("measure", [q, q])
            before = self._run(c)
            if change == "add_gate":
                c.add_gate("x", [1])
                c.add_gate("measure", [1, 1])
            else:
                c.ops[2] = GateOp(GateKind.RY, (2,), (2.1,))
            after = self._run(c)
            assert after != before, change
            assert after == self._cold(c), change

    def test_list_operands_through_append(self):
        c = Circuit(3, 2)
        c.append(GateOp(GateKind.H, [0]))
        c.append(GateOp(GateKind.CNOT, [0, 2]))
        c.append(GateOp(GateKind.RY, [1], [0.7]))
        c.append(GateOp(GateKind.MEASURE, [2], clbit=0))
        c.append(GateOp(GateKind.MEASURE, [1], clbit=1))
        ref = Circuit(3, 2)
        for name, operands, params in (("h", [0], []), ("cnot", [0, 2], []), ("ry", [1], [0.7]),
                                       ("measure", [2, 0], []), ("measure", [1, 1], [])):
            ref.add_gate(name, operands, params)
        assert self._run(c) == self._run(c) == self._cold(ref)

    # Each pair compares equal, so it shares one key: 0.0 and -0.0, and an
    # angle given as a Python float and as an np.float32 of the same value.
    @pytest.mark.parametrize("angles", [(0.0, -0.0), (0.5, np.float32(0.5))], ids=["signed_zero", "float32"])
    @pytest.mark.parametrize("name,operands", [("rx", (1,)), ("ry", (1,)), ("rz", (1,)), ("cphase", (0, 1))])
    def test_equal_angles_share_one_plan(self, name, operands, angles):
        def circuit(angle):
            c = Circuit(2, 2)
            c.add_gate("h", [0])
            c.add_gate("h", [1])
            c.append(GateOp(GateKind(name), operands, (angle,)))
            c.add_gate("h", [1])
            c.add_gate("measure", [0, 0])
            c.add_gate("measure", [1, 1])
            return c

        # Every angle is stored as a Python float, with its sign.
        assert [type(circuit(a).ops[2].params[0]) for a in angles] == [float, float]
        assert math.copysign(1, circuit(angles[1]).ops[2].params[0]) == math.copysign(1, angles[1])
        cold = [self._cold(circuit(angle)) for angle in angles]
        assert cold[0] == cold[1]
        for order in ((0, 1), (1, 0)):
            sim._plan.cache_clear()
            for i in order:
                assert self._run(circuit(angles[i])) == cold[i]
            # The two angles compare equal, so the second run reused the plan.
            assert sim._plan.cache_info().misses == 1

    def test_interleaved_runs_equal_cold_runs(self):
        rng = np.random.default_rng(72)
        for _ in range(5):
            a, b = self._circuit(rng), self._circuit(rng, n=5, nc=2)
            cold_a, cold_b = self._cold(a), self._cold(b)
            assert [self._run(c) for c in (a, b, a)] == [cold_a, cold_b, cold_a]

    def test_exact_then_sampling_compiles_once(self, monkeypatch):
        c = self._circuit(np.random.default_rng(73))
        sim._plan.cache_clear()
        calls = []
        compile_step = sim._compile_step
        monkeypatch.setattr(sim, "_compile_step", lambda *args: calls.append(args) or compile_step(*args))
        exact_distribution(c)
        compiled = len(calls)
        run_shots(c, 100, 3)
        run_shots(c, 100, 4)
        assert compiled > 0 and len(calls) == compiled
        assert sim._plan.cache_info().misses == 1

    def test_runs_never_change_the_plan(self):
        rng = np.random.default_rng(74)
        for _ in range(5):
            c = self._circuit(rng, n=5)
            sim._plan.cache_clear()
            plan = _plan(tuple(c.ops))
            kept = copy.deepcopy(plan)
            for chunk_size in (1, 7, 4096):
                run_shots(c, 300, 2, chunk_size=chunk_size)
            exact_distribution(c)
            assert _plan(tuple(c.ops)) is plan
            assert _same(plan, kept)


def _digest_circuits():
    """About 200 seeded circuits, built with the standard library's random
    (whose streams, unlike numpy's Generator, are promised to stay the same):
    1-9 qubits, 1-40 ops, a fifth of them measures, then a final measure."""
    rng = random.Random(2026)
    for _ in range(200):
        n, nc = rng.randint(1, 9), rng.randint(1, 4)
        c = Circuit(n, nc)
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.2:
                c.add_gate("measure", [rng.randrange(n), rng.randrange(nc)])
                continue
            kind = rng.choice([k for k in GateKind if k is not GateKind.MEASURE and k.qubit_arity <= n])
            qubits = rng.sample(range(n), kind.qubit_arity)
            c.add_gate(kind.value, qubits, [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(kind.param_count)])
        c.add_gate("measure", [rng.randrange(n), rng.randrange(nc)])
        yield c


# SHA-256 of every count below, keys in order; fixed once and never edited,
# so a change that moves any seeded count or its key order fails here.
COUNTS_DIGEST = "c323e245c0f2055913b9e8c953899f53854eb0c1c2f4c550515181037d4ec6e7"


def test_seeded_counts_digest():
    from gatekit.algos import build_bell, build_shor15

    runs = [run_shots(c, 60, seed) for seed, c in enumerate(_digest_circuits())]
    runs += [run_shots(build_shor15(), 1000, seed) for seed in range(5)]
    runs.append(run_shots(build_bell(), 1000, 7))
    digest = hashlib.sha256()
    for counts in runs:
        digest.update(repr(list(counts.entries.items())).encode())
    assert digest.hexdigest() == COUNTS_DIGEST
