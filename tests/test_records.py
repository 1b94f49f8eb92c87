"""Value semantics of the package's record classes: GateOp, Circuit,
EmittedProgram, ShorConfig, FactorReport, and sim's StateVector,
ClassicalRegister, Counts and ExactDistribution.

Construction by position and keyword, field equality, hashing of the frozen
three, repr strings, refused assignment, and pickle / copy round trips.
"""
import copy
import pickle

import numpy as np
import pytest

from gatekit.algos import FactorReport, ShorConfig, extract_factors
from gatekit.emit import EmittedProgram, translate
from gatekit.ir import Circuit, GateKind, GateOp
from gatekit.sim import ClassicalRegister, Counts, ExactDistribution, StateVector


def _circuit():
    circuit = Circuit(2, 1)
    circuit.add_gate("h", [0])
    circuit.add_gate("rx", [1], [0.5])
    circuit.add_gate("measure", [0, 0])
    return circuit


def _report(counts=None):
    return FactorReport({4}, [(2, 4, True)], {2: True}, {3, 5}, {3, 5}, counts)


# One sample of each class, and one that differs from it in a single field.
SAMPLES = {
    "GateOp": (GateOp(GateKind.RX, (0,), (0.5,)), GateOp(GateKind.RX, (0,), (0.25,))),
    "Circuit": (_circuit(), Circuit(2, 2, _circuit().ops)),
    "EmittedProgram": (EmittedProgram("pyquil", "H 0\n"), EmittedProgram("pyquil", "X 0\n")),
    "ShorConfig": (ShorConfig(), ShorConfig(4, 21)),
    "FactorReport": (_report(), FactorReport({4}, [(2, 4, True)], {2: True}, {3, 5}, {3})),
    "Counts": (Counts({"0": 1}, 1), Counts({"0": 1}, 2)),
    "ExactDistribution": (ExactDistribution({"0": 1.0}), ExactDistribution({"1": 1.0})),
    "ClassicalRegister": (ClassicalRegister([0, 1]), ClassicalRegister([1, 1])),
}
FROZEN = ("GateOp", "EmittedProgram", "ShorConfig")
MUTABLE = ("Circuit", "FactorReport", "Counts", "ExactDistribution", "ClassicalRegister")
FIELDS = {
    "GateOp": ("kind", "qubits", "params", "clbit"),
    "Circuit": ("num_qubits", "num_clbits", "ops"),
    "EmittedProgram": ("dialect", "source"),
    "ShorConfig": ("n_count", "modulus"),
    "FactorReport": ("measured_values", "periods_tried", "period_found", "factors",
                     "prime_factors", "counts"),
    "Counts": ("entries", "shots"),
    "ExactDistribution": ("entries",),
    "ClassicalRegister": ("bits",),
}
ROUNDTRIPS = [
    copy.copy,
    copy.deepcopy,
    *(lambda value, protocol=p: pickle.loads(pickle.dumps(value, protocol))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
]


class TestConstruction:
    def test_gate_op(self):
        op = GateOp(GateKind.H, (0,))
        assert (op.kind, op.qubits, op.params, op.clbit) == (GateKind.H, (0,), (), None)
        assert GateOp(kind=GateKind.H, qubits=(0,), params=(), clbit=None) == op
        measure = GateOp(GateKind.MEASURE, (1,), (), 2)
        assert measure == GateOp(GateKind.MEASURE, qubits=[1], clbit=2)
        assert (measure.qubits, measure.clbit) == ((1,), 2)
        assert GateOp(GateKind.RZ, (0,), [1]).params == (1.0,)

    def test_circuit(self):
        circuit = Circuit(3)
        assert (circuit.num_qubits, circuit.num_clbits, circuit.ops) == (3, 0, [])
        ops = [GateOp(GateKind.H, (0,)), GateOp(GateKind.MEASURE, (0,), (), 1)]
        built = Circuit(num_qubits=3, num_clbits=2, ops=ops)
        assert built == Circuit(3, 2, ops)
        assert built.ops == ops and built.ops is not ops
        # each default-constructed circuit has a list of its own
        Circuit(1).add_gate("h", [0])
        assert Circuit(1).ops == []

    def test_emitted_program(self):
        program = EmittedProgram("qiskit", "src\n")
        assert (program.dialect, program.source) == ("qiskit", "src\n")
        assert EmittedProgram(dialect="qiskit", source="src\n") == program

    def test_shor_config(self):
        assert (ShorConfig().n_count, ShorConfig().modulus) == (4, 15)
        config = ShorConfig(3, 21)
        assert (config.n_count, config.modulus) == (3, 21)
        assert ShorConfig(n_count=3, modulus=21) == config
        assert ShorConfig(modulus=21) == ShorConfig(4, 21)
        assert config.base_set == (2, 4, 5, 8, 10, 11, 13, 16, 17, 19, 20)

    def test_factor_report(self):
        report = _report()
        assert report.counts is None
        assert (report.measured_values, report.periods_tried, report.period_found,
                report.factors, report.prime_factors) == ({4}, [(2, 4, True)], {2: True}, {3, 5}, {3, 5})
        assert FactorReport(measured_values={4}, periods_tried=[(2, 4, True)], period_found={2: True},
                            factors={3, 5}, prime_factors={3, 5}, counts=None) == report

    @pytest.mark.parametrize("name", FIELDS)
    def test_match_args(self, name):
        cls = type(SAMPLES[name][0])
        assert cls.__match_args__ == FIELDS[name]


class TestEquality:
    @pytest.mark.parametrize("name", SAMPLES)
    def test_equal_and_not_equal(self, name):
        sample, other = SAMPLES[name]
        again = copy.copy(sample)
        assert sample == again and not sample != again
        assert sample != other and not sample == other

    @pytest.mark.parametrize("name", SAMPLES)
    def test_other_types_are_not_implemented(self, name):
        sample = SAMPLES[name][0]
        fields = tuple(getattr(sample, field) for field in FIELDS[name])
        foreign = EmittedProgram("qiskit", "") if name != "EmittedProgram" else ShorConfig()
        for value in (fields, foreign, None):
            assert sample.__eq__(value) is NotImplemented
            assert sample != value and not sample == value

    def test_subclass_instance_is_not_equal(self):
        class Sub(GateOp):
            pass

        op = GateOp(GateKind.H, (0,))
        assert op.__eq__(Sub(GateKind.H, (0,))) is NotImplemented
        assert op != Sub(GateKind.H, (0,))


class TestHash:
    @pytest.mark.parametrize("name", FROZEN)
    def test_equal_values_hash_alike(self, name):
        sample = SAMPLES[name][0]
        assert hash(sample) == hash(copy.deepcopy(sample))
        assert len({sample, copy.copy(sample), SAMPLES[name][1]}) == 2

    def test_gate_op_built_two_ways_hashes_alike(self):
        assert hash(GateOp(GateKind.RZ, [0], [1])) == hash(GateOp(GateKind.RZ, (0,), (1.0,)))

    @pytest.mark.parametrize("name", MUTABLE)
    def test_mutable_records_are_unhashable(self, name):
        with pytest.raises(TypeError):
            hash(SAMPLES[name][0])


class TestRepr:
    def test_gate_op(self):
        assert repr(GateOp(GateKind.RX, (0,), (0.5,))) == (
            "GateOp(kind=<GateKind.RX: 'rx'>, qubits=(0,), params=(0.5,), clbit=None)"
        )
        assert repr(GateOp(GateKind.MEASURE, (1,), (), 0)) == (
            "GateOp(kind=<GateKind.MEASURE: 'measure'>, qubits=(1,), params=(), clbit=0)"
        )

    def test_circuit(self):
        circuit = Circuit(2, 1)
        assert repr(circuit) == "Circuit(num_qubits=2, num_clbits=1, ops=[])"
        circuit.add_gate("h", [0])
        assert repr(circuit) == (
            "Circuit(num_qubits=2, num_clbits=1, ops=[GateOp(kind=<GateKind.H: 'h'>, "
            "qubits=(0,), params=(), clbit=None)])"
        )

    def test_emitted_program(self):
        assert repr(EmittedProgram("pyquil", "H 0\n")) == "EmittedProgram(dialect='pyquil', source='H 0\\n')"

    def test_shor_config(self):
        assert repr(ShorConfig()) == "ShorConfig(n_count=4, modulus=15)"

    def test_factor_report(self):
        assert repr(_report()) == (
            "FactorReport(measured_values={4}, periods_tried=[(2, 4, True)], "
            "period_found={2: True}, factors={3, 5}, prime_factors={3, 5}, counts=None)"
        )

    def test_sim_records(self):
        assert repr(Counts({"0": 1}, 1)) == "Counts(entries={'0': 1}, shots=1)"
        assert repr(ExactDistribution({"0": 1.0})) == "ExactDistribution(entries={'0': 1.0})"
        assert repr(ClassicalRegister([0, 1])) == "ClassicalRegister(bits=[0, 1])"
        assert repr(StateVector.zero(1)) == "StateVector(n=1, amps=array([1.+0.j, 0.+0.j]))"


class TestFrozen:
    @pytest.mark.parametrize("name", FROZEN)
    def test_fields_refuse_assignment_and_deletion(self, name):
        sample = SAMPLES[name][0]
        before = copy.copy(sample)
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(sample, field, None)
            with pytest.raises(AttributeError):
                delattr(sample, field)
        assert sample == before

    def test_shared_default_config_stays_immutable(self):
        default = extract_factors.__defaults__[0]
        assert default == ShorConfig()
        with pytest.raises(AttributeError):
            default.modulus = 21
        assert extract_factors({4}) == extract_factors({4}, ShorConfig())

    @pytest.mark.parametrize("name", MUTABLE)
    def test_mutable_records_accept_assignment(self, name):
        sample = copy.deepcopy(SAMPLES[name][0])
        for field in FIELDS[name]:
            setattr(sample, field, getattr(SAMPLES[name][1], field))
            assert getattr(sample, field) == getattr(SAMPLES[name][1], field)


class TestRoundTrips:
    @pytest.mark.parametrize("name", SAMPLES)
    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS)
    def test_copy_equals_original(self, name, roundtrip):
        sample = SAMPLES[name][0]
        again = roundtrip(sample)
        assert type(again) is type(sample) and again == sample

    def test_deepcopy_of_circuit_is_independent(self):
        circuit = _circuit()
        again = copy.deepcopy(circuit)
        again.add_gate("x", [1])
        assert len(circuit) == 3 and len(again) == 4
        assert again.ops[:3] == circuit.ops

    def test_copied_gate_op_is_still_frozen(self):
        again = pickle.loads(pickle.dumps(GateOp(GateKind.H, (0,))))
        with pytest.raises(AttributeError):
            again.kind = GateKind.X

    def test_translate_result_and_report_with_counts(self):
        program = translate(_circuit(), "qiskit")
        assert pickle.loads(pickle.dumps(program)) == program
        from gatekit.sim import run_shots

        report = _report(run_shots(_circuit(), 20, 1))
        assert copy.deepcopy(report) == report
        assert pickle.loads(pickle.dumps(report)) == report


class TestSimRecords:
    """StateVector, and the mapping methods that Counts and ExactDistribution
    share.  A StateVector's amps is an array, so two distinct equal states
    compare as arrays do and raise; amps is compared with np.array_equal."""

    def test_constructors(self):
        assert Counts(entries={"0": 1}, shots=1) == Counts({"0": 1}, 1)
        assert ExactDistribution(entries={"0": 1.0}) == ExactDistribution({"0": 1.0})
        assert ClassicalRegister(bits=[0]) == ClassicalRegister.zeros(1)
        amps = np.array([1, 0], complex)
        state = StateVector(n=1, amps=amps)
        assert state.n == 1 and state.amps is amps

    def test_state_vector_values(self):
        state = StateVector.zero(2)
        assert StateVector.__match_args__ == ("n", "amps")
        assert state == state and state.__eq__((2, state.amps)) is NotImplemented
        with pytest.raises(ValueError):
            state == StateVector(2, state.amps.copy())
        with pytest.raises(TypeError):
            hash(state)

    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS)
    def test_state_vector_round_trips(self, roundtrip):
        state = StateVector.zero(2)
        again = roundtrip(state)
        assert type(again) is StateVector and again.n == 2
        assert np.array_equal(again.amps, state.amps)

    def test_get_defaults(self):
        counts, dist = Counts({"0": 1}, 1), ExactDistribution({"0": 0.5})
        assert (counts.get("1"), type(counts.get("1"))) == (0, int)
        assert (dist.get("1"), type(dist.get("1"))) == (0.0, float)
        for mapping in (counts, dist):
            assert mapping.get("1", None) is None and mapping.get("1", default=None) is None
            assert mapping.get("1", 7) == 7 and mapping.get("0", 7) == mapping["0"]
            assert list(mapping.items()) == [("0", mapping["0"])]
            with pytest.raises(KeyError):
                mapping["1"]

    def test_keys(self):
        assert list(Counts({"0": 1, "1": 2}, 3).keys()) == ["0", "1"]
        assert list(ExactDistribution({"1": 1.0}).keys()) == ["1"]
