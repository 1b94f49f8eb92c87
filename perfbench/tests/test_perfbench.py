"""Tests of the benchmark itself: seeded generators, the output checks, the
span arithmetic and tracer, and the command's exit codes.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gatekit  # noqa: E402
import gatekit.cli  # noqa: E402,F401

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_seeded(workload):
    generate = workloads.GENERATORS[workload]
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_stratified_inputs_keep_their_mix_across_seeds():
    def wide_mix(seed):
        return sorted((spec.num_qubits, sorted(op[0] for op in spec.ops))
                      for jobs in workloads.gen_wide(seed) for spec, _ in jobs)

    def text_mix(seed):
        return sorted((spec.num_qubits, len(spec.ops)) for _, spec in workloads.gen_text(seed))

    assert wide_mix(1) == wide_mix(2)
    assert text_mix(1) == text_mix(2)


def test_wide_requests_are_alike():
    for jobs in workloads.gen_wide(7):
        assert tuple(spec.num_qubits for spec, _ in jobs) == workloads.WIDE_SIZES


def test_generated_documents_parse_to_their_specs():
    for doc, spec in workloads.gen_text(5)[:6]:
        assert gatekit.parse(doc) == workloads.build(spec, gatekit)


def test_quil_renderer_matches_the_golden_files():
    for name, make in (("bell", gatekit.build_bell), ("shor15", gatekit.build_shor15)):
        circuit = make()
        spec = workloads.CircuitSpec(circuit.num_qubits, circuit.num_clbits, tuple(
            (op.kind.value, op.qubits + ((op.clbit,) if op.clbit is not None else ()), op.params)
            for op in circuit.ops))
        golden = (ROOT / "tests" / "golden" / f"{name}.pyquil.txt").read_text()
        assert workloads.render_quil(spec) == golden


# ---------------------------------------------------------------------------
# the checks reject planted wrong outputs


def test_shor15_check_rejects_planted_errors():
    code, out = workloads.shor15_request(gatekit, 5)
    assert workloads.check_shor15(code, out, run.SHOR15_SUPPORT) == []

    altered = run.Shor15(gatekit).corrupt((code, out))[1]
    assert altered != out
    assert workloads.check_shor15(code, altered, run.SHOR15_SUPPORT)

    wrong_factors = out.replace("factors: {3, 5, 15}", "factors: {3, 15}")
    assert workloads.check_shor15(code, wrong_factors, run.SHOR15_SUPPORT)

    outside = out.replace("  01000000 ", "  01000001 ")
    assert workloads.check_shor15(code, outside, run.SHOR15_SUPPORT)
    assert workloads.check_shor15(3, out, run.SHOR15_SUPPORT)


def _small_wide_circuit():
    spec = workloads.CircuitSpec(4, 3, (
        ("h", (0,), ()), ("cnot", (0, 1), ()), ("ry", (2,), (1.1,)),
        ("measure", (2, 0), ()), ("rx", (3,), (0.4,)), ("measure", (0, 1), ()),
        ("measure", (3, 0), ()),
    ))
    return workloads.build(spec, gatekit)


def test_wide_check_rejects_planted_errors():
    circuit = _small_wide_circuit()
    ((exact, counts),) = workloads.wide_request(gatekit, ((circuit, 11),))
    rerun = gatekit.run_shots(circuit, workloads.WIDE_SHOTS, 11).entries
    assert workloads.check_wide(exact, counts, rerun) == []

    ((_, altered),) = run.Wide(gatekit).corrupt(((exact, counts),))
    assert workloads.check_wide(exact, altered, rerun)
    assert workloads.check_wide(exact, counts, {**counts, "999": 0})
    first = next(iter(exact))
    assert workloads.check_wide({**exact, first: exact[first] + 1e-6}, counts, rerun)
    missing = {k: v for k, v in exact.items() if k != next(iter(counts))}
    assert workloads.check_wide(missing, counts, None)


def test_wide_runner_catches_a_rerun_that_differs():
    circuit = _small_wide_circuit()
    request = workloads.Request("c", ((circuit, 11), (circuit, 12)))
    runner = run.Wide(gatekit)
    first, second = runner.execute(request)
    exact, counts = second
    key = next(iter(counts))
    assert runner.check(request, (first, (exact, {**counts, key: counts[key] - 1, "x": 1})))
    assert runner.finish() == [("c", ["a seeded rerun gave different counts"])]

    repeated = run.Wide(gatekit)
    assert repeated.check(request, (first, second)) == []
    assert repeated.check(request, (first, (exact, {**counts, key: counts[key] - 1, "x": 1})))
    assert repeated.finish() == []


def test_text_check_rejects_planted_errors():
    doc, spec = min(workloads.gen_text(2), key=lambda pair: len(pair[0]))
    runner = run.Text(gatekit)
    request = workloads.Request("doc", (doc, spec))
    out = runner.execute(request)
    assert runner.check(request, out) == []

    assert runner.check(request, runner.corrupt(out))

    circuit, sources, diagram, canonical = out
    other = gatekit.parse(canonical)
    other.add_gate("h", [0])
    assert workloads.check_text(circuit, sources, other, {"pyquil": sources["pyquil"]})


def test_golden_check_rejects_a_changed_line():
    request = workloads.Request("bell", (gatekit.serialize(gatekit.build_bell()), None))
    runner = run.Text(gatekit)
    out = runner.execute(request)
    assert runner.check(request, out) == []
    circuit, sources, diagram, canonical = out
    changed = {**sources, "qiskit": sources["qiskit"].replace("qc.h(0)", "qc.h(1)")}
    assert runner.check(request, (circuit, changed, diagram, canonical)) == [
        "qiskit output differs from the reference"]


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_synthetic_tree():
    tree = [
        spans.Span("root", None, 0, 100),
        spans.Span("a", 0, 10, 40),
        spans.Span("a.child", 1, 15, 20),
        spans.Span("a.child2", 1, 25, 37),
        spans.Span("b", 0, 50, 90),
        spans.Span("b.child", 4, 60, 61),
        spans.Span("other", None, 200, 230),
    ]
    assert spans.self_times(tree) == [100 - 30 - 40, 30 - 5 - 12, 5, 12, 40 - 1, 1, 30]


def test_tracer_folds_nested_spans_and_uninstalls():
    ticks = iter(range(0, 10**9, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    original = gatekit.sim.run_shots
    uninstall = spans.install(tracer, gatekit)
    try:
        assert gatekit.run_shots is not original
        assert gatekit.algos.run_shots is gatekit.sim.run_shots
        gatekit.algos.run_shor15_pipeline(50, 1)
        tracer.end_request()
    finally:
        uninstall()
    assert gatekit.sim.run_shots is original and gatekit.run_shots is original
    totals = tracer.totals
    assert totals["algos.run_shor15_pipeline"].calls == 1
    assert totals["algos.build_shor15"].calls == 1
    assert totals["ir.add_gate"].calls == 33
    assert totals["sim.run_shots"].calls == 1
    pipeline = totals["algos.run_shor15_pipeline"]
    children = sum(totals[name].total_ns for name in (
        "algos.build_shor15", "sim.run_shots", "algos.extract_measured_values",
        "algos.extract_factors"))
    assert pipeline.self_ns == pipeline.total_ns - children


def test_metric_sources_are_fixed_per_workload():
    tracer, _ = run.make_tracer(gatekit)
    cover, _ = run.make_tracer(gatekit)
    run.traced_pass(cover, run.coverage_requests(gatekit), run.LoopResult())
    _, sources, missing = run.span_metrics(gatekit, "wide", (tracer, {}), (cover, {}))
    assert sources["sim.exact_distribution.ms"] == "workload"
    assert sources["cli.main.self_ms"] == "coverage"
    assert sources["sim.amp_updates"] == "workload"
    # The empty workload tracer made no calls: its metrics are reported
    # missing, not taken from the coverage pass.
    assert set(missing) == run.WORKLOAD_SPANS["wide"]


def test_traced_request_leaves_its_check_untraced():
    doc, spec = min(workloads.gen_text(2), key=lambda pair: len(pair[0]))
    tracer, _ = run.make_tracer(gatekit)
    result = run.LoopResult()
    run.traced_pass(tracer, [(run.Text(gatekit), workloads.Request("doc", (doc, spec)))] * 2,
                    result)
    assert result.failed == 0
    assert tracer.requests == 2
    assert tracer.totals["dsl.parse"].calls == 2  # the check parses again, untraced
    assert gatekit.dsl.parse.__module__ == "gatekit.dsl" and not hasattr(
        gatekit.dsl.parse, "__wrapped__")


# ---------------------------------------------------------------------------
# the command


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_fails_on_a_planted_wrong_output():
    done = _run(["--workload", "text", "--seed", "1", "--seconds", "0.3", "--trace", "0",
                 "--plant"], ROOT)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "shor15", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
