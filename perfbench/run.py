"""gatekit benchmark: one workload, a closed loop with one caller, every output
checked.

    python3 perfbench/run.py --workload {shor15,wide,text} --seed N \\
        --seconds S --trace {0,1} [--plant]

--trace 0 measures the end-to-end metrics with the package unmodified.
--trace 1 measures the per-layer metrics: it wraps the public functions of
gatekit's modules (see spans.py), runs the workload traced, runs a fixed
coverage pass for the layers the workload does not reach, and runs the kernel
and bell probes.  --plant corrupts the first timed output, to show that the
checks catch it.

Lines before the last are for people.  The last line of stdout is the JSON
result.  Exit code 0 when every output passed its check, 1 when any failed,
2 when the package source cannot be found.  See README.md for the workloads
and the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

# One process, one caller, no threads: keep OpenBLAS from starting worker
# threads when numpy is imported.  gatekit makes no BLAS calls, and starting
# them on the other, shared CPU made the set-up time double at random.  The
# set-up processes inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import probes  # noqa: E402  (imports numpy)
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 9
WARMUP_REQUESTS = 2
MEMORY_PASS_REQUESTS = 5
COVERAGE_ROUNDS = 3
WIDE_PROBE_REPS = 3
BELL_SEED7 = {"00": 539, "11": 461}
SHOR15_SUPPORT = {"00000000", "01000000", "10000000", "11000000"}


def load_gatekit():
    """Import gatekit from this checkout's src/, never from anywhere else."""
    init = ROOT / "src" / "gatekit" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no package source at {init.relative_to(ROOT)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import gatekit
    import gatekit.cli  # noqa: F401

    if Path(gatekit.__file__).resolve() != init.resolve():
        print(f"perfbench: gatekit was imported from {gatekit.__file__}", file=sys.stderr)
        sys.exit(2)
    return gatekit


# ---------------------------------------------------------------------------
# the three workloads: execute a request, check its output, plant an error


class Shor15:
    def __init__(self, gk):
        self.gk = gk

    def execute(self, request):
        return workloads.shor15_request(self.gk, request.payload)

    def check(self, request, out):
        return workloads.check_shor15(*out, SHOR15_SUPPORT)

    def corrupt(self, out):
        code, text = out
        match = re.search(r"^  [01]+ (\d+)$", text, flags=re.M)
        return code, text[:match.start(1)] + str(int(match.group(1)) + 1) + text[match.end(1):]

    def finish(self):
        return []


class Wide:
    """A request is a tuple of (circuit, shot seed) jobs.  The seeded rerun
    check compares a repeated request with its first output; requests seen
    once in a run are rerun after the timed loop."""

    def __init__(self, gk):
        self.gk = gk
        self.first = {}  # label -> (request, its first output)
        self.repeated = set()

    def execute(self, request):
        return workloads.wide_request(self.gk, request.payload)

    def check(self, request, out):
        if request.label not in self.first:
            self.first[request.label] = (request, out)
            return [p for exact, counts in out for p in workloads.check_wide(exact, counts, None)]
        self.repeated.add(request.label)
        problems = []
        for (exact, counts), (first_exact, first_counts) in zip(out, self.first[request.label][1]):
            problems += workloads.check_wide(exact, counts, first_counts)
            if exact != first_exact:
                problems.append("a repeated request gave a different exact distribution")
        return problems

    def corrupt(self, out):
        (exact, counts), *rest = out
        key = min(counts)
        return ((exact, {**counts, key: counts[key] + 1}), *rest)

    def finish(self):
        failures = []
        for label, (request, out) in self.first.items():
            if label in self.repeated:
                continue
            for (circuit, shot_seed), (_, counts) in zip(request.payload, out):
                rerun = self.gk.sim.run_shots(circuit, workloads.WIDE_SHOTS, shot_seed).entries
                if rerun != counts:
                    failures.append((label, ["a seeded rerun gave different counts"]))
        return failures


class Text:
    def __init__(self, gk):
        self.gk = gk
        self.golden = {name: workloads.golden_sources(ROOT, name) for name in ("bell", "shor15")}

    def execute(self, request):
        return workloads.text_request(self.gk, request.payload[0])

    def check(self, request, out):
        circuit, sources, _diagram, canonical = out
        spec = request.payload[1]
        expected = self.golden[request.label] if spec is None else {
            "pyquil": workloads.render_quil(spec)}
        return workloads.check_text(circuit, sources, self.gk.dsl.parse(canonical), expected)

    def corrupt(self, out):
        circuit, sources, diagram, canonical = out
        lines = sources["pyquil"].split("\n")
        lines[1] = lines[1][:-1] + ("1" if lines[1][-1] != "1" else "2")
        return circuit, {**sources, "pyquil": "\n".join(lines)}, diagram, canonical

    def finish(self):
        return []


RUNNERS = {"shor15": Shor15, "wide": Wide, "text": Text}


def preflight(gk) -> list:
    """Checks that hold on every workload: the README's seeded bell counts and
    the golden translations of both demos."""
    problems = []
    bell = gk.sim.run_shots(gk.build_bell(), 1000, 7).entries
    if bell != BELL_SEED7:
        problems.append(f"bell seed=7 gave {bell}, expected {BELL_SEED7}")
    for name, make in (("bell", gk.build_bell), ("shor15", gk.build_shor15)):
        circuit = make()
        for dialect, text in workloads.golden_sources(ROOT, name).items():
            if gk.emit.translate(circuit, dialect).source != text:
                problems.append(f"{name} {dialect} differs from tests/golden")
    return problems


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def req_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.latencies)


def serve(runner, request, result: LoopResult, tracer=None, plant=False):
    """Send one request, check its output, return its latency in seconds.
    With a tracer, the wrappers are in place for the request only, not for
    its check."""
    uninstall = spans.install(tracer, runner.gk) if tracer is not None else None
    start = time.perf_counter()
    try:
        out, error = runner.execute(request), None
    except Exception as exc:  # a failing request is counted, not fatal
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        if uninstall is not None:
            uninstall()
            tracer.end_request()
    if error is None and plant:
        out = runner.corrupt(out)
    result.record(request.label, [error] if error else runner.check(request, out))
    return latency


def closed_loop(runner, requests, seconds: float, plant=False) -> LoopResult:
    """Send the requests in turn, each after the previous one completed,
    until the time is up."""
    result = LoopResult()
    deadline = time.perf_counter() + seconds
    i = WARMUP_REQUESTS
    while time.perf_counter() < deadline:
        request = requests[i % len(requests)]
        result.latencies.append(serve(runner, request, result, plant=plant and i == WARMUP_REQUESTS))
        i += 1
    return result


def paired_loop(runner, requests, seconds: float, tracer, plant=False):
    """Send each request twice in a row, untraced and traced, alternating which
    goes first, so that both sides see the same requests and the same machine
    state.  Returns the untraced and the traced results."""
    untraced, traced = LoopResult(), LoopResult()

    def send_untraced(request, first):
        untraced.latencies.append(serve(runner, request, untraced, plant=plant and first))

    def send_traced(request, first):
        traced.latencies.append(serve(runner, request, traced, tracer))

    deadline = time.perf_counter() + seconds
    i = WARMUP_REQUESTS
    while time.perf_counter() < deadline:
        request = requests[i % len(requests)]
        order = (send_untraced, send_traced) if i % 2 == 0 else (send_traced, send_untraced)
        for send in order:
            send(request, i == WARMUP_REQUESTS)
        i += 1
    return untraced, traced


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, and which percentile that is."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def setup_times(workload: str, seed: int, reps: int) -> list:
    """Set-up seconds timed inside `reps` fresh processes."""
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# trace mode


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def make_tracer(gk) -> tuple:
    """A tracer that counts shots, outcomes, instructions, lines and bytes
    where the work happens, and names each translate span by its dialect;
    and the circuits it saw enumerated, as {id: [circuit, calls]}."""
    enumerated = {}

    def run_shots(args, kwargs, result):
        circuit, shots = args[0], _arg(args, kwargs, 1, "shots")
        return {"shots": shots, "amp_updates": probes.shot_amp_updates(circuit, shots, gk)}

    def exact(args, kwargs, result):
        circuit = _arg(args, kwargs, 0, "circuit")
        enumerated.setdefault(id(circuit), [circuit, 0])[1] += 1
        return {"outcomes": len(result.entries)}

    def emitted(args, kwargs, result):
        text = result if isinstance(result, str) else result.source
        return {"instr": len(_arg(args, kwargs, 0, "circuit").ops), "bytes": len(text)}

    measure = {
        "sim.run_shots": run_shots,
        "sim.exact_distribution": exact,
        "emit.translate": emitted,
        "emit.print_circuit": emitted,
        "dsl.parse": lambda a, k, r: {"lines": len(_arg(a, k, 0, "text").splitlines())},
        "dsl.serialize": lambda a, k, r: {"lines": r.count("\n")},
    }
    rename = {"emit.translate": lambda a, k: f"emit.translate.{_arg(a, k, 1, 'dialect')}"}
    return spans.Tracer(measure, rename), enumerated


def coverage_requests(gk) -> list:
    """One small fixed request of each workload, so that every layer has
    spans in every traced run."""
    wide_jobs = workloads.gen_wide(0)[0][:1]
    doc, spec = min(workloads.gen_text(0), key=lambda pair: len(pair[0]))
    return [
        (Shor15(gk), workloads.Request("cover-shor15", 0)),
        (Wide(gk), workloads.Request("cover-wide", workloads.build_jobs(wide_jobs, gk))),
        (Text(gk), workloads.prepare("text", [(doc, spec)], gk)[0]),
        (Text(gk), workloads.Request("cover-doc", (doc, spec))),
    ]


def traced_pass(tracer, pairs, result: LoopResult) -> None:
    for runner, request in pairs:
        serve(runner, request, result, tracer)


def sim_peak(pairs, result: LoopResult) -> int:
    """tracemalloc's peak, in bytes, inside the outermost sim calls of these
    requests; 0 if they make none.  Kept apart from the timed passes because
    tracemalloc slows every allocation."""
    tracer = spans.Tracer(track_memory_of="sim")
    tracemalloc.start()
    try:
        traced_pass(tracer, pairs, result)
    finally:
        tracemalloc.stop()
    return tracer.peak_bytes


def _per(a, b):
    return a / b if b else 0.0


# The functions each workload's requests are defined to call.  A per-layer
# metric of one of these comes from the workload's own spans; any other comes
# from the coverage pass.  The source is fixed per workload and metric, so a
# change that stops a workload calling a function makes its metrics read 0
# instead of switching them silently to the coverage pass.
WORKLOAD_SPANS = {
    "shor15": {"cli.main", "algos.run_shor15_pipeline", "algos.build_shor15",
               "algos.extract_factors", "ir.add_gate", "gates.unitary_of", "sim.run_shots"},
    "wide": {"gates.unitary_of", "sim.run_shots", "sim.exact_distribution"},
    "text": {"ir.add_gate", "dsl.parse", "dsl.serialize", "emit.print_circuit",
             *(f"emit.translate.{d}" for d in workloads.DIALECTS)},
}


def span_metrics(gk, workload, work, cov) -> tuple[dict, dict, list]:
    """Per-layer metrics from spans, each from the source WORKLOAD_SPANS
    fixes.  Returns the metrics, the source of each, and the functions
    that made no calls in their source.  `work` and `cov` are (tracer,
    enumerated) pairs."""
    own = WORKLOAD_SPANS[workload]
    sources, missing = {}, []

    def pick(name, metric_names):
        tracer = work[0] if name in own else cov[0]
        for metric in metric_names:
            sources[metric] = "workload" if tracer is work[0] else "coverage"
        totals = tracer.totals.get(name, spans.Totals())
        if not totals.calls:
            missing.append(name)
        return totals, max(tracer.requests, 1)

    m = {}
    t, _ = pick("cli.main", ["cli.main.self_ms"])
    m["cli.main.self_ms"] = _per(t.self_ns, t.calls) / 1e6
    for name in ("build_shor15", "extract_factors"):
        t, _ = pick(f"algos.{name}", [f"algos.{name}.us"])
        m[f"algos.{name}.us"] = _per(t.total_ns, t.calls) / 1e3
    t, _ = pick("algos.run_shor15_pipeline", ["algos.run_shor15_pipeline.self_ms"])
    m["algos.run_shor15_pipeline.self_ms"] = _per(t.self_ns, t.calls) / 1e6
    for name in ("ir.add_gate", "gates.unitary_of"):
        t, requests = pick(name, [f"{name}.calls", f"{name}.us_per_call"])
        m[f"{name}.calls"] = t.calls / requests
        m[f"{name}.us_per_call"] = _per(t.total_ns, t.calls) / 1e3

    names = [f"sim.run_shots.{k}" for k in ("calls", "shots", "ms", "us_per_shot")]
    t, requests = pick("sim.run_shots", names)
    shots = t.attrs.get("shots", 0)
    m.update(zip(names, (t.calls / requests, shots / requests,
                         _per(t.total_ns, t.calls) / 1e6, _per(t.total_ns, shots) / 1e3)))
    names = [f"sim.exact_distribution.{k}" for k in ("calls", "ms", "outcomes")]
    t, requests = pick("sim.exact_distribution", names)
    m.update(zip(names, (t.calls / requests, _per(t.total_ns, t.calls) / 1e6,
                         _per(t.attrs.get("outcomes", 0), t.calls))))

    # Amplitude updates from one source: the workload if its requests simulate.
    tracer, enumerated = work if own & {"sim.run_shots", "sim.exact_distribution"} else cov
    shot_totals = tracer.totals.get("sim.run_shots", spans.Totals())
    exact_totals = tracer.totals.get("sim.exact_distribution", spans.Totals())
    updates = shot_totals.attrs.get("amp_updates", 0) + sum(
        calls * probes.enumeration_amp_updates(circuit, gk)
        for circuit, calls in enumerated.values())
    m["sim.amp_updates"] = updates / max(tracer.requests, 1)
    m["sim.amp_updates_per_s"] = _per(updates, (shot_totals.total_ns + exact_totals.total_ns) / 1e9)
    for metric in ("sim.amp_updates", "sim.amp_updates_per_s"):
        sources[metric] = "workload" if tracer is work[0] else "coverage"

    bytes_out, requests = 0, 1
    for dialect in workloads.DIALECTS:
        name = f"emit.translate.{dialect}"
        t, requests = pick(name, [f"{name}.us_per_instr"])
        m[f"{name}.us_per_instr"] = _per(t.total_ns, t.attrs.get("instr", 0)) / 1e3
        bytes_out += t.attrs.get("bytes", 0)
    t, _ = pick("emit.print_circuit", ["emit.print_circuit.us_per_instr", "emit.bytes_out"])
    m["emit.print_circuit.us_per_instr"] = _per(t.total_ns, t.attrs.get("instr", 0)) / 1e3
    m["emit.bytes_out"] = (bytes_out + t.attrs.get("bytes", 0)) / requests
    for name in ("dsl.parse", "dsl.serialize"):
        t, _ = pick(name, [f"{name}.us_per_line"])
        m[f"{name}.us_per_line"] = _per(t.total_ns, t.attrs.get("lines", 0)) / 1e3
    for module in spans.TRACED_MODULES:
        m[f"{module}.errors"] = sum(
            t.errors for tracer in (work[0], cov[0]) for name, t in tracer.totals.items()
            if name.startswith(module + "."))
    return m, sources, missing


UNITS = (
    (r"\.calls$|\.shots$|\.outcomes$|\.errors$|^sim\.amp_updates$", "count"),
    (r"_per_s$", "1/s"),
    (r"ms$", "ms"),
    (r"\.us$|us_per_", "us"),
    (r"_mib$", "MiB"),
    (r"bytes_out$", "B"),
    (r"_pct$", "%"),
)


def unit_of(name: str) -> str:
    return next(unit for pattern, unit in UNITS if re.search(pattern, name))


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end_run(args, gk, runner, requests, setup: list):
    """Returns the loop results, the metrics and the report lines."""
    loop = closed_loop(runner, requests, args.seconds, plant=args.plant)
    setup += setup_times(args.workload, args.seed, SETUP_REPS - len(setup))
    tail_s, tail_pct = tail(loop.latencies)
    samples = len(loop.latencies)
    rows = [
        ("setup_s", statistics.median(setup), "s",
         f"median of {SETUP_REPS} fresh processes, before and after the loop"),
        ("req_per_s", loop.req_per_s, "1/s", f"{samples} timed requests / their summed latency"),
        ("latency_ms_p50", statistics.median(loop.latencies) * 1e3, "ms", f"{samples} samples"),
        ("latency_ms_tail", tail_s * 1e3, "ms",
         f"p{tail_pct:.1f}, 11th largest of {samples} samples"),
        ("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
         "this process"),
    ]
    lines = [f"  {name:<16} {value:>12.4f} {unit:<4} {note}" for name, value, unit, note in rows]
    return [loop], {name: (value, unit) for name, value, unit, _ in rows}, lines


def traced_run(args, gk, runner, requests, machine: dict):
    """Returns the loop results, the metrics and the report lines."""
    work = make_tracer(gk)
    untraced, traced = paired_loop(runner, requests, args.seconds, work[0], args.plant)
    extra = LoopResult()
    cov = make_tracer(gk)
    traced_pass(cov[0], coverage_requests(gk) * COVERAGE_ROUNDS, extra)
    peak = (sim_peak([(runner, r) for r in requests[:MEMORY_PASS_REQUESTS]], extra)
            or sim_peak(coverage_requests(gk), extra))

    probe = workloads.Request("n18-probe", workloads.build_jobs(workloads.gen_wide_probe(), gk))
    wide_probe = Wide(gk)
    probe_ms = statistics.median(
        serve(wide_probe, probe, extra) for _ in range(WIDE_PROBE_REPS)) * 1e3

    metrics, sources, missing = span_metrics(gk, args.workload, work, cov)
    metrics["sim.peak_traced_mib"] = peak / 2**20
    metrics["sim.wide_probe.n18.ms"] = probe_ms
    kernel_ms, kernel_bytes = probes.kernel_probes(gk)
    metrics.update(kernel_ms)
    metrics["sim.run_shots.bell.us_per_shot"] = probes.bell_probe(gk)
    sources.update(dict.fromkeys(
        [*kernel_ms, "sim.run_shots.bell.us_per_shot", "sim.wide_probe.n18.ms"], "probe"))
    metrics["trace.overhead_pct"] = 100.0 * (untraced.req_per_s - traced.req_per_s) / untraced.req_per_s
    metrics = {name: (value, unit_of(name)) for name, value in metrics.items()}

    lines = [f"  {name:<40} {value:>16.4f} {unit:<6} {sources.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    lines += [f"NOTE: no {name} calls were traced, so its metrics read 0" for name in missing]
    lines.append("kernel bytes moved per call (computed, not measured): " + json.dumps(kernel_bytes))
    llc = probes.llc_bytes(machine["caches"])
    largest = 2 ** max(probes.PROBE_SIZES) * probes.AMP_BYTES
    if largest < 4 * llc:
        lines.append(f"no bandwidth roofline: the largest probe state ({largest >> 20} MiB) and the "
                     f"24-qubit cap ({2**24 * probes.AMP_BYTES >> 20} MiB) are below 4x the "
                     f"last-level cache ({llc >> 20} MiB), so probe times include cache hits")
    lines.append(f"paired {traced.attempted} requests: untraced {untraced.req_per_s:.4f} req/s, "
                 f"traced {traced.req_per_s:.4f} req/s")
    return [untraced, traced, extra], metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true", help="corrupt the first timed output")
    args = parser.parse_args(argv)

    gk = load_gatekit()
    machine = probes.machine_record(ROOT, args.seed)
    # Half the set-ups run before the timed loop and half after it, so that
    # their median spans the machine's state over the whole run.
    setup = [] if args.trace else setup_times(args.workload, args.seed, SETUP_REPS // 2)
    requests = workloads.prepare(
        args.workload, workloads.GENERATORS[args.workload](args.seed), gk)
    runner = RUNNERS[args.workload](gk)

    problems = preflight(gk)
    warm = LoopResult()
    for request in requests[:WARMUP_REQUESTS]:
        serve(runner, request, warm)
    if args.trace:
        runs, metrics, lines = traced_run(args, gk, runner, requests, machine)
    else:
        runs, metrics, lines = end_to_end_run(args, gk, runner, requests, setup)
    runs.append(warm)
    late = runner.finish()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs) + len(late)
    problems += [p for r in runs for p in r.problems]
    problems += [f"{label}: {'; '.join(found)}" for label, found in late]
    print(f"gatekit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine))
    print("\n".join(lines))
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.4f} {'1':<4} "
          f"{failed} of {attempted} requests")
    for problem in problems:
        print(f"FAILED {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
