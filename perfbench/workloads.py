"""Seeded inputs for the three workloads, the request each one sends, and the
checks its outputs must pass.

Input generation uses only the standard library, so a fresh process can make
the inputs before it imports gatekit and time the import on its own.  Every
check returns a list of problems; an empty list means the output is correct.

The inputs are stratified: a seed changes the content and order of the
requests (qubits, angles, gate order, spelling), but not the mix of sizes and
gate kinds, so that run-to-run spread measures the program rather than the
luck of the draw.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import re
from pathlib import Path
from typing import NamedTuple

UNITARY_KINDS = ("h", "x", "y", "z", "rx", "ry", "rz", "cnot", "toffoli", "swap", "cphase")
ALL_KINDS = UNITARY_KINDS + ("measure",)
ARITY = {"cnot": 2, "swap": 2, "cphase": 2, "toffoli": 3}
ANGLED = {"rx", "ry", "rz", "cphase"}
DIALECTS = ("qiskit", "cirq", "pennylane", "pyquil", "braket")

# shor15: the CLI demo at its default shot count, one request seed per request.
SHOR15_SHOTS = 1000
SHOR15_CYCLE = 400

# wide: every request is one n=14 and one n=16 circuit, so all requests are
# alike and a latency percentile does not depend on how many requests a run
# holds.  An n=18 circuit costs about twenty n=14 ones (about 2 s), too long
# for a request of a 45-second run with a tail ten samples deep; it is timed
# as a probe in the traced run instead.  Twelve distinct pairs, sent in turn.
# 60 instructions each: 50 unitaries over all 11 kinds, three mid-circuit
# measures (5%), each preceded by an ry of a random angle so that both
# branches are always live and enumeration costs the same on every seed, and
# a final 4-qubit readout into 4 of the 6 clbits, which overwrites some
# mid-circuit results.
WIDE_SIZES = (14, 16)
WIDE_REQUESTS = 12
WIDE_PROBE_SIZE = 18
WIDE_UNITARIES = 50
WIDE_MID_AFTER = (12, 25, 38)
WIDE_READOUT = 4
WIDE_CLBITS = 6
WIDE_SHOTS = 8

# text: 46 generated documents whose sizes step evenly from 20 to 500
# instructions and whose widths cover 2..24 qubits, plus the two demos.
TEXT_DOCS = 46
TEXT_MIN_OPS, TEXT_MAX_OPS = 20, 500
TEXT_PI_TOKENS = {
    "pi": math.pi,
    "-pi": -math.pi,
    "pi/2": math.pi / 2,
    "pi/4": math.pi / 4,
    "pi/8": math.pi / 8,
    "pi/16": math.pi / 16,
    "-pi/2": -math.pi / 2,
    "-pi/4": -math.pi / 4,
}
TEXT_SPELLINGS = {"cnot": ("cnot", "cx", "CNOT"), "toffoli": ("toffoli", "ccnot"),
                  "cphase": ("cphase", "cp", "CPhase")}

WORKLOADS = ("shor15", "wide", "text")


class CircuitSpec(NamedTuple):
    """A circuit as plain data: ops are (kind, operands, params), and the
    operands of a measure are (qubit, clbit)."""

    num_qubits: int
    num_clbits: int
    ops: tuple


class Request(NamedTuple):
    """One request's input: a label and the payload its workload sends."""

    label: str
    payload: object


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _random_op(rng: random.Random, kind: str, n: int, deck: list | None = None) -> tuple:
    count = ARITY.get(kind, 1)
    operands = tuple(rng.sample(range(n), count)) if deck is None else _deal(rng, deck, n, count)
    params = (rng.uniform(-math.pi, math.pi),) if kind in ANGLED else ()
    return (kind, operands, params)


def _deal(rng: random.Random, deck: list, n: int, count: int) -> tuple:
    """count distinct qubits from a deck that deals every qubit once a round.

    A kernel's cost depends strongly on which qubit it acts on, so dealing
    qubits evenly keeps circuits of one size equally costly."""
    if len(deck) < n:
        deck[:0] = rng.sample(range(n), n)
    picked, skipped = [], []
    while len(picked) < count:
        q = deck.pop()
        (skipped if q in picked else picked).append(q)
    deck.extend(reversed(skipped))
    return tuple(picked)


def _kind_mix(rng: random.Random, kinds: tuple, count: int) -> list:
    """count kinds taken round-robin from kinds, then shuffled."""
    mix = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(mix)
    return mix


# ---------------------------------------------------------------------------
# generators: seed -> inputs, no gatekit involved


def gen_shor15(seed: int) -> list:
    rng = _rng("shor15", seed)
    return [rng.randrange(2**31) for _ in range(SHOR15_CYCLE)]


def _wide_circuit(rng: random.Random, n: int) -> CircuitSpec:
    ops, deck = [], []
    for i, kind in enumerate(_kind_mix(rng, UNITARY_KINDS, WIDE_UNITARIES), start=1):
        ops.append(_random_op(rng, kind, n, deck))
        if i in WIDE_MID_AFTER:
            (q,) = _deal(rng, deck, n, 1)
            ops.append(("ry", (q,), (rng.uniform(0.6, 2.5),)))
            ops.append(("measure", (q, rng.randrange(WIDE_CLBITS)), ()))
    readout = zip(rng.sample(range(n), WIDE_READOUT), rng.sample(range(WIDE_CLBITS), WIDE_READOUT))
    ops.extend(("measure", (q, c), ()) for q, c in readout)
    return CircuitSpec(n, WIDE_CLBITS, tuple(ops))


def gen_wide(seed: int) -> list:
    """One tuple of (spec, shot seed) jobs per request, one job per size."""
    rng = _rng("wide", seed)
    return [
        tuple((_wide_circuit(rng, n), rng.randrange(2**31)) for n in WIDE_SIZES)
        for _ in range(WIDE_REQUESTS)
    ]


def gen_wide_probe() -> tuple:
    """The fixed n=18 job the traced run times beside the workload."""
    rng = _rng("wide-probe", 0)
    return ((_wide_circuit(rng, WIDE_PROBE_SIZE), rng.randrange(2**31)),)


def _text_document(rng: random.Random, n: int, size: int) -> tuple:
    """A .qc document in loose spelling, and the spec it must parse to."""
    kinds = ALL_KINDS if n >= 3 else tuple(k for k in ALL_KINDS if k != "toffoli")
    lines = [f"# generated document, {size} instructions", f"qubits {n}", f"clbits {n}"]
    ops = []
    for i, kind in enumerate(_kind_mix(rng, kinds, size)):
        if i % 16 == 0:
            lines.append("")
            lines.append(f"# block {i // 16}")
        if kind == "measure":
            q, c = rng.randrange(n), rng.randrange(n)
            ops.append(("measure", (q, c), ()))
            lines.append(f"measure {q} -> {c}")
            continue
        kind_op = _random_op(rng, kind, n)
        name = rng.choice(TEXT_SPELLINGS.get(kind, (kind, kind.upper())))
        angle = ""
        if kind in ANGLED:
            if rng.random() < 0.3:
                token = rng.choice(sorted(TEXT_PI_TOKENS))
                value = TEXT_PI_TOKENS[token]
            else:
                value = rng.uniform(-2 * math.pi, 2 * math.pi)
                token = repr(value)
            kind_op = (kind, kind_op[1], (value,))
            angle = f"({token})"
        ops.append(kind_op)
        trailer = "  # note" if rng.random() < 0.05 else ""
        lines.append(f"{name}{angle} {' '.join(map(str, kind_op[1]))}{trailer}")
    return "\n".join(lines) + "\n", CircuitSpec(n, n, tuple(ops))


def gen_text(seed: int) -> list:
    """(document, spec) pairs; sizes and widths are fixed, content is seeded."""
    rng = _rng("text", seed)
    docs = []
    for i in range(TEXT_DOCS):
        size = TEXT_MIN_OPS + round(i * (TEXT_MAX_OPS - TEXT_MIN_OPS) / (TEXT_DOCS - 1))
        docs.append(_text_document(rng, 2 + (i * 9) % 23, size))
    rng.shuffle(docs)
    return docs


GENERATORS = {"shor15": gen_shor15, "wide": gen_wide, "text": gen_text}


# ---------------------------------------------------------------------------
# set-up: generated inputs -> the requests a workload sends


def build(spec: CircuitSpec, gk):
    circuit = gk.Circuit(spec.num_qubits, spec.num_clbits)
    for kind, operands, params in spec.ops:
        circuit.add_gate(kind, list(operands), list(params))
    return circuit


def build_jobs(jobs: tuple, gk) -> tuple:
    return tuple((build(spec, gk), shot_seed) for spec, shot_seed in jobs)


def prepare(workload: str, inputs: list, gk) -> list:
    """Build or parse the workload's circuits: the work set-up time covers."""
    if workload == "shor15":
        gk.build_shor15()
        return [Request(f"seed={s}", s) for s in inputs]
    if workload == "wide":
        return [Request(f"pair#{i}", build_jobs(jobs, gk)) for i, jobs in enumerate(inputs)]
    demos = [
        Request(name, (gk.serialize(make()), None))
        for name, make in (("bell", gk.build_bell), ("shor15", gk.build_shor15))
    ]
    generated = [Request(f"doc{i}", (doc, spec)) for i, (doc, spec) in enumerate(inputs)]
    for request in demos + generated:
        gk.parse(request.payload[0])
    return demos + generated


# ---------------------------------------------------------------------------
# requests: each calls the package through its public module attributes at
# call time, so a traced run sees every call


def shor15_request(gk, seed: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gk.cli.main(["factor15", "--shots", str(SHOR15_SHOTS), "--seed", str(seed)])
    return code, out.getvalue()


def wide_request(gk, jobs: tuple) -> tuple:
    """(exact entries, counts entries) for each (circuit, shot seed) job."""
    out = []
    for circuit, shot_seed in jobs:
        exact = gk.sim.exact_distribution(circuit)
        counts = gk.sim.run_shots(circuit, WIDE_SHOTS, shot_seed)
        out.append((exact.entries, counts.entries))
    return tuple(out)


def text_request(gk, document: str) -> tuple:
    circuit = gk.dsl.parse(document)
    sources = {d: gk.emit.translate(circuit, d).source for d in DIALECTS}
    diagram = gk.emit.print_circuit(circuit)
    canonical = gk.dsl.serialize(circuit)
    return circuit, sources, diagram, canonical


# ---------------------------------------------------------------------------
# checks


_COUNT_LINE = re.compile(r"^  ([01]+) (\d+)$")


SHOR15_REPORT_LINES = (
    "measured values: {4, 8, 12}",
    "factors: {3, 5, 15}",
    "prime factors: {3, 5}",
)


def check_shor15(code: int, stdout: str, support: set) -> list:
    """Exit code 0, counts over the exact support summing to the shot count,
    and the report lines every seed gives (acceptance criterion 3)."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    counts = {}
    for line in stdout.splitlines():
        match = _COUNT_LINE.match(line)
        if match:
            counts[match.group(1)] = int(match.group(2))
    if sum(counts.values()) != SHOR15_SHOTS:
        problems.append(f"counts sum to {sum(counts.values())}, not {SHOR15_SHOTS}")
    outside = set(counts) - support
    if outside:
        problems.append(f"keys outside the exact support: {sorted(outside)}")
    lines = stdout.splitlines()
    problems.extend(f"report lacks {want!r}" for want in SHOR15_REPORT_LINES if want not in lines)
    return problems


def check_wide(exact: dict, counts: dict, rerun: dict | None) -> list:
    """Probabilities sum to 1, samples lie in the exact support, and a seeded
    rerun, when given, reproduces the counts."""
    problems = []
    total = math.fsum(exact.values())
    if abs(total - 1.0) > 1e-9:
        problems.append(f"probabilities sum to {total!r}")
    if sum(counts.values()) != WIDE_SHOTS:
        problems.append(f"counts sum to {sum(counts.values())}, not {WIDE_SHOTS}")
    outside = set(counts) - set(exact)
    if outside:
        problems.append(f"sampled keys outside the exact support: {sorted(outside)}")
    if rerun is not None and counts != rerun:
        problems.append("a seeded rerun gave different counts")
    return problems


_QUIL_NAMES = {"toffoli": "CCNOT"}


def render_quil(spec: CircuitSpec) -> str:
    """Quil text of a circuit spec, written independently of gatekit.emit."""
    lines = [f"DECLARE ro BIT[{spec.num_clbits}]"] if spec.num_clbits else []
    for kind, operands, params in spec.ops:
        if kind == "measure":
            lines.append(f"MEASURE {operands[0]} ro[{operands[1]}]")
            continue
        angle = f"({float(params[0])!r})" if params else ""
        name = _QUIL_NAMES.get(kind, kind.upper())
        lines.append(f"{name}{angle} {' '.join(map(str, operands))}")
    return "\n".join(lines) + "\n" if lines else ""


def check_text(circuit, sources: dict, reparsed, expected: dict) -> list:
    """parse(serialize(c)) == c, and each expected dialect source matches."""
    problems = []
    if reparsed != circuit:
        problems.append("parse(serialize(c)) != c")
    for dialect, text in expected.items():
        if sources.get(dialect) != text:
            problems.append(f"{dialect} output differs from the reference")
    return problems


def golden_sources(root: Path, name: str) -> dict:
    """The frozen emitter outputs of a demo circuit, per dialect."""
    return {d: (root / "tests" / "golden" / f"{name}.{d}.txt").read_text() for d in DIALECTS}
