"""Fixed measurements beside the workloads: the machine record, the kernel
probes, the bell per-shot probe, and the computed amplitude-update counts."""
from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

PROBE_SIZES = (12, 16, 20, 22)
PROBE_REPS = {12: 41, 16: 15, 20: 7, 22: 5}
BELL_PROBE_SHOTS = 100_000
AMP_BYTES = 16  # one complex128 amplitude

# Bytes each operation must read and write at least, per amplitude of the
# state, if done in place: the 1q gate rewrites every amplitude; cnot swaps
# two quarter-subspaces; cphase scales one quarter; measure reads all for the
# probabilities, zeroes half and rescales all.  Computed, not measured, and
# excluding the input copy that apply_gate and apply_measure make.
BYTES_PER_AMP = {"1q": 2 * AMP_BYTES, "perm": AMP_BYTES, "phase": AMP_BYTES // 2,
                 "measure": AMP_BYTES + AMP_BYTES // 2 + 2 * AMP_BYTES}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        size = _read(index / "size").strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _size_bytes(text: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def llc_bytes(caches: dict) -> int:
    levels = [key for key in caches if key[1].isdigit()]
    return _size_bytes(caches[max(levels)]) if levels else 0


def machine_record(root: Path, seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": _caches(),
        "ram": mem,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload_seed": seed,
        "src_sha256": digest.hexdigest()[:16],
    }


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def kernel_probes(gk) -> tuple[dict, dict]:
    """Median ms per apply_gate / apply_measure call at each probe size, and
    the computed bytes each call moves."""
    times, moved = {}, {}
    for n in PROBE_SIZES:
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = gk.StateVector(n, amps / np.linalg.norm(amps))
        mid = n // 2
        ops = {
            "1q": gk.GateOp(gk.GateKind.H, (mid,)),
            "perm": gk.GateOp(gk.GateKind.CNOT, (0, n - 1)),
            "phase": gk.GateOp(gk.GateKind.CPHASE, (1, n - 2), (0.3,)),
        }
        for kind, op in ops.items():
            times[f"sim.apply_gate.{kind}.n{n}.ms"] = _median_ms(
                lambda op=op: gk.sim.apply_gate(state, op), PROBE_REPS[n])
            moved[f"sim.apply_gate.{kind}.n{n}"] = BYTES_PER_AMP[kind] * 2**n
        reg = gk.ClassicalRegister.zeros(1)
        draws = np.random.default_rng(0)
        times[f"sim.apply_measure.n{n}.ms"] = _median_ms(
            lambda: gk.sim.apply_measure(state, mid, 0, reg, draws), PROBE_REPS[n])
        moved[f"sim.apply_measure.n{n}"] = BYTES_PER_AMP["measure"] * 2**n
        del state, amps
    return times, moved


def bell_probe(gk) -> float:
    """Microseconds per shot of a 100k-shot bell run: per-shot overhead, RNG
    and key counting, with a 2-qubit state."""
    circuit = gk.build_bell()
    start = time.perf_counter()
    counts = gk.sim.run_shots(circuit, BELL_PROBE_SHOTS, 7)
    elapsed = time.perf_counter() - start
    if sum(counts.entries.values()) != BELL_PROBE_SHOTS or set(counts.entries) - {"00", "11"}:
        raise RuntimeError(f"bell probe gave {counts.entries}")
    return elapsed / BELL_PROBE_SHOTS * 1e6


def enumeration_amp_updates(circuit, gk) -> int:
    """Amplitude updates exact_distribution makes on a circuit: for each
    unitary instruction, live measurement branches x 2^n.

    The live branches are found by enumerating a copy of the circuit in which
    every measure writes its own clbit, so that each outcome key is one
    measurement history; a prefix of k bits is a branch live after the k-th
    measure.  Measures after the last unitary cost no updates and are left out.
    """
    measure = gk.GateKind.MEASURE
    last = max((i for i, op in enumerate(circuit.ops) if op.kind is not measure), default=-1)
    prefix = circuit.ops[: last + 1]
    mids = sum(op.kind is measure for op in prefix)
    branches = [1]
    if mids:
        history = gk.Circuit(circuit.num_qubits, mids)
        for op in prefix:
            if op.kind is measure:
                op = gk.GateOp(measure, op.qubits, (), sum(o.kind is measure for o in history.ops))
            history.append(op)
        leaves = gk.sim.exact_distribution(history).entries
        branches = [len({key[mids - k:] for key in leaves}) for k in range(mids + 1)]
    total, done = 0, 0
    for op in prefix:
        if op.kind is measure:
            done += 1
        else:
            total += branches[done]
    return total * 2**circuit.num_qubits


def shot_amp_updates(circuit, shots: int, gk) -> int:
    """run_shots replays every unitary instruction on every shot's row."""
    unitaries = sum(op.kind is not gk.GateKind.MEASURE for op in circuit.ops)
    return shots * unitaries * 2**circuit.num_qubits
