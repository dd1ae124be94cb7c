"""The timed (end-to-end) run of one workload, the per-fit gate and the
machine-speed calibration the timed samples are scaled by.

Every fit, timed or traced, goes through :class:`Gate`: its output is
checked against the path's reference and its four counters must equal
those of the first fit of the same instance and those recorded for the
same instance and source tree by earlier runs. Any difference is a failed
fit; nothing is averaged away. Checks run outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from paths import COUNTERS

SETUP_SECONDS = 2.0  # set-up time sampled per run, round-robin over the instances
SETUP_SAMPLES = 5    # and at least this many set-ups

# On a shared host one core runs the same fit up to 2.5x slower from one
# minute to the next, and every kind of code on it slows together; a run's
# median wall time over 30 s of fits still spreads by a fifth from run to
# run. So on a one-core path every timed sample sits between two runs of a
# fixed calibration kernel and is reported in reference seconds: wall
# seconds times CAL_REF_S over the mean kernel time right before and right
# after it. The kernel is the benchmark's own code, so a change to the
# program cannot move it; a program that gets 10% faster reads 10% faster.
# Samples of other paths carry CAL_REF_S as their calibration, which leaves
# them in wall seconds.
CAL_REF_S = 0.25


def calibrate() -> float:
    """Seconds this machine takes now for a fixed mix of the two kinds of
    work a fit does: an interpreter-bound loop with small NumPy calls, and
    sorting and gathering a large array."""
    t0 = time.perf_counter()
    table, a = {}, np.arange(8.0)
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0.0) + i * 0.5
        if i % 7 == 0:
            float(np.dot(a, a))
    Y = np.random.default_rng(0).random((200_000, 2))
    for _ in range(6):
        Z = Y[np.argsort(Y[:, 0])]
        (Z * Z).sum(1).partition(1000)
    return time.perf_counter() - t0


class CounterRecord:
    """Counters of correct fits, kept across runs in the checkout so a
    second set of runs must reproduce the first exactly."""

    def __init__(self, file: Path, src: Path):
        self.file = file
        digest = hashlib.sha256()
        for p in sorted(src.rglob("*.py")):
            digest.update(p.relative_to(src).as_posix().encode())
            digest.update(p.read_bytes())
        self.src_sha256 = digest.hexdigest()
        try:
            self.data = json.loads(file.read_text())
        except (OSError, ValueError):
            self.data = {}
        self.dirty = False

    def key(self, w, path_name: str, inst_seed: int) -> str:
        return "|".join(map(str, (
            w.name, path_name, w.dataset, w.n, w.k, w.iters, w.f, w.partitions,
            inst_seed, self.src_sha256,
        )))

    def compare(self, key: str, counters: dict) -> str | None:
        if key not in self.data:
            self.data[key] = counters
            self.dirty = True
            return None
        if self.data[key] != counters:
            return f"counters {counters} differ from an earlier run's {self.data[key]}"
        return None

    def save(self) -> None:
        if self.dirty:
            self.file.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.file.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            os.replace(tmp, self.file)


class Gate:
    """Runs, checks and counts every fit of one path."""

    def __init__(self, path, record: CounterRecord, tamper=None):
        self.path, self.record, self.tamper = path, record, tamper
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, dict] = {}   # instance seed -> its first fit's counters

    def fit(self, inst, state, ref, tracer=None):
        """(seconds, result, span); result is None when the fit raised, span
        is the fit's span when a ``tracer`` wraps the call, else None."""
        self.attempted += 1
        span = None
        t0 = time.perf_counter()
        try:
            with tracer.traced(f"{self.path.name}.fit") if tracer else nullcontext() as span:
                res = self.path.fit(inst, state)
        except Exception:
            self.fail(inst, "fit raised:\n" + traceback.format_exc())
            return time.perf_counter() - t0, None, span
        seconds = time.perf_counter() - t0
        if self.tamper is not None:
            self.tamper(res)
        problems = self.path.check(inst, ref, res)
        counters = self.path.counters(inst, state, res)
        first = self.first.setdefault(inst.seed, counters)
        if counters != first:
            problems.append(f"counters {counters} differ from this run's first fit {first}")
        if not problems:
            key = self.record.key(self.path.w, self.path.name, inst.seed)
            if (p := self.record.compare(key, counters)) is not None:
                problems.append(p)
        if problems:
            self.fail(inst, "; ".join(problems))
        return seconds, res, span

    def fail(self, inst, why: str) -> None:
        self.failed += 1
        print(f"FAILED {self.path.name} fit, instance seed {inst.seed}: {why}", file=sys.stderr)


def kernel_seconds(path) -> float:
    return calibrate() if path.one_core else CAL_REF_S


def setup_all(path, insts, samples: list[tuple[float, float]] | None = None):
    """Set every instance up and return the states. With ``samples``, first
    time set-ups round-robin, each released before the next, until
    ``SETUP_SECONDS`` and ``SETUP_SAMPLES`` are reached, and append (wall
    seconds, calibration seconds) per set-up; the calibration runs between
    rounds over the instances.

    Untimed rounds first let lazy start-up (Spark's Python workers, the
    JVM's compiled code, caches) finish, so the timed ones measure the
    steady cost; Spark's set-up takes two rounds to settle."""
    for _ in range(2 if samples is not None else 1):
        for inst in insts:
            path.release(path.setup(inst))
    if samples is not None:
        cals, rounds, spent, i = [], [], 0.0, 0
        while spent < SETUP_SECONDS or i < SETUP_SAMPLES:
            if i % len(insts) == 0:
                cals.append(kernel_seconds(path))
                rounds.append([])
            t0 = time.perf_counter()
            st = path.setup(insts[i % len(insts)])
            dt = time.perf_counter() - t0
            path.release(st)
            spent += dt
            rounds[-1].append(dt)
            i += 1
        cals.append(kernel_seconds(path))
        for r, dts in enumerate(rounds):
            samples += [(dt, (cals[r] + cals[r + 1]) / 2) for dt in dts]
    return [path.setup(inst) for inst in insts]


def reference_seconds(samples: list[tuple[float, float]]) -> float:
    """Median of (wall seconds, calibration seconds) samples in reference seconds."""
    return median(dt * CAL_REF_S / cal for dt, cal in samples)


def timed(path, insts, seconds: float, gate: Gate) -> dict:
    """End-to-end metrics, tracing off: fits round-robin over the
    instances until ``seconds`` of fit time is spent and every instance
    has been fitted, each between two calibrations."""
    clock = [time.perf_counter()]

    def lap() -> str:
        clock.append(time.perf_counter())
        return f"{clock[-1] - clock[-2]:.1f} s"

    kernel_seconds(path)  # untimed, so the kernel's own first-call costs are paid
    setups: list[tuple[float, float]] = []
    states = setup_all(path, insts, setups)
    print(f"# set-ups {lap()}")
    refs = [path.reference(inst) for inst in insts]
    print(f"# references {lap()}")
    warm, _, _ = gate.fit(insts[0], states[0], refs[0])  # checked, not timed
    print(f"# warm-up fit {warm:.3f} s, with its check {lap()}")
    fits: list[tuple[float, float]] = []
    cals = [kernel_seconds(path)]
    spent, i = 0.0, 0
    while spent < seconds or i < len(insts):
        j = i % len(insts)
        dt, res, _ = gate.fit(insts[j], states[j], refs[j])
        cals.append(kernel_seconds(path))
        spent += dt
        i += 1
        if res is not None:
            fits.append((dt, (cals[-2] + cals[-1]) / 2))
    print(f"# timed fits with their calibrations and checks {lap()}")
    for st in states:
        path.release(st)
    if not fits:
        raise RuntimeError(f"{path.w.name}: every fit raised, nothing to report")
    per_inst = list(gate.first.values())
    metrics = {
        "setup_s": (reference_seconds(setups), "s"),
        "fit_s": (reference_seconds(fits), "s"),
    }
    # Mean over the run's instances: exact for a seed, and steadier across
    # seeds than any one instance.
    for c in COUNTERS:
        metrics[c] = (statistics.fmean(v[c] for v in per_inst), "count")
    for name, samples in (("fit", fits), ("set-up", setups)):
        wall = [dt for dt, _ in samples]
        q = statistics.quantiles(wall, n=4) if len(wall) > 1 else [wall[0]] * 3
        print(
            f"# {name} wall seconds over {len(wall)} samples: median {median(wall):.4f}  "
            f"quartiles {q[0]:.4f} {q[2]:.4f}  min {min(wall):.4f}  max {max(wall):.4f}; "
            f"calibration median {median(cal for _, cal in samples):.4f} s "
            f"(reference {CAL_REF_S} s)"
        )
        print(f"# {name} wall/calibration seconds, in run order: "
              + " ".join(f"{dt:.3f}/{cal:.3f}" for dt, cal in samples))
    for seed, v in gate.first.items():
        print(f"# instance seed {seed}: {v}")
    return metrics
