"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json
names, each with its unit, in both the timed and the traced run; that a
corrupted label and a counter that changes between fits each make the
run report failed fits; and that without the program's sources the
benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run as bench


def corrupt_label(res) -> None:
    """Move point 0 to another cluster in the fit's output."""
    k = len(res.centroids)
    if hasattr(res, "labels"):
        res.labels[0] = (res.labels[0] + 1) % k
    else:
        from pyspark.sql import functions as F

        res.labels_df = res.labels_df.withColumn(
            "cluster",
            F.when(F.col("id") == 0, (F.col("cluster") + 1) % k).otherwise(F.col("cluster")),
        )


def drifting_counter():
    """A tamper that reports one more distance on every second fit."""
    calls = [0]

    def tamper(res) -> None:
        calls[0] += 1
        res.n_dist += calls[0] % 2

    return tamper


def tiny(w):
    if w.path == "spark":
        return dataclasses.replace(w, n=2000, k=8, iters=3, instances=2)
    return dataclasses.replace(w, n=1500, k=16, iters=3, instances=2)


def check_metrics(res: dict, expect: dict[str, str], what: str) -> list[str]:
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    errors = []
    if got != expect:
        missing = sorted(set(expect) - set(got))
        extra = sorted(set(got) - set(expect))
        wrong = sorted(n for n in set(got) & set(expect) if got[n] != expect[n])
        errors.append(f"{what}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{what}: {name} = {m['value']!r} is not a finite number")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        errors.append(f"{what}: correct={res['correct']} failed={res['failed']} "
                      f"attempted={res['attempted']}")
    return errors


def without_program() -> list[str]:
    """The benchmark alone, without src/, must fail without a result."""
    bare = bench.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-2d-k256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    # A state directory of its own, so tampered counters never reach the
    # record that real runs compare against.
    bench.STATE = bench.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(bench.STATE, ignore_errors=True)
    bench.pin_threads()
    sys.path.insert(0, str(bench.ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expect = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = without_program()
    with bench.spark_session(4) as spark:
        for w in map(tiny, WORKLOADS.values()):
            for trace in (False, True):
                res = bench.run(w, 7, 0.5, trace, spark)
                errors += check_metrics(res, expect[trace], f"{w.name} trace={int(trace)}")
            for tamper in (corrupt_label, drifting_counter()):
                res = bench.run(w, 7, 0.5, False, spark, tamper=tamper)
                if res["correct"] or res["failed"] / res["attempted"] <= 0:
                    errors.append(f"{w.name}: {tamper.__name__} went undetected: {res}")
    shutil.rmtree(bench.STATE, ignore_errors=True)
    for e in errors:
        print("SELFTEST ERROR", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
