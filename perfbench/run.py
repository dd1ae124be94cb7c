"""Benchmark of the Dask-means reproduction: fit time and exact counters.

Run from the root of a checkout:

    python3 perfbench/run.py --workload local-2d-k256 --seed 1 --seconds 20 --trace 0

``--trace 0`` times set-up and fits with tracing off and prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
separate traced run. Every fit's output is checked (see ``measure.Gate``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the provenance of the run. The program is used
from ``src/`` of the checkout; without it the benchmark exits with an
error and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"   # counter record and Spark scratch, inside the checkout


def cores() -> int:
    """Threads and Spark cores a run may use: the machine's, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def pin_threads() -> None:
    """Give the driver one BLAS thread before NumPy loads, so a local fit
    runs on one core like the calibration kernel it is scaled by
    (``spark_session`` gives each Spark worker one too)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


@contextmanager
def spark_session(partitions: int):
    """A local-mode SparkSession; on exit its JVM is stopped and waited for."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    local_dir, tmp = STATE / "spark-local", STATE / "tmp"
    for p in (local_dir, tmp):
        p.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local_dir)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    spark = (
        SparkSession.builder.master(f"local[{cores()}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.executorEnv.PYTHONPATH", str(ROOT / "src"))
        .config("spark.executorEnv.OPENBLAS_NUM_THREADS", "1")
        .config("spark.executorEnv.OMP_NUM_THREADS", "1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    try:
        yield spark
    finally:
        gateway = SparkContext._gateway
        spark.stop()
        if gateway is not None:
            proc = getattr(gateway, "proc", None)
            gateway.shutdown()
            SparkContext._gateway = None
            SparkContext._jvm = None
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)


def provenance(w, seed: int, spark, src_sha256: str) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    built_max = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    prov = {
        "workload": w.name, "seed": seed, "nproc": os.cpu_count(), "cores_used": cores(),
        "git_sha": sha, "src_sha256": src_sha256,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_driver": min(threads, int(built_max[1])) if built_max else threads,
    }
    if spark is not None:
        import pyspark

        prov.update({
            "pyspark": pyspark.__version__, "spark_master": spark.sparkContext.master,
            "partitions": w.partitions, "blas_threads_executor": 1,
        })
    return prov


def run(w, seed: int, seconds: float, trace: bool, spark=None, tamper=None) -> dict:
    """One run of workload ``w``; returns the result object to print."""
    from measure import CounterRecord, Gate, timed
    from paths import LocalPath, SparkPath
    from workloads import WORKLOADS, instances

    record = CounterRecord(STATE / "counters.json", ROOT / "src" / "repro")
    insts = instances(w, seed)
    print("# provenance " + json.dumps(provenance(w, seed, spark, record.src_sha256)))
    if trace:
        from layers import traced

        # The Spark layers are always measured on the Spark workload's input.
        spark_w = w if w.path == "spark" else WORKLOADS["spark-2d-k64"]
        paths = {"local": LocalPath(w), "spark": SparkPath(spark_w, spark)}
        gates = {name: Gate(p, record, tamper) for name, p in paths.items()}
        trace_insts = {"local": insts[0], "spark": instances(spark_w, seed)[0]}
        metrics = traced(paths, w.path, gates, trace_insts, seconds)
    else:
        path = LocalPath(w) if w.path == "local" else SparkPath(w, spark)
        gates = {w.path: Gate(path, record, tamper)}
        metrics = timed(path, insts, seconds, gates[w.path])
    record.save()
    attempted = sum(g.attempted for g in gates.values())
    failed = sum(g.failed for g in gates.values())
    for name, (value, unit) in metrics.items():
        print(f"# {name:45s} {value:>16.6g} {unit}")
    print(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    needs_spark = w.path == "spark" or args.trace
    with spark_session(w.partitions) if needs_spark else nullcontext() as spark:
        result = run(w, args.seed, args.seconds, bool(args.trace), spark)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
