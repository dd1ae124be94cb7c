"""The traced run: per-layer metrics from spans around the program's calls.

A traced run fits both paths, so every layer is measured on every
workload: the local path on the workload's instance 0 gives the
``balltree.*`` and ``daskmeans.*`` layers; the Spark path, always on
instance 0 of the Spark workload for the same seed, gives the driver-side
``daskmeans_spark.*`` split and ``spark.data`` ingest. The workload's own
path alternates untraced and traced fits for ``seconds`` to price the
tracing itself (``trace.overhead_ratio``). Times here are raw seconds.

Spark executors run ``assign_pass`` in their own Python workers, which
are not wrapped. The Spark split therefore comes from driver spans: each
iteration starts with a driver centroid-index build and ends with the
collect of its partial sums; before the first build is state build, after
the last iteration's collect is export.
"""
from __future__ import annotations

import statistics
import time
import traceback
from statistics import median

from pyspark import RDD

from repro.core import balltree as bt
from repro.core import daskmeans
from repro.spark import daskmeans_spark, lloyd_spark
from repro.spark import data as sdata

from measure import Gate, setup_all
from paths import LocalPath, SparkPath, materialise
from spans import Tracer

UNITS = {
    "balltree.knn.calls": "count",
    "balltree.knn.s": "s",
    "balltree.knn.n_dist": "count",
    "balltree.knn.us_per_call": "us",
    "balltree.range_query.calls": "count",
    "balltree.range_query.s": "s",
    "balltree.range_query.n_dist": "count",
    "balltree.range_query.candidates": "count",
    "balltree.build.calls": "count",
    "balltree.build.s": "s",
    "balltree.point_index.build.s": "s",
    "daskmeans.compute_cb.s": "s",
    "daskmeans.compute_cb.n_dist": "count",
    "daskmeans.assign_pass.s": "s",
    "daskmeans.assign_pass.self_s": "s",
    "daskmeans.assign_pass.n_dist": "count",
    "daskmeans.assign_pass.pruned_vectors": "count",
    "daskmeans.assign_pass.pruned_ratio": "ratio",
    "daskmeans.fit.self_s": "s",
    "estimator.memory.estimate_ratio": "ratio",
    "spark.data.partition_arrays.s": "s",
    "daskmeans_spark.state_build.s": "s",
    "daskmeans_spark.iter.s": "s",
    "daskmeans_spark.driver.s": "s",
    "daskmeans_spark.export.s": "s",
    "daskmeans_spark.state.pickled_bytes": "B",
    "daskmeans_spark.partition.max_over_mean": "ratio",
    "baselines.lloyd.fit_s": "s",
    "spark.lloyd_spark.fit_s": "s",
    "trace.overhead_ratio": "ratio",
}

TARGETS = [
    (bt, "build", "balltree.build", None),
    (bt, "knn", "balltree.knn", lambda a, o: {"n_dist": o[2]}),
    (bt, "range_query", "balltree.range_query",
     lambda a, o: {"n_dist": o[2], "candidates": len(o[0])}),
    (daskmeans, "compute_cb", "daskmeans.compute_cb", lambda a, o: {"n_dist": o[1]}),
    (daskmeans, "assign_pass", "daskmeans.assign_pass",
     lambda a, o: {"n_dist": o.n_dist, "pruned_vectors": o.pruned_vectors}),
    (daskmeans, "fit", "daskmeans.fit", None),
    (daskmeans_spark, "fit", "daskmeans_spark.fit", None),
    (RDD, "collect", "rdd.collect", None),
]


# Local-layer metrics: "<span name>.<summary key>", per fit.
LOCAL_LAYERS = {
    "balltree.knn": ("calls", "s", "n_dist"),
    "balltree.range_query": ("calls", "s", "n_dist", "candidates"),
    "balltree.build": ("calls", "s"),
    "daskmeans.compute_cb": ("s", "n_dist"),
    "daskmeans.assign_pass": ("s", "self_s", "n_dist", "pruned_vectors"),
    "daskmeans.fit": ("self_s",),
}


def local_layers(tr: Tracer, fits: list, n: int) -> dict:
    """Per-fit means over traced local fits: [(fit span, result)]."""
    out: dict[str, float] = {}
    for span, _ in fits:
        summary = tr.summary(span)
        for name, keys in LOCAL_LAYERS.items():
            for key in keys:
                v = summary.get(name, {}).get(key, 0)
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + v / len(fits)
    calls = out["balltree.knn.calls"]
    out["balltree.knn.us_per_call"] = out["balltree.knn.s"] / calls * 1e6 if calls else 0.0
    n_iter = statistics.fmean(res.n_iter for _, res in fits)
    out["daskmeans.assign_pass.pruned_ratio"] = out["daskmeans.assign_pass.pruned_vectors"] / (n * n_iter)
    return out


def spark_split(tr: Tracer, span) -> dict:
    """State build / iterations / driver / export split of one Spark fit."""
    builds = tr.under(span, "balltree.build")
    if not builds:
        raise RuntimeError("no driver centroid-index build seen inside the Spark fit")
    after = [c for c in tr.under(span, "rdd.collect") if c.start > builds[-1].start]
    if not after:
        raise RuntimeError("no collect after the last driver centroid-index build")
    last_end = after[0].end
    driver = sum(b.s for b in builds) + sum(c.s for c in tr.under(span, "daskmeans.compute_cb"))
    return {
        "daskmeans_spark.state_build.s": builds[0].start - span.start,
        "daskmeans_spark.iter.s": last_end - builds[0].start - driver,
        "daskmeans_spark.driver.s": driver,
        "daskmeans_spark.export.s": span.end - last_end,
    }


def traced(paths: dict, primary: str, gates: dict, insts: dict, seconds: float) -> dict:
    """Per-layer metrics {name: (value, unit)}; ``paths``, ``gates`` and
    ``insts`` are keyed by path name ("local", "spark")."""
    tr = Tracer(TARGETS)
    local, spark = paths["local"], paths["spark"]
    states = {name: setup_all(p, [insts[name]])[0] for name, p in paths.items()}
    refs = {name: p.reference(insts[name]) for name, p in paths.items()}

    def fit(name, tracer=None):
        return gates[name].fit(insts[name], states[name], refs[name], tracer)

    secondary = "spark" if primary == "local" else "local"
    fit(primary)  # warm-up
    plain, traced_s, fits = [], [], {"local": [], "spark": []}
    spent = 0.0
    while spent < seconds or not traced_s:
        dt, _, _ = fit(primary)
        dt2, res, span = fit(primary, tr)
        plain.append(dt)
        traced_s.append(dt2)
        fits[primary].append((span, res))
        spent += dt + dt2
    fit(secondary)  # warm-up
    _, res, span = fit(secondary, tr)
    fits[secondary].append((span, res))
    for name, lst in fits.items():
        if any(res is None for _, res in lst):
            raise RuntimeError(f"a traced {name} fit raised; no layer split to report")

    inst = insts["local"]
    m = local_layers(tr, fits["local"], len(inst.X))
    builds = []
    for _ in range(3):
        with tr.traced("local.setup") as span:
            local.setup(inst)
        builds.append(span.s)
    m["balltree.point_index.build.s"] = median(builds)
    m["baselines.lloyd.fit_s"] = _lloyd_local(local, inst)

    splits = [spark_split(tr, span) for span, _ in fits["spark"]]
    for key in splits[0]:
        m[key] = statistics.fmean(s[key] for s in splits)
    inst, df = insts["spark"], states["spark"]
    t0 = time.perf_counter()
    sizes = sdata.partition_arrays(df, inst.X.shape[1]).map(lambda p: len(p[0])).collect()
    m["spark.data.partition_arrays.s"] = time.perf_counter() - t0
    m["daskmeans_spark.partition.max_over_mean"] = max(sizes) / statistics.fmean(sizes)
    m["daskmeans_spark.state.pickled_bytes"] = spark.pickled_state_bytes(inst, df)
    m["spark.lloyd_spark.fit_s"] = _lloyd_spark(spark, inst, df, gates["spark"])

    measured, est = paths[primary].memory(insts[primary], states[primary])
    m["estimator.memory.estimate_ratio"] = est / measured
    m["trace.overhead_ratio"] = median(traced_s) / median(plain) - 1.0
    for name, p in paths.items():
        p.release(states[name])
    print(
        f"# traced run: {len(plain)} untraced and {len(traced_s)} traced {primary} fits of "
        f"instance seed {insts[primary].seed}; 1 traced {secondary} fit of instance seed "
        f"{insts[secondary].seed}"
    )
    return {name: (m[name], unit) for name, unit in UNITS.items()}


def _lloyd_local(local: LocalPath, inst) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        local.reference(inst)
        times.append(time.perf_counter() - t0)
    return median(times)


def _lloyd_spark(spark: SparkPath, inst, df, gate: Gate) -> float:
    """Spark Lloyd from the same init; its centroids must match local Lloyd."""
    import numpy as np

    from repro.baselines import lloyd

    gate.attempted += 1
    t0 = time.perf_counter()
    try:
        res = lloyd_spark.fit(
            spark.spark, df, spark.w.k, d=inst.X.shape[1], max_iter=spark.w.iters,
            init_centroids=inst.C0,
        )
        materialise(res.labels_df)
    except Exception:
        gate.fail(inst, "Spark Lloyd raised:\n" + traceback.format_exc())
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    ref = lloyd.fit(inst.X, inst.C0, spark.w.iters)
    if not np.allclose(res.centroids, ref.centroids, rtol=0.0, atol=1e-6):
        gate.fail(inst, "Spark Lloyd centroids differ from local Lloyd")
    return dt
