"""Run the benchmark over several seeds and report, per workload, each
metric's median and spread (quartile distance over median) against its
bound, and the failed ratio of all fits.

    python3 perfbench/spread.py [--workload local-2d-k256,...] [--seeds 1-10] [--out runs.jsonl]

Without ``--workload`` every workload of BENCHMARK.json runs. Each run is a
separate ``perfbench/run.py`` process with BENCHMARK.json's ``run_seconds``;
a run that exits with an error or reports incorrect output makes the exit
status 1. ``--out`` appends every run's result line for later comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(spec: dict, workload: str, seed_list: list[int], trace: int, out: str | None) -> bool:
    values: dict[str, list[float]] = {}
    ok, attempted, failed = True, 0, 0
    for seed in seed_list:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        if out:
            with open(out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{workload} seed {seed}: correct={result['correct']} {result['attempted']} fits "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        sp = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(k)
        mark = "" if b is None else f"  bound {b}  {'ok' if sp < b / 3 else 'WIDE' if sp < b else 'OVER'}"
        print(f"{workload} {k:42s} median {med:14.6g}  spread {sp:7.4f}{mark}")
    print(f"{workload} failed_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4g}", flush=True)
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    ok = True
    for workload in args.workload.split(","):
        ok &= spread(spec, workload, seeds(args.seeds), args.trace, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
