#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out perfbench/baseline.json

For each workload of BENCHMARK.json it makes one untraced run per seed
(end-to-end metrics) and one traced run for each of TRACE_SEEDS (per-layer
metrics), each for BENCHMARK.json's run_seconds, then prints each metric's
median and its spread: the distance between the first and third quartile
as a share of the median. A spread above a third of the metric's bound is
flagged. --out writes the same summary as JSON, the baseline later
changes are compared against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEEDS = [1, 2]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit("%s seed %d trace %d failed:\n%s" % (workload, seed, trace, out.stderr[-4000:]))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print("%s seed %d trace %d: %d of %d ops failed" % (
            workload, seed, trace, res["failed"], res["attempted"]), file=sys.stderr)
    return res


def summarize(results):
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    out = {}
    for name, m in sorted(metrics.items()):
        xs = m["values"]
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med:
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        out[name] = {"median": med, "spread": spread, "unit": m["unit"], "values": xs}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=False).stdout.strip()
    report = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "go": go},
        "run_seconds": seconds,
        "seeds": seeds,
        "trace_seeds": TRACE_SEEDS,
        "workloads": {},
    }
    for wl in (w["name"] for w in bench["workloads"]):
        t0 = time.time()
        e2e = summarize([run(wl, s, seconds, 0) for s in seeds])
        layer = summarize([run(wl, s, seconds, 1) for s in TRACE_SEEDS])
        report["workloads"][wl] = {"end_to_end": e2e, "per_layer": layer}
        print("%s (%.0fs)" % (wl, time.time() - t0))
        for name, m in e2e.items():
            flag = ""
            if name in bounds and m["spread"] > bounds[name] / 3:
                flag = "  <- above a third of the bound %.2f" % bounds[name]
            print("  %-28s median %-14.6g spread %.4f%s" % (name, m["median"], m["spread"], flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
