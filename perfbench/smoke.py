#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload BENCHMARK.json
names, untraced and traced, at the default seed (42) and at a held-out
seed (7).  Each run must print every metric BENCHMARK.json names for its
mode, with that metric's unit, and check out correct with ok_ratio 1.0.

    python3 perfbench/smoke.py [--seconds 1]

Run from the repository root; exits non-zero on the first problem.
"""
import argparse
import json
import math
import subprocess
import sys

SEEDS = (42, 7)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="1")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    problems = []
    for name in [w["name"] for w in bench["workloads"]]:
        for seed in SEEDS:
            for trace in ("0", "1"):
                cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                          "--seconds", args.seconds, "--trace", trace]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                tag = f"{name} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    problems.append(f"{tag}: exit code {proc.returncode}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{tag}: not correct ({result['failed']} of "
                                    f"{result['attempted']} failed)")
                metrics = result["metrics"]
                names = [m["name"] for m in wanted[trace]]
                if sorted(metrics) != sorted(names):
                    problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(metrics) ^ set(names))}")
                for m in wanted[trace]:
                    got = metrics.get(m["name"])
                    if got is None:
                        continue
                    if got.get("unit") != m["unit"]:
                        problems.append(f"{tag}: {m['name']} unit {got.get('unit')!r}")
                    if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
                        problems.append(f"{tag}: {m['name']} value {got.get('value')!r}")
                if trace == "0" and metrics.get("ok_ratio", {}).get("value") != 1.0:
                    problems.append(f"{tag}: ok_ratio {metrics.get('ok_ratio')}")
                print(f"{tag}: ok", flush=True)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
