#!/usr/bin/env python3
"""Run the benchmark on several seeds and print, per end-to-end metric, the
median and the spread (inter-quartile distance over the median), beside the
bound BENCHMARK.json sets.

    python3 perfbench/spread.py --workload corpus-matrix --seeds 1-10 [--trace 0]

Run from the repository root.  Each run is the same command the benchmark
declares; the raw result lines are appended to perfbench/_out/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    os.makedirs(os.path.join("perfbench", "_out"), exist_ok=True)
    log = open(os.path.join("perfbench", "_out", "spread.jsonl"), "a")
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        log.write(json.dumps({"workload": args.workload, "seed": seed,
                              "notes": lines[:-1], "result": result}) + "\n")
        log.flush()
        print(f"seed {seed}: correct={result['correct']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<24}{'median':>14}{'spread':>9}{'bound':>7}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{k:<24}{med:>14.6g}{spread:>9.4f}{bound if bound is not None else '':>7}{flag}")


if __name__ == "__main__":
    main()
