#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed and workload, then
prints, per workload and metric, the median of the runs and the distance
between their first and third quartiles as a share of the median (the
spread), next to a third of the metric's bound and the bound itself.

    python3 perfbench/spread.py --seeds 1-10 [--workloads stream_p2p,torus_cut]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: check failed", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            steady = spread < bound / 3 or name == "setup_s"
            ok &= steady
            print(f"  {workload:11s} {name:13s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound/3 {bound / 3:6.4f}  bound {bound:4.2f}  {'ok' if steady else 'WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
