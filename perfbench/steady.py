#!/usr/bin/env python3
"""Steadiness tool: run each workload N times with different seeds and
print, for every metric, the median, the quartiles and the spread
(interquartile range as a share of the median), plus a host fingerprint.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1] [--workload NAME ...]
    python3 perfbench/steady.py --host-phases 30

Run it from the root of a checkout.  Run i uses seed i (1 ... N).  The
command, run length and workloads come from BENCHMARK.json; the bounds
there were set from this tool's output.

--host-phases S times a fixed pure-Python loop in chunks for S seconds
and prints the spread of the chunk times: a reading of how much the
host itself speeds up and slows down, with no benchmark involved.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml": out(["ocaml", "-vnum"]),
        "commit": out(["git", "rev-parse", "--short", "HEAD"]),
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def host_phases(seconds):
    chunks = []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        t0 = time.monotonic()
        x = 0
        for i in range(1_000_000):
            x += i * i
        chunks.append((time.monotonic() - t0) * 1e3)
    q1, med, q3 = statistics.quantiles(chunks, n=4)
    print(f"host phases: {len(chunks)} chunks of the same loop over {seconds}s: "
          f"min {min(chunks):.1f} ms, q1 {q1:.1f}, median {med:.1f}, q3 {q3:.1f}, max {max(chunks):.1f} ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workload", action="append", help="workload to run (default: all)")
    ap.add_argument("--host-phases", type=int, metavar="S", help="only time a fixed loop for S seconds")
    args = ap.parse_args()
    if args.host_phases:
        print(f"host: {fingerprint()}, load {os.getloadavg()}")
        host_phases(args.host_phases)
        return

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metric_spec = {m["name"]: m for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}

    host = fingerprint()
    host["load_before"] = os.getloadavg()
    print(f"host: {host}", flush=True)
    for name in names:
        rows = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                sys.exit(1)
            res = json.loads(lines[-1])
            rows.append(res)
            print(f"  {name} seed {seed}: {wall:.1f}s, attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}", flush=True)
        print(f"{name} ({args.runs} runs, {seconds}s each)")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            bound = metric_spec.get(metric, {}).get("bound", "")
            if len(values) >= 2 and all(v == values[0] for v in values):
                print(f"  {metric:34} {values[0]:12.6g} {'(constant)':>12}")
                continue
            med, q1, q3, share = spread(values)
            print(f"  {metric:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f} {bound!s:>6}")
            print("      by seed: " + " ".join(f"{v:.4g}" for v in values))
        shares = {r["failed"] / r["attempted"] for r in rows}
        print(f"  failed share per run: {sorted(shares)}", flush=True)
    host["load_after"] = os.getloadavg()
    print(f"load average before {host['load_before']}, after {host['load_after']}")


if __name__ == "__main__":
    main()
