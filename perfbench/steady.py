#!/usr/bin/env python3
"""Steadiness tool: run one workload K times and report each metric's spread.

    python3 perfbench/steady.py --workload tour --runs 10
    python3 perfbench/steady.py --workload uds --runs 10 --build A/perfbench --build B/perfbench

Each run gets its own seed (--seed, --seed + 1, ...). With two --build
executables the runs interleave, alternating which build goes first in
each pair, and both builds see the same seeds. Without --build the
benchmark in this checkout is built and used.

For every run the tool prints the host's steal and idle shares over the
run (from /proc/stat), so a noisy run can be traced to the host rather
than the program. For every metric it prints the median, the quartiles
(statistics.quantiles, n=4), and the spread (Q3 - Q1) / median, beside
the bound BENCHMARK.json gives it and a mark when the spread exceeds a
third of that bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host_cpu():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[3] + fields[4], fields[7]


def build_here():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True, cwd=ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(ROOT, target, "release", "ajanta-perfbench")


def run_once(exe, workload, seed, seconds, trace):
    before = host_cpu()
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    after = host_cpu()
    total = max(after[0] - before[0], 1)
    steal = (after[2] - before[2]) / total
    idle = (after[1] - before[1]) / total
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}): {out.stderr.strip()}")
    result = json.loads(lines[-1])
    return result, steal, idle


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def summarize(label, runs, limits):
    names = list(runs[0][0]["metrics"])
    print(f"\n{label}: {len(runs)} runs")
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r[0]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:38} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} {shown:>6}{flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json, else 10")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--build", action="append", default=[],
                   help="a perfbench executable; give two to interleave builds")
    args = p.parse_args()
    if len(args.build) > 2:
        sys.exit("at most two builds")
    seconds = args.seconds
    if seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                seconds = json.load(f)["run_seconds"]
        except OSError:
            seconds = 10
    exes = [os.path.abspath(b) for b in args.build] or [build_here()]
    results = {exe: [] for exe in exes}
    print(f"{'run':>4} {'build':>5} {'seed':>6} {'steal':>7} {'idle':>7} correct failed  metrics")
    for i in range(args.runs):
        seed = args.seed + i
        order = exes if i % 2 == 0 else exes[::-1]
        for exe in order:
            result, steal, idle = run_once(exe, args.workload, seed, seconds, args.trace)
            results[exe].append((result, steal, idle))
            label = "AB"[exes.index(exe)]
            values = " ".join(f"{v['value']:.4g}" for v in result["metrics"].values())
            print(f"{i:4} {label:>5} {seed:6} {steal:7.2%} {idle:7.2%} "
                  f"{str(result['correct']):7} {result['failed']:6}  {values}", flush=True)
    limits = bounds() if args.trace == 0 else {}
    for exe in exes:
        summarize(f"build {'AB'[exes.index(exe)]} ({exe})", results[exe], limits)
    if len(exes) == 2:
        a, b = (results[e] for e in exes)
        print("\nB against A (median B / median A - 1):")
        for name in a[0][0]["metrics"]:
            ma = statistics.median(r[0]["metrics"][name]["value"] for r in a)
            mb = statistics.median(r[0]["metrics"][name]["value"] for r in b)
            print(f"  {name:38} {mb / ma - 1:+8.2%}" if ma else f"  {name:38} -")


if __name__ == "__main__":
    main()
