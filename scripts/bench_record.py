#!/usr/bin/env python3
"""Record a parent/change benchmark comparison as a committed BENCH file.

    python3 scripts/bench_record.py --out BENCH_20.json \\
        --parent <parent>/perfbench/target/release/ajanta-perfbench \\
        --parent-commit <sha> --workload uds --runs 10 --seed 2001

The change side is this checkout's perfbench, built first through
perfbench/steady.py (whose `build_here` and `run_once` this reuses), so
the runs measure the tree the file names. Runs last BENCHMARK.json's
`run_seconds` and interleave as in steady.py: pair i runs both builds on
seed --seed + i, the parent first in even pairs and the change first in
odd ones. For each workload and build the file keeps every run (seed,
order, host steal and idle, correctness, failures and every metric
perfbench printed) and the median, Q1 and Q3 of each metric the runs
print: the end-to-end metrics, or with --trace 1 the per-layer ones. For
each metric BENCHMARK.json names it also counts the pairs the change won,
by the metric's `better` direction; ties count for neither side.

Each workload's entry also records what it compared and where: the
parent commit; the change as HEAD plus the git tree id of the checkout's
tracked files (`git stash create` snapshots uncommitted edits without
touching the index or the working tree), with the ids of the paths the
benchmark builds from, so a later commit can be checked against them
(`git rev-parse <commit>:crates`); and the host: nproc, CPU model, and
whether the CPU reports the SHA extensions (`sha_ni`), which the SHA-256
kernel depends on.

An existing --out file is updated in place: each invocation adds or
replaces only the workloads it ran, so workloads can be recorded one at a
time. With --trace 1 the entry is stored as `<workload>+trace`. After
recording, the script prints the file's verdict (below) and exits with it.

    python3 scripts/bench_record.py --verdict BENCH_20.json

reads a BENCH file and prints one verdict per workload and end-to-end
metric of BENCHMARK.json, from the change's median against the parent's,
signed by the metric's `better` direction and relative to the parent's
median:

  worse       it moved the wrong way by more than the metric's bound;
  better      it moved the right way by more than the bound;
  unresolved  the parent's or the change's Q3 - Q1, each relative to its
              own median, is wider than the bound, and the runs overlap:
              neither does every change run beat every parent run, nor
              every parent run every change run;
  within      otherwise.

Each line prints both sides' spread (Q3 - Q1 over the side's median), as
the benchmark gate judges both. A clean separation settles a wide spread
either way, so a regression that every pair shows is reported as worse,
never as unresolved. A metric that
reads better is also marked claimable or not claimable: a gain is
claimable when the change won at least 9 of every 10 pairs and the
medians differ by more than the parent's Q3 - Q1. The summary line counts
the metrics worse beyond their bound, the unresolved ones and the
claimable gains. The exit status is 1 if any metric is worse beyond its
bound, else 0; an unresolved metric does not fail it. Entries without
end-to-end metrics (traced runs) are skipped.

    python3 scripts/bench_record.py --compare BENCH_21.json BENCH_23.json

compares the change runs of two BENCH files, for every workload both hold
and every end-to-end metric, by the same words and rule: the older file's
change runs stand where --verdict puts the parent's, the newer file's
where it puts the change's. The two files' runs were not interleaved, so
for the claim rule their i-th runs stand as pair i. It exits 1 if any
metric is worse beyond its bound. A file compared with itself moves
nowhere, so every metric whose spread is within its bound reads within.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Import perfbench/steady.py unchanged, without leaving a bytecode cache
# inside the benchmark's directory.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import steady  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host():
    flags, model = set(), ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "flags":
                flags.update(value.split())
            elif key == "model name" and not model:
                model = value.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model, "sha_ni": "sha_ni" in flags}


def change_tree():
    """HEAD, and the tree of this checkout's tracked files with its subtrees
    that perfbench builds from. `git stash create` prints nothing when the
    tree is clean; HEAD's tree is then the one."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    tree = git("rev-parse", (git("stash", "create") or head) + "^{tree}")
    sources = {path: git("rev-parse", f"{tree}:{path}")
               for path in ("Cargo.toml", "crates", "perfbench", "vendor")}
    return {"head": head, "tree": tree, "sources": sources}


def quartiles(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def record_workload(workload, exes, args, seconds, metric_spec, context):
    runs = {side: [] for side in exes}
    for i in range(args.runs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result, steal, idle = steady.run_once(exes[side], workload, seed, seconds, args.trace)
            runs[side].append({
                "seed": seed,
                "first": side == order[0],
                "steal": round(steal, 4),
                "idle": round(idle, 4),
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            shown = " ".join(f"{k}={v['value']:.4g}"
                             for k, v in list(result["metrics"].items())[:6])
            print(f"{workload} pair {i} {side:6} seed {seed} steal {steal:6.1%} "
                  f"failed {result['failed']} {shown}", flush=True)
    # Untraced runs print the end-to-end metrics, traced runs the
    # per-layer ones; summarize whichever the runs carry.
    names = list(runs["parent"][0]["metrics"])
    entry = {**context, "seconds": seconds, "trace": args.trace, "pairs": args.runs}
    for side in exes:
        entry[side] = {
            "summary": {name: quartiles([r["metrics"][name] for r in runs[side]])
                        for name in names},
            "runs": runs[side],
        }
    entry["change_vs_parent"] = {}
    for name in names:
        m = metric_spec.get(name)
        if m is None:
            continue
        sign = 1 if m["better"] == "higher" else -1
        pa = [r["metrics"][name] for r in runs["parent"]]
        ch = [r["metrics"][name] for r in runs["change"]]
        med_p, med_c = statistics.median(pa), statistics.median(ch)
        entry["change_vs_parent"][name] = {
            "median_ratio_minus_1": med_c / med_p - 1 if med_p else None,
            "pairs_won_by_change": sum(1 for p, c in zip(pa, ch) if sign * (c - p) > 0),
            "parent_iqr": entry["parent"]["summary"][name]["q3"]
            - entry["parent"]["summary"][name]["q1"],
            "bound": m.get("bound"),
        }
    return entry


def spread(q):
    """Q3 - Q1 relative to the median."""
    return (q["q3"] - q["q1"]) / q["median"]


def judge(workload, m, base, new, base_label):
    """Prints one metric's verdict, `new` runs against `base` runs, and
    returns the word and whether it is a claimable gain."""
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "higher" else -1
    q, q_n = quartiles(base), quartiles(new)
    med_n = q_n["median"]
    moved = sign * (med_n - q["median"]) / q["median"]
    spread_b, spread_n = spread(q), spread(q_n)
    best_b, worst_b = max(sign * v for v in base), min(sign * v for v in base)
    best_n, worst_n = max(sign * v for v in new), min(sign * v for v in new)
    separated = worst_n > best_b or worst_b > best_n
    if max(spread_b, spread_n) > bound and not separated:
        word = "unresolved"
    elif moved < -bound:
        word = "worse"
    elif moved > bound:
        word = "better"
    else:
        word = "within"
    won = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    new_label = "change" if base_label == "parent" else "new"
    line = (f"{workload:8} {name:17} {word:10} median {q['median']:.4g} -> {med_n:.4g} "
            f"({sign * moved:+.1%}), {base_label} spread {spread_b:.0%}, "
            f"{new_label} spread {spread_n:.0%}, bound {bound:.0%}, "
            f"{new_label} won {won}/{len(base)} pairs")
    # The medians' gap against the base's Q3 - Q1, both relative to the
    # base median.
    claimable = word == "better" and won >= math.ceil(0.9 * len(base)) and abs(moved) > spread_b
    if word == "better":
        line += ", claimable" if claimable else ", not claimable"
    print(line)
    return word, claimable


def metric_runs(entry, side, name):
    return [r["metrics"][name] for r in entry[side]["runs"]]


def verdict(path, end_to_end):
    """Prints the file's verdict per workload and end-to-end metric and
    returns the exit status: 1 if any metric is worse beyond its bound."""
    with open(path) as f:
        doc = json.load(f)
    words = []
    for workload, entry in sorted(doc["workloads"].items()):
        for m in end_to_end:
            if m["name"] not in entry["parent"]["runs"][0]["metrics"]:
                continue
            words.append(judge(workload, m, metric_runs(entry, "parent", m["name"]),
                               metric_runs(entry, "change", m["name"]), "parent"))
    return summary(path, words)


def summary(label, words):
    """Prints the summary line of (word, claimable) verdicts and returns
    the exit status: 1 if any metric is worse beyond its bound."""
    worse = sum(word == "worse" for word, _ in words)
    unresolved = sum(word == "unresolved" for word, _ in words)
    claims = sum(claimable for _, claimable in words)
    print(f"{label}: {'REGRESSION' if worse else 'no regression'} "
          f"({worse} metric(s) worse beyond their bound, {unresolved} unresolved, "
          f"{claims} claimable gain(s))")
    return 1 if worse else 0


def compare(old_path, new_path, end_to_end):
    """Prints, per workload both files hold and end-to-end metric, the
    verdict of the new file's change runs against the old file's, and
    returns the exit status: 1 if any metric is worse beyond its bound."""
    docs = []
    for path in (old_path, new_path):
        with open(path) as f:
            docs.append(json.load(f)["workloads"])
    old, new = docs
    words = []
    for workload in sorted(set(old) & set(new)):
        for m in end_to_end:
            if m["name"] not in old[workload]["change"]["runs"][0]["metrics"]:
                continue
            words.append(judge(workload, m, metric_runs(old[workload], "change", m["name"]),
                               metric_runs(new[workload], "change", m["name"]), "old"))
    return summary(f"{old_path} -> {new_path}", words)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--verdict", metavar="BENCH_FILE",
                   help="print the verdict of a BENCH file instead of recording")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare the change runs of two BENCH files instead of recording")
    p.add_argument("--out")
    p.add_argument("--parent", help="the parent commit's perfbench executable")
    p.add_argument("--parent-commit")
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()

    bench = spec()
    if args.verdict:
        sys.exit(verdict(args.verdict, bench["end_to_end"]))
    if args.compare:
        sys.exit(compare(*args.compare, bench["end_to_end"]))
    if not (args.out and args.parent and args.parent_commit and args.workload):
        p.error("recording needs --out, --parent, --parent-commit and --workload")
    metric_spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    exes = {"parent": os.path.abspath(args.parent), "change": steady.build_here()}
    context = {"commits": {"parent": args.parent_commit, "change": change_tree()},
               "host": host()}
    try:
        with open(args.out) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {"workloads": {}}
    for workload in args.workload:
        key = workload + ("+trace" if args.trace else "")
        doc["workloads"][key] = record_workload(
            workload, exes, args, bench["run_seconds"], metric_spec, context)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(verdict(args.out, bench["end_to_end"]))


if __name__ == "__main__":
    main()
