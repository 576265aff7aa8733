#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                    [--record perfbench/STEADINESS.md]
                                    [--save runs.json] [--baseline runs.json]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds and --trace 0, then reports for every end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound. A spread above a third of the bound is flagged;
setup_s is exempt from the spread rule but not from the median comparison.
--save keeps the raw results; --baseline compares this set's medians with a
saved set's and flags any metric that got worse by more than its bound.
--record writes the table as markdown.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l for l in lines if l.startswith("digest ")), "")
    provenance = next((l for l in lines if l.startswith("provenance ")), "")
    return {"seed": seed, "wall_s": wall, "digest": digest, "provenance": provenance,
            "log": lines[:-1], **result}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(metric, new, old):
    """Share by which `new` is worse than `old` for this metric's direction."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    metrics = bench["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            run = run_once(workload, seed, bench["run_seconds"])
            runs[workload].append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']} "
                  f"wall {run['wall_s']:.1f} s", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    rows = []
    problems = []
    for workload in workloads:
        for run in runs[workload]:
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload} seed {run['seed']}: correct={run['correct']} "
                                f"failed={run['failed']}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            s = summarize(values)
            limit = metric["bound"] / 3
            status = "ok"
            if name != "setup_s" and s["spread"] > metric["bound"]:
                status = "SPREAD > BOUND"
                problems.append(f"{workload} {name}: spread {s['spread']:.4f} > bound")
            elif name != "setup_s" and s["spread"] > limit:
                status = "spread > bound/3"
            if workload in baseline:
                old = statistics.median(r["metrics"][name]["value"] for r in baseline[workload])
                drift = worse_by(metric, s["median"], old)
                s["drift"] = drift
                if drift > metric["bound"]:
                    status = "MEDIAN WORSE THAN BASELINE"
                    problems.append(f"{workload} {name}: median worse by {drift:.4f}")
            rows.append((workload, metric, s, status))

    header = "| workload | metric | unit | median | q1 | q3 | spread | bound | status |"
    lines = [header, "|---|---|---|---|---|---|---|---|---|"]
    for workload, metric, s, status in rows:
        lines.append(f"| {workload} | {metric['name']} | {metric['unit']} | {s['median']:.6g} | "
                     f"{s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f} | {metric['bound']} | "
                     f"{status} |")
    table = "\n".join(lines)
    print(table)
    for workload in workloads:
        walls = [r["wall_s"] for r in runs[workload]]
        print(f"{workload}: wall per run {min(walls):.1f}-{max(walls):.1f} s")
    for problem in problems:
        print("PROBLEM:", problem)

    if args.record:
        provenance = runs[workloads[0]][0]["provenance"]
        with open(args.record, "w") as f:
            f.write("# Steadiness record\n\n")
            f.write(f"Written by `python3 perfbench/steadiness.py --record {args.record}`: "
                    f"{len(seeds)} runs per workload (seeds {seeds[0]}-{seeds[-1]}), "
                    f"{bench['run_seconds']} s each, `--trace 0`. Spread is "
                    "(q3 - q1) / median of the per-run values; the target is a spread "
                    "below a third of the bound. setup_s is exempt from the spread "
                    "rule.\n\n")
            f.write("## Workloads\n\n")
            for workload in workloads:
                walls = [r["wall_s"] for r in runs[workload]]
                f.write(f"- `{workload}`: {why.get(workload, '')} "
                        f"(wall per run {min(walls):.1f}-{max(walls):.1f} s)\n")
            f.write("\n## End-to-end metrics\n\n" + table + "\n")
            flagged = [f"{w} {m['name']} ({s['spread']:.3f} vs bound {m['bound']})"
                       for w, m, s, status in rows if s["spread"] > m["bound"]]
            f.write("\nMetrics whose spread exceeds their bound: " +
                    ("; ".join(flagged) if flagged else "none") + ".\n")
            if provenance:
                f.write(f"\n{provenance}\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
