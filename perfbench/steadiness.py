#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly and summarise each metric.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,3]
                                    [--trace 0|1] [--markdown FILE]
                                    [--json FILE]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json
                                    [--markdown FILE]

Run from the root of a checkout.  For every workload, runs
`perfbench/run.py` once per seed (sequentially), then prints each metric's
median and IQR.  Percentiles follow the IQR idiom of SNIPPETS.md #1 (the mean
of the two order statistics around p*n).  For the end-to-end metrics it also
prints the quartile spread -- the distance between the first and third
quartile of `statistics.quantiles(values, n=4)`, as a share of the median --
against the metric's bound from BENCHMARK.json and against a third of it,
the steadiness target.  `--json` saves the raw values of the set.  Exits
nonzero if a run fails or an end-to-end spread reaches a third of its bound.

`--compare` reads two saved sets and prints, for every end-to-end metric,
how far the second set's median moved from the first's in the metric's
worse direction; it exits nonzero if any moved by more than its bound.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def percentile(values, p):
    """SNIPPETS.md #1: approach p*n from the left and average the neighbours."""
    nums = sorted(values)
    x = p * len(nums)
    i_l = min(max(math.floor(x - 0.5), 0), len(nums) - 1)
    x_r = x + 0.5
    i_r = math.floor(x_r) if x_r > math.floor(x_r) else math.floor(x_r) - 1
    i_r = min(max(i_r, 0), len(nums) - 1)
    return 0.5 * nums[i_l] + 0.5 * nums[i_r]


def quartile_spread(values):
    """(Q3 - Q1) / median with Python's default quantile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect answers")
    return result


def emit(lines, markdown):
    report = "\n".join(lines) + "\n"
    print(report)
    if markdown:
        with open(markdown, "a", encoding="utf-8") as handle:
            handle.write(report)


def measure(args, config):
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    saved = {}
    out = []
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        saved[workload] = {"seeds": seeds, "values": values}
        out.append(f"\n### {workload} ({len(seeds)} runs, seeds {args.seeds},"
                   f" {args.seconds} s, trace {args.trace})\n")
        out.append("| metric | unit | median | IQR | IQR/median | quartile "
                   "spread | bound | spread <= bound | spread < bound/3 |")
        out.append("|---|---|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            med = percentile(vals, 0.5)
            iqr = percentile(vals, 0.75) - percentile(vals, 0.25)
            rel = iqr / med if med else float("nan")
            spread = quartile_spread(vals) if len(vals) > 1 else float("nan")
            bound = bounds.get(name)
            within = target = ""
            if bound is not None:
                within = "yes" if spread <= bound else "NO"
                target = "yes" if spread < bound / 3 else "NO"
                steady = steady and spread < bound / 3
            out.append(f"| {name} | {units[name]} | {med:.6g} | {iqr:.4g} | "
                       f"{rel:.4f} | {spread:.4f} | "
                       f"{'' if bound is None else bound} | {within} | "
                       f"{target} |")
    emit(out, args.markdown)
    if args.json:
        Path(args.json).write_text(json.dumps(saved, indent=1) + "\n",
                                   encoding="utf-8")
    return 0 if steady else 1


def compare(args, config):
    first, second = (json.loads(Path(p).read_text(encoding="utf-8"))
                     for p in args.compare)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    out = ["| workload | metric | median first | median second | change | "
           "worse by | bound | within |", "|---|---|---|---|---|---|---|---|"]
    within_all = True
    for workload, seen in first.items():
        if workload not in second:
            continue
        for name, vals in seen["values"].items():
            if name not in metrics:
                continue
            a = statistics.median(vals)
            b = statistics.median(second[workload]["values"][name])
            change = (b - a) / a if a else float("inf")
            worse = change if metrics[name]["better"] == "lower" else -change
            ok = worse <= metrics[name]["bound"]
            within_all = within_all and ok
            out.append(f"| {workload} | {name} | {a:.6g} | {b:.6g} | "
                       f"{change:+.1%} | {max(worse, 0.0):.1%} | "
                       f"{metrics[name]['bound']} | {'yes' if ok else 'NO'} |")
    emit(out, args.markdown)
    return 0 if within_all else 1


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--markdown", help="also append the tables here")
    parser.add_argument("--json", help="save the raw values here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two sets saved with --json")
    args = parser.parse_args()
    return compare(args, config) if args.compare else measure(args, config)


if __name__ == "__main__":
    sys.exit(main())
