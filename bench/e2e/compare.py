#!/usr/bin/env python3
"""Compare a parent and a change checkout on the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
                                 [--seed 1] [--save F]
    python3 bench/e2e/compare.py --load F

Runs `python3 bench/e2e/run.py --workload W --seed S --trace 0` in each
checkout, in pairs that share a seed, alternating which side runs
first. Then, for each workload and end-to-end metric, it prints both
sides' median and quartiles, the share of pairs the change won (ties
count for neither) and a verdict, with the bounds of the BENCHMARK.json
beside this script:

  improved    the change wins at least 9/10 of the pairs, and its median
              beats the parent's by more than the parent's IQR
  regressed   the change's median is worse than the parent's by more
              than the bound (or the change failed more boots)
  unresolved  the parent's spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  unchanged   otherwise
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json")
    .read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    return json.loads(lines[-1])


def collect(args):
    workloads = [w["name"] for w in SPEC["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {s: {w: [] for w in workloads} for s in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                result = run_side(sides[side], workload, seed,
                                  SPEC["run_seconds"])
                runs[side][workload].append(result)
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      f"{'ok' if result else 'FAILED'}", file=sys.stderr,
                      flush=True)
    return {"seeds": [args.seed + i for i in range(args.pairs)],
            "runs": runs}


def verdict(parent, change, better, bound, more_failures):
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = won / len(parent)
    gain = sign * (cm - pm)
    if more_failures:
        return share, "regressed"
    if share >= WIN_SHARE and gain > q3 - q1:
        return share, "improved"
    if -gain > bound * pm:
        return share, "regressed"
    every_run_better = all(sign * (c - p) > 0
                           for c in change for p in parent)
    if (q3 - q1) / pm > bound and not every_run_better:
        return share, "unresolved"
    return share, "unchanged"


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):10.4f} [{q1:.4f}, {q3:.4f}]"


def report(data):
    print(f"{'workload':11s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for workload in data["runs"]["parent"]:
        parent_runs = data["runs"]["parent"][workload]
        change_runs = data["runs"]["change"][workload]
        failed = {side: sum(r is None or r["failed"] > 0 or not r["correct"]
                            for r in data["runs"][side][workload])
                  for side in ("parent", "change")}
        # Pairs where both sides produced a result.
        pairs = [(p, c) for p, c in zip(parent_runs, change_runs)
                 if p is not None and c is not None]
        if len(pairs) < MIN_PAIRS:
            print(f"{workload:11s} only {len(pairs)} complete pairs; "
                  f"need {MIN_PAIRS}")
            continue
        for m in SPEC["end_to_end"]:
            parent = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
            change = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            share, v = verdict(parent, change, m["better"], m["bound"],
                               failed["change"] > failed["parent"])
            print(f"{workload:11s} {m['name']:12s} {quartiles(parent):>34s} "
                  f"{quartiles(change):>34s} {share:5.2f}  {v}")
        print(f"{workload:11s} failed runs: parent {failed['parent']}, "
              f"change {failed['change']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", nargs="?", help="parent checkout root")
    ap.add_argument("change", nargs="?", help="change checkout root")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--save", help="write the raw runs here")
    ap.add_argument("--load", help="report saved runs instead of running")
    args = ap.parse_args()
    if args.load:
        data = json.loads(Path(args.load).read_text())
    else:
        if not (args.parent and args.change):
            ap.error("give PARENT_DIR and CHANGE_DIR, or --load")
        if args.pairs < MIN_PAIRS:
            ap.error(f"at least {MIN_PAIRS} pairs are needed")
        data = collect(args)
        if args.save:
            Path(args.save).write_text(json.dumps(data, indent=1) + "\n")
    report(data)


if __name__ == "__main__":
    main()
