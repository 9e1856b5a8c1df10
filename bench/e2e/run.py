#!/usr/bin/env python3
"""Build and run the end-to-end startup benchmark (bench/e2e).

Every mode first builds build-e2e/ from bench/e2e/CMakeLists.txt
(a Release copy of src/ plus the cdvm_e2e driver).

One run, the result JSON on the last stdout line:

    python3 bench/e2e/run.py --workload cold_start --seed 1 --seconds 12 --trace 0

Full sets: every workload untraced then traced, K sets on seeds
N..N+K-1, printed per metric and written to bench/e2e/BENCH_e2e.json
with each end-to-end metric's spread (IQR / median) beside its bound:

    python3 bench/e2e/run.py [--seed N] [--sets K]

Smoke check: every workload in both modes at tiny sizes; asserts that
every declared metric is emitted with its unit and nothing failed:

    python3 bench/e2e/run.py --smoke
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "cdvm_e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# A run must end within 180 s; the driver's own limit is tighter than
# anything a healthy run needs.
RUN_TIMEOUT_S = 170
SMOKE_LIMIT_S = 20


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build build-e2e/; exit 1 if either step fails."""
    BUILD.mkdir(exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(BUILD), "--parallel", jobs],
    ]
    # Concurrent runs in one checkout share the build directory.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                sys.exit(1)


def run_once(workload, seed, seconds, traced, smoke=False):
    """One cdvm_e2e process; returns (exit code, result dict or None)."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--traced={int(traced)}",
           # Relative, so the image-host socket path stays short.
           f"--workdir={os.path.relpath(workdir, ROOT)}"]
    if smoke:
        cmd.append("--smoke=1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        log(f"{workload}: last output line is not a result")
        return proc.returncode or 1, None


def declared(traced):
    return SPEC["per_layer" if traced else "end_to_end"]


def name_errors(result, traced):
    """Declared metrics that are missing, extra, or in the wrong unit."""
    want = {m["name"]: m["unit"] for m in declared(traced)}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = [f"missing {n}" for n in want if n not in got]
    errors += [f"undeclared {n}" for n in got if n not in want]
    errors += [f"{n}: unit {got[n]}, declared {u}"
               for n, u in want.items() if n in got and got[n] != u]
    return errors


def spread(values):
    """(median, q1, q3, IQR/median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else None


def single(args):
    build()
    code, result = run_once(args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        sys.exit(code or 1)
    errors = name_errors(result, args.trace)
    if errors:
        log("; ".join(errors))
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(code)


def smoke(args):
    build()
    start = time.monotonic()
    failures = []
    for workload in WORKLOADS:
        for traced in (False, True):
            code, result = run_once(workload, args.seed, 0.2, traced,
                                    smoke=True)
            label = f"{workload}/{'traced' if traced else 'untraced'}"
            if result is None:
                failures.append(f"{label}: no result (exit {code})")
                continue
            errors = name_errors(result, traced)
            if code or not result["correct"] or result["failed"]:
                errors.append(f"exit {code}, failed {result['failed']} "
                              f"of {result['attempted']}")
            failures += [f"{label}: {e}" for e in errors]
            log(f"{label}: {len(result['metrics'])} metrics"
                f"{'' if errors else ' ok'}")
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_LIMIT_S:
        failures.append(f"took {elapsed:.1f} s > {SMOKE_LIMIT_S} s")
    for f in failures:
        log("FAIL " + f)
    print(f"smoke: {'FAIL' if failures else 'ok'} in {elapsed:.1f} s")
    sys.exit(1 if failures else 0)


def hardware():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model or platform.processor(),
            "cores": os.cpu_count(), "system": platform.platform()}


def sets(args):
    build()
    seeds = list(range(args.seed, args.seed + args.sets))
    runs = {w: {"untraced": [], "traced": []} for w in WORKLOADS}
    failed = False
    for seed in seeds:
        for workload in WORKLOADS:
            for traced in (False, True):
                code, result = run_once(workload, seed, args.seconds,
                                        traced)
                if result is None or code or name_errors(result, traced):
                    log(f"{workload} seed {seed}: run failed (exit {code})")
                    failed = True
                    continue
                runs[workload]["traced" if traced else "untraced"].append(
                    result)
                log(f"{workload} seed {seed} "
                    f"{'traced' if traced else 'untraced'}: done")

    report = {"run_seconds": args.seconds, "seeds": seeds,
              "hardware": hardware(), "workloads": {}}
    for workload in WORKLOADS:
        entry = {"attempted": 0, "failed": 0,
                 "end_to_end": {}, "per_layer": {}}
        for mode, section in (("untraced", "end_to_end"),
                              ("traced", "per_layer")):
            results = runs[workload][mode]
            entry["attempted"] += sum(r["attempted"] for r in results)
            entry["failed"] += sum(r["failed"] for r in results)
            for m in declared(mode == "traced"):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                if not values:
                    continue
                med, q1, q3, rel = spread(values)
                row = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                       "values": values}
                if section == "end_to_end":
                    row.update(better=m["better"], bound=m["bound"],
                               spread=rel)
                entry[section][m["name"]] = row
        report["workloads"][workload] = entry

    print(f"{'workload':11s} {'metric':36s} {'median':>14s} unit   "
          "spread  bound")
    for workload, entry in report["workloads"].items():
        for name, row in entry["end_to_end"].items():
            rel = row["spread"]
            # Set-up time is bounded by its median alone, not its spread.
            flag = ("  WIDER THAN BOUND" if name != "setup_s" and
                    rel is not None and rel > row["bound"] else "")
            print(f"{workload:11s} {name:36s} {row['median']:14.4f} "
                  f"{row['unit']:6s} "
                  f"{'-' if rel is None else f'{rel:.4f}':>6s} "
                  f"{row['bound']:.2f}{flag}")
        for name, row in entry["per_layer"].items():
            print(f"{workload:11s} {name:36s} {row['median']:14.4f} "
                  f"{row['unit']}")
        print(f"{workload:11s} failed {entry['failed']} of "
              f"{entry['attempted']}")

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=1) + "\n")
    log(f"wrote {out}")
    sys.exit(1 if failed or any(e["failed"] for e in
                                report["workloads"].values()) else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload once (the driver interface)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1,
                    help="full sets to run (without --workload)")
    ap.add_argument("--out", default=str(HERE / "BENCH_e2e.json"),
                    help="report path for full sets")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        smoke(args)
    elif args.workload:
        single(args)
    else:
        sets(args)


if __name__ == "__main__":
    main()
