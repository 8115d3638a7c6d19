#!/usr/bin/env python3
"""Build and run rev_bench, the end-to-end benchmark (see README.md).

Run from the repository root:

  python3 bench/e2e/run.py --workload ocsp_read --seed 1 --seconds 20 --trace 0
  python3 bench/e2e/run.py --workload all --seed 1 --runs 10 --out set_a.jsonl
  python3 bench/e2e/run.py compare set_a.jsonl set_b.jsonl

The first form builds bench/e2e (and the libraries under src/) into
.bench_build/e2e on first use, runs one workload in its own process and
passes its output through: the last line of stdout is the run's JSON result.
`--workload all` runs every workload in turn, and `--runs N` repeats each
with seeds seed..seed+N-1; `--out` appends one JSON line per run to a result
set. `compare` judges a second set against a first with the bounds in
BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "rev_bench"
WORKLOADS = ["corpus_load", "scan_weekly", "ocsp_read", "ocsp_churn"]
DEFAULT_SEED = 1


def build():
    """Configures and builds rev_bench; concurrent callers wait on a lock."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "rev_bench"]]
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                raise SystemExit(f"build failed: {' '.join(step)}")


def run_one(workload, seed, seconds, trace, extra):
    """Runs one workload in its own process; returns (exit code, result)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + extra
    if trace:
        command += ["--spans", str(BUILD / f"spans_{workload}_{seed}.json")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def run(args, extra):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        raise SystemExit(f"unknown workload {args.workload}; one of {WORKLOADS} or all")
    build()
    status = 0
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            code, result = run_one(workload, seed, args.seconds, args.trace, extra)
            if code != 0 or result is None:
                print(f"run.py: {workload} seed {seed} failed (exit {code})",
                      file=sys.stderr)
                status = 1
                continue
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "trace": args.trace, "result": result}) + "\n")
    return status


# --- compare ------------------------------------------------------------------


def load_set(path):
    """{(workload, metric): [values]} over the untraced runs of a result set."""
    values = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("trace"):
                continue
            for name, metric in row["result"]["metrics"].items():
                values.setdefault((row["workload"], name), []).append(metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, bound, lower_is_better):
    """within, regressed or unresolved, for set b against set a."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse = (bm - am) / am if lower_is_better else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if lower_is_better:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    return ("regressed" if worse > bound else "within"), worse, spread


def compare(path_a, path_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(path_a), load_set(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<14} {'A median':>12} {'A q1..q3':>25} "
          f"{'B median':>12} {'B q1..q3':>25} {'worse':>7} {'spread':>7} "
          f"{'bound':>6}  verdict")
    counts = {}
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            v, worse, spread = verdict(a[key], b[key], metric["bound"],
                                       metric["better"] == "lower")
            counts[v] = counts.get(v, 0) + 1
            qa, qb = quartiles(a[key]), quartiles(b[key])
            print(f"{workload:<12} {metric['name']:<14} {qa[1]:>12.5g} "
                  f"{qa[0]:>12.5g}..{qa[2]:<11.5g} {qb[1]:>12.5g} "
                  f"{qb[0]:>12.5g}..{qb[2]:<11.5g} {worse:>+7.3f} {spread:>7.3f} "
                  f"{metric['bound']:>6.2f}  {v} (n={len(a[key])}/{len(b[key])})")
    print("verdicts: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            raise SystemExit("usage: run.py compare A.jsonl B.jsonl")
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    # Anything else (e.g. --smoke) goes to rev_bench unchanged.
    args, extra = parser.parse_known_args()
    return run(args, extra)


if __name__ == "__main__":
    sys.exit(main())
