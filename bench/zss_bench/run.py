#!/usr/bin/env python3
"""Build and run one zss_bench workload; the last stdout line is the result.

Builds zss_bench and the zss_serve it launches from this checkout (into
.bench_build/ at the repository root), runs one workload, and prints the
benchmark's lines followed by one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of an
untraced run (--trace 0) or the per-layer metrics of a traced run
(--trace 1), exactly the names BENCHMARK.json lists.

  python3 bench/zss_bench/run.py --workload stream-fp32 --seed 1 \
      --seconds 20 --trace 0 [--out results.jsonl]

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "zss_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """{name: unit} the result must carry, or None without BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record (JSON lines)")
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [os.path.join(BUILD, "zss_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--work={os.path.join(BUILD, 'work')}"]
    if args.trace:
        cmd.append("--traced")
    if args.out:
        cmd.append(f"--out={os.path.abspath(args.out)}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"zss_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"zss_bench printed no result (exit code {proc.returncode})")
        return 1
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if want is not None and got != want:
        log(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
