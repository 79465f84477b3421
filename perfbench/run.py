#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see BENCHMARK.json and ledger.json).

    python3 perfbench/run.py --workload churn|attack|lockstep \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repo root. Builds the program from source with CMake into
$CARGO_TARGET_DIR (default .bench_build; build output goes to stderr), then
runs one workload. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (which also writes a
Perfetto-loadable span file under <build dir>/runs/). Exits non-zero when
the build fails, a correctness gate fails, or the run overruns its deadline.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the incremental build check.
RUN_DEADLINE_S = 170


def ledger():
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds the benchmark and the shard worker."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "now_shard",
         "-j", jobs],
        check=True, stdout=log, stderr=log)


def main():
    defaults = ledger()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in defaults["workloads"]])
    parser.add_argument("--seed", type=int, default=defaults["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--now-shard", os.path.join(build_dir, "now", "now_shard"),
        "--workdir", os.path.join(build_dir, "runs"),
    ]
    # Own process group, so a deadline kill also takes the shard workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {args.workload} overran {RUN_DEADLINE_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
