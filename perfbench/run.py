#!/usr/bin/env python3
"""Build and run the mobidist benchmark for one workload.

    python3 perfbench/run.py --workload chaos_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which builds the mobidist libraries from ../src) into
.bench_build/perfbench; later calls only check that the build is current.
Build output goes to stderr; stdout carries the benchmark's report, whose
last line is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("commuter_1e5", "echo_100k_s4", "chaos_sweep")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: mobidist sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def git_sha():
    if os.environ.get("MOBIDIST_GIT_SHA"):
        return os.environ["MOBIDIST_GIT_SHA"]
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    artifacts = out / "artifacts"
    artifacts.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(artifacts)]
    env = dict(os.environ, MOBIDIST_GIT_SHA=git_sha())
    # One fresh process per workload, so its peak RSS is that workload's own.
    with subprocess.Popen(cmd, env=env) as proc:
        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
