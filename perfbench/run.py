#!/usr/bin/env python3
"""Build and run the OFTEC repository benchmark.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the oftec library from src/) into .bench_build/perfbench, runs the
benchmark's self-tests, then runs one workload (or `all`). Build and
self-test output goes to stderr; the benchmark's report goes to stdout, and
its last line is the JSON result. The exit code is the benchmark's: non-zero
when the build, a self-test or a correctness gate fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "oftec_perfbench")
GOLDEN = os.path.join(ROOT, "tests", "integration", "data", "table2_golden.csv")
WORKLOADS = ("table2", "dtm", "serve", "cluster", "all")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Run a build or self-test step with its output on stderr."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    return result.returncode == 0


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log(f"oftec library sources not found under {ROOT}; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if not step(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
                return False
        jobs = str(os.cpu_count() or 1)
        return step(["cmake", "--build", BUILD, "--target", "oftec_perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S)


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    try:
        if not build():
            log("build failed")
            return 2
        # The library's environment knobs (observability, fault injection,
        # thread count, kernel backend) would change what is measured: the
        # benchmark runs with library defaults and sets obs itself.
        env = {k: v for k, v in os.environ.items() if not k.startswith("OFTEC_")}
        if subprocess.run([BINARY, "--selftest"], cwd=ROOT, env=env,
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=60).returncode != 0:
            log("self-tests failed")
            return 1
        result = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--golden", GOLDEN, "--commit", commit()],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        return result.returncode
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {' '.join(map(str, e.cmd))}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
