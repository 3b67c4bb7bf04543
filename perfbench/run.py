#!/usr/bin/env python3
"""Runs one workload of the SigRec repository benchmark.

    python3 perfbench/run.py --workload scan_unique --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the benchmark (and the SigRec
libraries it measures, from ../src) in an optimized configuration under
$CARGO_TARGET_DIR (default .bench_build), runs the workload, and passes the
program's output through: human-readable lines, then one JSON object as the
last line of standard output. The exit code is 0 only when the build
succeeded and every correctness check of the run passed. Everything the run
writes stays under the build directory and is removed when it ends, except
the span dump of a traced run.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan_unique", "scan_clones", "lookup_mixed")
# One run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then rebuilds incrementally. Build output goes to
    stderr so the last line of stdout stays the result."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "sigrec_perfbench", "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "sigrec_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few dozen contracts")
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="self-test: falsify one expected answer; the run must fail")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    run_dir = os.path.join(root, "perfbench-run", f"{args.workload}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    if args.trace:
        spans_dir = os.path.join(root, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_answer:
        cmd.append("--corrupt-answer")
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        return subprocess.run(cmd, timeout=max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
                              ).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
