#!/usr/bin/env python3
"""Build and run the whole-stack benchmark.

Run from the root of an ltp source tree:

    python3 perfbench/run.py --workload mlp_sweep --seed 1 --seconds 30 --trace 0

The benchmark binary (perfbench/src, linked against the tree's own
ltp_core) is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then run with the same arguments.  Its last
stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  Stamped results and traces land in .bench_out/.  The exit
code is the binary's: 0 only when every output check passed.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark binary; build output to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", "perfbench", "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)


def git_commit():
    """HEAD of this checkout, without looking above it."""
    if not os.path.exists(".git"):
        return "unknown"
    env = dict(os.environ, GIT_DIR=os.path.abspath(".git"))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--small", action="store_true",
                    help="smoke-test sizes")
    ap.add_argument("--tamper", action="store_true",
                    help="corrupt the served grid (smoke test)")
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("perfbench")):
        log("run from the root of an ltp source tree "
            "(CMakeLists.txt, src/ and perfbench/ are needed)")
        return 2

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-commit", git_commit()]
    if args.small:
        cmd.append("--small")
    if args.tamper:
        cmd.append("--tamper")
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=args.seconds * 2 + 60)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
