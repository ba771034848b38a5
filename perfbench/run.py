#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
perfbench binary (Release) under $CARGO_TARGET_DIR, default .bench_build;
later calls only check that it is up to date. The binary prints the result
object as the last line of stdout; this script passes it through and exits
with the binary's code. Records (environment stamp, serving detail, metrics)
and, with --trace 1, the span log are written under <build dir>/records.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("serve-uniform", "serve-churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_hash(root):
    """Content hash of everything the binary is built from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "compat", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(root, build_dir):
    """Configure once, then bring the binary up to date. Serialized by a
    lock so concurrent runs in one checkout never build over each other."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", "4"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        log("run from the repository root")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 1

    records = os.path.join(build_dir, "records")
    os.makedirs(records, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", records, "--git-sha", git_sha(root),
           "--src-hash", source_hash(root)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        # Diagnostics only: a failed run prints no result line.
        sys.stderr.write(proc.stdout)
        log("benchmark failed with code %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
