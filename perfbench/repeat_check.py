#!/usr/bin/env python3
"""Exact-repeat self-check: two runs with one seed give identical counts.

    python3 perfbench/repeat_check.py [--seed N] [--workload NAME ...]

Run from the repository root. For each workload it runs the benchmark
twice untraced and twice traced with the same seed, and compares the
metrics that come from the simulated device and the enactors' work
counts: device_ms, simt.<prim>.kernel_launches, core.<prim>.iterations
and core.<prim>.edges. They are taken over a fixed number of engine passes,
so they do not depend on --seconds or on the machine; any difference is a
determinism bug. Exits 0 when every pair matches.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("serve-uniform", "serve-churn")
PRIMS = ("bfs", "sssp", "bc", "cc", "pagerank")
EXACT = {0: ["device_ms"],
         1: ["simt.%s.kernel_launches" % p for p in PRIMS] +
            ["core.%s.iterations" % p for p in PRIMS] +
            ["core.%s.edges" % p for p in PRIMS]}


def metrics(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d trace %d failed" % (workload, seed, trace))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    bad = 0
    for w in args.workload or WORKLOADS:
        for trace, names in EXACT.items():
            a = metrics(w, args.seed, trace)
            b = metrics(w, args.seed, trace)
            for n in names:
                same = a[n] == b[n]
                bad += not same
                print("%-14s %-32s %s %r %r" % (w, n, "same" if same else "DIFFERS",
                                               a[n], b[n]))
    print("exact-repeat check: %s" % ("ok" if bad == 0 else "%d differ" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
