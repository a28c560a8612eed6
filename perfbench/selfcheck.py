#!/usr/bin/env python3
"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of run.py -- the two BENCHMARK.json gates and the two
kept for attribution by hand -- at minimum size (--size min, --seconds 1),
once uninstrumented and once profiled.  Fails if the result line is
malformed, a metric BENCHMARK.json names is missing, or any cell failed
(error_rate != 0).  Run from the repository root.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402


def check(workload, trace, spec):
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    p = subprocess.run(spec["command"] + ["--workload", workload, "--seed", "1",
                                          "--seconds", "1", "--trace", str(trace),
                                          "--size", "min"],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        return ["exit %d: %s" % (p.returncode, p.stderr.strip()[-400:])]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if sorted(result["metrics"]) != sorted(names):
        problems.append("metrics %s, expected %s"
                        % (sorted(result["metrics"]), sorted(names)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("error_rate != 0: %d of %d cells failed"
                        % (result["failed"], result["attempted"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            print("%-16s trace=%d %s" % (workload, trace,
                                         "ok" if not problems else "FAIL"))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
