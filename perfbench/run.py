#!/usr/bin/env python3
"""ilat benchmark: four workloads, headline numbers with the profiler off.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|min]

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the benchmark driver plus the `ilat` CLI) into
.bench_build/perfbench; later runs only re-check the build.

The workload's inputs (a campaign spec) are generated from --seed.  The
driver binary is launched once per repetition until --seconds have passed
(and at least a workload-specific minimum of repetitions ran), so set-up
time and peak RSS are measured per process.

--trace 0 prints the end-to-end metrics of an uninstrumented run.
--trace 1 runs the workload twice -- once uninstrumented, once with the
host profiler installed -- and prints the per-layer metrics of the
instrumented half plus its overhead against the uninstrumented half.

Human-readable results go to stdout first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "ilat_perfbench")
ILAT = os.path.join(BUILD_DIR, "ilat", "tools", "ilat")

# The default seed, and a held-out seed not used while the benchmark or a
# change measured with it was tuned: re-check claims on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

# Campaign workers for the campaign workloads: a closed loop of JOBS
# workers in one process, each starting its next cell only when the
# previous one finished.
JOBS = 2

# Per workload: the spec template ({seed} is the benchmark seed, {n} the
# size), the size at --size full and --size min, worker count, and the
# minimum repetitions per measured pass.
WORKLOADS = {
    "paper_matrix": {
        "spec": "name = paper_matrix\nos = nt351, nt40, win95\n"
                "app = notepad, word, powerpoint\nseeds = {n}\nseed = {seed}\n",
        "full": 12, "min": 1, "jobs": JOBS, "min_reps": 5,
    },
    "server_sweep": {
        "spec": "name = server_sweep\nos = nt40\napp = server\nseeds = {n}\n"
                "seed = {seed}\nparams.requests = 50\n"
                "sweep.params.pool_size = 1, 2, 4, 8\n"
                "sweep.params.users = 16, 32, 64, 128, 256\n",
        "full": 5, "min": 1, "jobs": JOBS, "min_reps": 5,
    },
    "journal_resume": {
        "spec": "name = journal_resume\nos = nt40\napp = pipeline\nseeds = {n}\n"
                "seed = {seed}\nparams.media_frames = 60\n",
        "full": 300, "min": 4, "jobs": JOBS, "min_reps": 5,
    },
    "traced_word": {
        "spec": "name = traced_word\nos = nt40\napp = word\nseeds = {n}\nseed = {seed}\n",
        "full": 8, "min": 1, "jobs": 1, "min_reps": 5,
    },
}

# Probes of obs::HostProfiler reported per layer, as <probe>.count/.ms.
PROBES = [
    "session.setup", "sim.run", "queue.push", "queue.pop", "sched.dispatch",
    "idle.tick", "trace.emit", "app.message", "metrics.snapshot", "trace.take",
    "extract.events", "server.request", "server.user",
]

# Tail percentile: the highest of these with >= 10 samples beyond it.
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def percentile(values, p):
    """Linear interpolation between closest ranks, p in [0, 100]."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def sample_stats(values):
    """count, min, max, median, mean, stddev, p05, p95."""
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "stddev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "p05": percentile(values, 5),
        "p95": percentile(values, 95),
    }


def tail_percentile(samples_basis):
    for p in TAIL_LADDER:
        if samples_basis * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no ilat sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "ilat_perfbench", "ilat"],
                   check=True, stdout=sys.stderr, env=env)


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def run_reps(name, spec_path, work_dir, jobs, trace, budget_s, min_reps):
    """Launch the driver until budget_s passed and min_reps ran."""
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < budget_s:
        cmd = [DRIVER, "--workload=" + name, "--spec=" + spec_path,
               "--work=" + work_dir, "--jobs=%d" % jobs]
        if trace:
            cmd.append("--trace")
        cmd.append("--t0-ns=%d" % time.monotonic_ns())
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if p.returncode != 0:
            raise BenchError("driver failed (exit %d): %s"
                             % (p.returncode, p.stderr.strip()))
        reps.append(json.loads(p.stdout.strip().splitlines()[-1]))
    return reps


def ilat_digest(spec_path, work_dir, jobs):
    """FNV-1a of the aggregate `ilat --campaign` writes for the spec."""
    out = os.path.join(work_dir, "ilat_out")
    p = subprocess.run([ILAT, "--campaign=" + spec_path, "--jobs=%d" % jobs,
                        "--campaign-out=" + out],
                       capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise BenchError("ilat --campaign failed (exit %d)" % p.returncode)
    with open(os.path.join(out, "aggregate.json"), "rb") as f:
        return fnv1a(f.read())


def cell_percentiles(reps, min_reps):
    """Median and tail per-cell wall time, and a note on how they were taken.

    A repetition of >= 20 cells gets its own percentiles, and the median
    over repetitions is reported: one repetition hit by host noise does
    not move it.  Smaller repetitions (traced_word) are pooled over the
    run, with the tail percentile fixed by the guaranteed sample count so
    it is the same percentile on every run.
    """
    per_rep = reps[0]["cells"]
    if per_rep >= 20:
        p = tail_percentile(per_rep)
        p50 = statistics.median(percentile(r["cell_ms"], 50) for r in reps)
        tail = statistics.median(percentile(r["cell_ms"], p) for r in reps)
        note = ("p%g per repetition of %d cells (%d beyond), median over %d repetitions"
                % (p, per_rep, int(per_rep * (100 - p) / 100), len(reps)))
        return p50, tail, note
    pooled = [ms for r in reps for ms in r["cell_ms"]]
    p = tail_percentile(per_rep * min_reps)
    tail = percentile(pooled, p)
    note = ("p%g over %d pooled cells (%d beyond)"
            % (p, len(pooled), sum(1 for ms in pooled if ms > tail)))
    return percentile(pooled, 50), tail, note


def headline_metrics(reps, min_reps):
    """End-to-end metrics of uninstrumented repetitions."""
    p50, tail, note = cell_percentiles(reps, min_reps)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "cells_per_s": (statistics.median(r["cells"] / r["window_s"] for r in reps), "1/s"),
        "sim_ms_per_s": (statistics.median(r["sim_ms"] / r["window_s"] for r in reps),
                         "ms/s"),
        "cell_ms_p50": (p50, "ms"),
        "cell_ms_tail": (tail, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }, note


def layer_metrics(name, headline, traced):
    """Per-layer metrics of instrumented repetitions (None = absent)."""
    def med(f):
        return statistics.median(f(r) for r in traced)

    campaign = name != "traced_word"
    journaled = name == "journal_resume"
    m = {}
    for probe in PROBES:
        m[probe + ".count"] = (med(lambda r: r["probes"][probe]["count"]), "count")
        m[probe + ".ms"] = (med(lambda r: r["probes"][probe]["ms"]), "ms")
    m["sim.run.self_ms"] = (med(lambda r: r["probes"]["sim.run"]["ms"] - sum(
        p["ms"] for p in r["probes"].values() if p["nested"])), "ms")

    def span(key, applies):
        return (med(lambda r: r["spans_ms"].get(key, 0.0)) if applies else None, "ms")

    m["campaign.journal_add.ms"] = span("campaign.journal_add", journaled)
    m["campaign.write_bytes_per_cell"] = (
        med(lambda r: r["write_bytes"] / r["cells"]) if journaled else None, "B/cell")
    m["campaign.load_journal.ms"] = span("campaign.load_journal", journaled)
    m["campaign.replay.ms"] = span("campaign.replay", journaled)
    m["campaign.fold.us_p50"] = (
        med(lambda r: percentile(r["fold_us"], 50)) if campaign else None, "us")
    m["campaign.render.ms"] = span("campaign.render", campaign)
    m["campaign.worker_busy_frac"] = (med(lambda r: r["busy_frac"]) if campaign else None,
                                      "fraction")
    m["trace.chrome_json.ms"] = span("trace.chrome_json", name == "traced_word")
    plain = statistics.median(r["window_s"] for r in headline)
    m["obs.profiler_overhead_pct"] = (
        100.0 * (statistics.median(r["window_s"] for r in traced) / plain - 1.0), "%")
    return m


def extra_metrics(name, reps, attempted, failed):
    """Headline numbers that apply to one workload only."""
    return {
        "resume_s": (statistics.median(r["resume_s"] for r in reps)
                     if name == "journal_resume" else None, "s"),
        "trace_bytes_per_cell": (statistics.median(r["trace_bytes"] / r["cells"] for r in reps)
                                 if name == "traced_word" else None, "B/cell"),
        "error_rate": (failed / attempted, "ratio"),
    }


def print_metrics(title, metrics):
    print(title)
    for key, (value, unit) in metrics.items():
        shown = "absent" if value is None else "%.6g %s" % (value, unit)
        print("  %-32s %s" % (key, shown))


def print_rep_summary(reps):
    rows = {
        "setup_s": [r["setup_s"] for r in reps],
        "window_s": [r["window_s"] for r in reps],
        "cells_per_s": [r["cells"] / r["window_s"] for r in reps],
        "sim_ms_per_s": [r["sim_ms"] / r["window_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    keys = ["count", "min", "max", "median", "mean", "stddev", "p05", "p95"]
    print("per-repetition summary:")
    print("  %-14s" % "metric" + "".join("%12s" % k for k in keys))
    for metric, values in rows.items():
        st = sample_stats(values)
        print("  %-14s" % metric + "".join("%12.6g" % st[k] for k in keys))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "min"], default="full")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    wl = WORKLOADS[args.workload]
    try:
        build()
    except (subprocess.CalledProcessError, OSError, BenchError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work_dir = os.path.join(BUILD_DIR, "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    spec_path = os.path.join(work_dir, "spec.txt")
    with open(spec_path, "w") as f:
        f.write(wl["spec"].format(seed=args.seed, n=wl[args.size]))
    jobs = min(wl["jobs"], os.cpu_count() or 1)
    # --trace 1 splits the time and the minimum between its two halves.
    min_reps = wl["min_reps"] if args.size == "full" else 1
    if args.trace:
        min_reps = max(1, min_reps // 2)
    budget_s = args.seconds / (2 if args.trace else 1)

    try:
        headline = run_reps(args.workload, spec_path, work_dir, jobs, False, budget_s,
                            min_reps)
        traced = (run_reps(args.workload, spec_path, work_dir, jobs, True, budget_s,
                           min_reps) if args.trace else [])
        reps = headline + traced
        reference = (ilat_digest(spec_path, work_dir, jobs)
                     if args.workload != "traced_word" else reps[0]["digest"])
    except (subprocess.SubprocessError, OSError, ValueError, IndexError, BenchError) as e:
        log("perfbench: %s" % e)
        return 1

    # A cell fails if it errors, is quarantined, or its repetition's digest
    # differs from the reference (ilat --campaign, or the first traced_word
    # repetition, whose events were checked against untraced sessions).
    attempted = sum(r["cells"] for r in reps)
    failed = sum(r["cells"] if r["digest"] != reference else r["failed"] for r in reps)

    cells_per_rep = reps[0]["cells"]
    print("perfbench %s: seed=%d (default %d, held-out %d) seconds=%g trace=%d size=%s"
          % (args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED, args.seconds,
             args.trace, args.size))
    print("stamp: git_sha=%s nproc=%d jobs=%d build_type=%s repetitions=%d "
          "(%d uninstrumented, %d profiled) cells_per_rep=%d"
          % (git_sha(), os.cpu_count() or 0, jobs, build_type(), len(reps), len(headline),
             len(traced), cells_per_rep))
    print("sim_digest: %s (%s)" % (
        reference, "reference: ilat --campaign aggregate.json"
        if args.workload != "traced_word" else "events of the first repetition"))
    e2e, tail_note = headline_metrics(headline, min_reps)
    print_metrics("end-to-end (profiler off; cell_ms_tail = %s)" % tail_note, e2e)
    extra = extra_metrics(args.workload, headline, attempted, failed)
    print_metrics("workload-specific:", extra)
    print_rep_summary(headline)

    if args.trace:
        layers = layer_metrics(args.workload, headline, traced)
        layers.update(extra)
        print_metrics("per-layer (profiled repetitions; for attribution only):", layers)
        metrics = layers
    else:
        metrics = e2e

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": 0 if v is None else v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
