#!/usr/bin/env python3
"""Builds and runs the Ringo benchmark; prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload so_workflow --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the library sources in
src/ plus the ringo_perfbench binary) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Untraced runs (--trace 0) report the end-to-end
metrics and run with RINGO_METRICS=off. Traced runs (--trace 1) run the
workload twice: untraced for the reference p50, then traced with
RINGO_METRICS on for the per-layer metrics; the p50 difference is
bench.trace_overhead_frac. The last line of standard output is the result;
provenance (cores, threads, build type, source digest, seed, scale, and the
share of CPU time the host stole during the run) goes on the line before it.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
SPEC = os.path.normpath(os.path.join(HERE, "..", "BENCHMARK.json"))
WORKLOADS = ("so_workflow", "lj_analytics", "serve_rw")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the library sources: identifies the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ringo_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "ringo_perfbench")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is not
    available. On a virtual machine, steal is time the host ran something
    else on our CPUs; runs with much of it are slowed, not the code."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return None


def run_binary(binary, args, metrics_on):
    env = dict(os.environ, RINGO_METRICS="on" if metrics_on else "off")
    before = cpu_ticks()
    r = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    after = cpu_ticks()
    if r.returncode != 0:
        raise SystemExit(f"perfbench: {os.path.basename(binary)} exited "
                         f"with {r.returncode}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        raise SystemExit("perfbench: no result from the benchmark binary")
    res = json.loads(lines[-1])
    if before and after and after[1] > before[1]:
        res["provenance"]["cpu_steal_frac"] = round(
            (after[0] - before[0]) / (after[1] - before[1]), 4)
    return res


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    if not os.path.exists(SPEC):
        return None
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        raise SystemExit(f"perfbench: library sources not found at {SRC}")
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    binary = build(build_dir)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir,
              "--source-digest", source_digest()]
    if args.trace:
        # Untraced reference first, then the traced run; both shorter, as
        # the traced run also sweeps every layer at 1 and `cores` threads.
        part = max(2.0, args.seconds / 2)
        base = run_binary(binary, common + ["--seconds", str(part),
                                            "--trace", "0",
                                            "--setup-reps", "1"], False)
        res = run_binary(binary, common + ["--seconds", str(part),
                                           "--trace", "1",
                                           "--setup-reps", "1"], True)
        untraced = base["metrics"]["p50_ms"]["value"]
        traced = res["provenance"]["traced_p50_ms"]
        res["metrics"]["bench.trace_overhead_frac"] = {
            "value": traced / untraced - 1.0, "unit": "fraction"}
        res["correct"] = res["correct"] and base["correct"]
        res["attempted"] += base["attempted"]
        res["failed"] += base["failed"]
    else:
        res = run_binary(binary, common + ["--seconds", str(args.seconds),
                                           "--trace", "0"], False)

    want = expected_metrics(args.trace)
    if want is not None:
        missing = [m for m in want if m not in res["metrics"]]
        if missing:
            raise SystemExit(f"perfbench: metrics missing: {missing}")
        res["metrics"] = {m: res["metrics"][m] for m in want}

    print("perfbench provenance: " + json.dumps(res["provenance"]))
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
