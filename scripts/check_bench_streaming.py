#!/usr/bin/env python3
"""Validates BENCH_streaming.json (the batched-update benchmark artifact).

Usage: scripts/check_bench_streaming.py BENCH_streaming.json

Gate for the BM_Streaming_ rows, run by run_bench.sh and the CI
bench-smoke job. Structural checks always apply:
  * every expected row is present with a positive real_time and carries
    the delta-CSR counters (metrics must be on in the bench binary);
  * Delta rows never fall back to a full snapshot rebuild inside the
    timed loop (builds_in_loop == 0) — the journal covered every batch;
  * Rebuild rows (the deltacsr-disabled oracle arm) never delta-patch
    and rebuild once per batch (builds_in_loop >= iterations);
  * hotspot Delta rows stay under the compaction threshold the whole
    run (compactions_in_loop == 0, delta_fraction < 0.15) — the patch
    overlay absorbs a skewed update stream indefinitely;
  * the uniform Delta row DOES compact (compactions_in_loop > 0) — a
    spread-out stream must trip the compaction policy, proving the
    delta path degrades to rebuild-equivalent work instead of letting
    the overlay grow without bound.

The headline perf gate — hotspot delta-vs-rebuild update-to-query
latency ratio >= 5x at a 1% batch size — only applies when the rows
were produced at bench_scale >= 0.3 (the committed artifact, produced
by run_bench.sh at the dedicated streaming scale). Below that the
whole graph is cache-resident and the rebuild arm is flattered into a
ratio that says nothing about big-memory workloads, so smoke runs at
tiny scales check structure only. Ratios are printed either way for
the before/after record in EXPERIMENTS.md.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import Checker

checker = Checker("check_bench_streaming", "BENCH_streaming.json")

# The directed hotspot pair carries the gated ratio; the other pairs are
# informational (undirected coverage, query-in-loop coverage, and the
# uniform pair that exists to exercise the compaction policy).
GATED_PAIR = ("BM_Streaming_Delta_Hotspot_LiveJournalSim",
              "BM_Streaming_Rebuild_Hotspot_LiveJournalSim")
PAIRS = [
    GATED_PAIR,
    ("BM_Streaming_Delta_Uniform_LiveJournalSim",
     "BM_Streaming_Rebuild_Uniform_LiveJournalSim"),
    ("BM_Streaming_Delta_Hotspot_UndirectedLiveJournalSim",
     "BM_Streaming_Rebuild_Hotspot_UndirectedLiveJournalSim"),
    ("BM_Streaming_DeltaWithQuery_Hotspot_LiveJournalSim",
     "BM_Streaming_RebuildWithQuery_Hotspot_LiveJournalSim"),
]
EXPECTED = [name for pair in PAIRS for name in pair]

COUNTERS = ["batch_edges", "bench_scale", "builds_in_loop",
            "compactions_in_loop", "delta_applies_in_loop",
            "delta_fraction", "updates_per_sec"]

# Must match deltacsr::CompactionFraction (src/algo/algo_view.cc).
COMPACTION_FRACTION = 0.15

RATIO_GATE = 5.0
RATIO_GATE_MIN_SCALE = 0.3


def fail(msg):
    checker.fail(msg)


def main():
    rows = checker.load_rows(sys.argv, iteration_only=False)
    for name in EXPECTED:
        checker.require_counters(checker.require_row(rows, name), COUNTERS)

    for name in EXPECTED:
        row = rows[name]
        iters = row.get("iterations", 0)
        if "Delta" in name:
            if row["builds_in_loop"] != 0:
                fail(f"{name}: {row['builds_in_loop']} full rebuild(s) in "
                     "the timed loop — the delta journal failed to cover a "
                     "batched mutation")
            if row["delta_applies_in_loop"] + row["compactions_in_loop"] \
                    < iters:
                fail(f"{name}: only "
                     f"{row['delta_applies_in_loop']} delta applies + "
                     f"{row['compactions_in_loop']} compactions for "
                     f"{iters} iterations")
        else:
            if row["delta_applies_in_loop"] != 0:
                fail(f"{name}: rebuild arm delta-patched "
                     f"{row['delta_applies_in_loop']} time(s) — the "
                     "deltacsr kill switch is broken")
            if row["builds_in_loop"] < iters:
                fail(f"{name}: only {row['builds_in_loop']} rebuilds for "
                     f"{iters} iterations")
        if "Delta" in name and "Hotspot" in name:
            if row["compactions_in_loop"] != 0:
                fail(f"{name}: hotspot stream compacted "
                     f"{row['compactions_in_loop']} time(s) — the patch "
                     "overlay should absorb a skewed stream indefinitely")
            if row["delta_fraction"] >= COMPACTION_FRACTION:
                fail(f"{name}: delta_fraction {row['delta_fraction']:.3f} "
                     f">= compaction threshold {COMPACTION_FRACTION}")
        if name == "BM_Streaming_Delta_Uniform_LiveJournalSim":
            if row["compactions_in_loop"] <= 0:
                fail(f"{name}: uniform stream never compacted — the "
                     "compaction policy is not engaging")

    scale = rows[GATED_PAIR[0]]["bench_scale"]
    for delta_name, rebuild_name in PAIRS:
        delta = rows[delta_name]["real_time"]
        rebuild = rows[rebuild_name]["real_time"]
        unit = rows[delta_name].get("time_unit", "ms")
        gated = (delta_name, rebuild_name) == GATED_PAIR \
            and scale >= RATIO_GATE_MIN_SCALE
        tag = "gated" if gated else "info"
        print(f"check_bench_streaming: {delta_name.removeprefix('BM_Streaming_')} "
              f"update-to-query speedup vs rebuild-per-batch: "
              f"{rebuild / delta:.2f}x ({rebuild:.3f} -> {delta:.3f} {unit}) "
              f"[{tag}]")
        if gated and rebuild / delta < RATIO_GATE:
            fail(f"{delta_name}: update-to-query speedup "
                 f"{rebuild / delta:.2f}x < {RATIO_GATE}x gate at "
                 f"bench_scale {scale}")
    if scale < RATIO_GATE_MIN_SCALE:
        print(f"check_bench_streaming: ratio gate skipped "
              f"(bench_scale {scale} < {RATIO_GATE_MIN_SCALE})")
    checker.ok(f"{len(EXPECTED)} rows")


if __name__ == "__main__":
    main()
