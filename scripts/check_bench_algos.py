#!/usr/bin/env python3
"""Validates BENCH_algos.json (the algorithm benchmark artifact).

Usage: scripts/check_bench_algos.py BENCH_algos.json

Structural gate for the BM_Algos_ rows, run by run_bench.sh and the CI
bench-smoke job:
  * every expected benchmark row is present with a positive real_time;
  * every CSR row proves the snapshot cache worked — a warm AlgoView is
    reused every iteration (view_hits_in_loop >= iterations) and never
    rebuilt mid-loop (view_builds_in_loop == 0).

The BFS speedup over the seed baseline is printed for the record but
deliberately NOT gated — absolute timings must stay green on slow
single-core CI machines.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import Checker

checker = Checker("check_bench_algos", "BENCH_algos.json")

EXPECTED = [
    "BM_Algos_Bfs_SeqBaseline_LiveJournalSim",
    "BM_Algos_Bfs_LiveJournalSim",
    "BM_Algos_Bfs_SeqBaseline_TwitterSim",
    "BM_Algos_Bfs_TwitterSim",
    "BM_Algos_AlgoViewBuild_TwitterSim",
    "BM_Algos_Diameter_LiveJournalSim",
]

# One BM_Algos_<Algo>_LiveJournalSim row per algorithm ported onto the
# AlgoView CSR.
PORTED_ALGOS = [
    "PageRank",
    "Hits",
    "Triangles",
    "KCore",
    "LabelProp",
    "Louvain",
    "Anf",
    "Betweenness",
]
EXPECTED += [f"BM_Algos_{a}_LiveJournalSim" for a in PORTED_ALGOS]

# Rows that must carry warm-snapshot counters (builds == 0, hits >= iters).
COUNTER_GATED = [
    "BM_Algos_Bfs_LiveJournalSim",
    "BM_Algos_Bfs_TwitterSim",
] + [f"BM_Algos_{a}_LiveJournalSim" for a in PORTED_ALGOS]


def fail(msg):
    checker.fail(msg)


def main():
    rows = checker.load_rows(sys.argv, iteration_only=False)
    for name in EXPECTED:
        checker.require_row(rows, name)

    for name in COUNTER_GATED:
        row = rows[name]
        builds = row.get("view_builds_in_loop")
        hits = row.get("view_hits_in_loop")
        iters = row.get("iterations", 0)
        if builds is None or hits is None:
            fail(f"{name}: missing view_builds_in_loop/view_hits_in_loop "
                 "counters (metrics disabled?)")
        if builds != 0:
            fail(f"{name}: warm AlgoView was rebuilt {builds} time(s) "
                 "inside the timed loop — the snapshot cache is broken")
        if hits < iters:
            fail(f"{name}: only {hits} cache hits for {iters} iterations")

    for sim in ("LiveJournalSim", "TwitterSim"):
        base = rows[f"BM_Algos_Bfs_SeqBaseline_{sim}"]["real_time"]
        new = rows[f"BM_Algos_Bfs_{sim}"]["real_time"]
        print(f"check_bench_algos: {sim} single-source BFS speedup "
              f"vs seed baseline: {base / new:.2f}x "
              f"({base:.3f} -> {new:.3f} "
              f"{rows[f'BM_Algos_Bfs_{sim}'].get('time_unit', 'ms')})")
    checker.ok(f"{len(EXPECTED)} rows")


if __name__ == "__main__":
    main()
