#!/usr/bin/env python3
"""Validates an exported Ringo span tree (Chrome trace_event JSON).

Usage: scripts/check_trace.py BENCH_conversions_trace.json

Structural gate for the observability layer, run by run_bench.sh and the
CI bench-smoke job: asserts the export is well-formed trace_event JSON and
that the TableToGraph and TableToUndirectedGraph conversions recorded their
root spans (with rows / nodes / edges and the rss_delta_kb / minflt memory
attributes) plus the extract / sort / count / fill phase children. Timings
are deliberately NOT checked — this must stay green on slow CI machines.
"""
import json
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <trace.json>")
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top-level object must contain 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("'traceEvents' must be a non-empty array")

    # Every event is a complete ("X") event with the fields the Chrome /
    # Perfetto importers require.
    for i, ev in enumerate(events):
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in ev:
                fail(f"event {i} missing '{key}': {ev}")
        if ev["ph"] != "X":
            fail(f"event {i} has ph={ev['ph']!r}, expected 'X'")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"event {i} has bad ts: {ev['ts']!r}")
        if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
            fail(f"event {i} has bad dur: {ev['dur']!r}")

    names = {ev["name"] for ev in events}
    roots = ("TableToGraph", "TableToUndirectedGraph")
    phases = ("extract", "sort", "count", "fill")
    required = list(roots) + [f"{r}/{p}" for r in roots for p in phases]
    missing = [n for n in required if n not in names]
    if missing:
        fail(f"missing spans {missing}; recorded names: {sorted(names)}")

    # Each conversion root span must carry its size attributes, its
    # resident-memory change and its minor page faults.
    for name in roots:
        root = next(ev for ev in events if ev["name"] == name)
        args = root.get("args", {})
        for key in ("rows", "nodes", "edges", "rss_delta_kb", "minflt"):
            if key not in args:
                fail(f"{name} span lacks args['{key}']: {args}")

    print(
        f"check_trace: OK: {len(events)} events, {len(names)} distinct "
        f"spans, TableToGraph and TableToUndirectedGraph phases present"
    )


if __name__ == "__main__":
    main()
