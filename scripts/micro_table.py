#!/usr/bin/env python3
"""Prints the EXPERIMENTS.md microbenchmark tables from a micro_perf JSON.

    build/bench/micro_perf --benchmark_out=results/BENCH_micro_perf_all.json \\
        --benchmark_out_format=json
    python3 scripts/micro_table.py results/BENCH_micro_perf_all.json

The first table lists the whole-system rows; the second the candidate
pruning rows at 1000 and 10000 objects with their 1000 -> 10000 ratio.
Every number comes from the JSON; nothing is typed by hand.
"""

import json
import sys

ROWS = [
    ("BM_GraphBuild", "build walking graph (default office)"),
    ("BM_AnchorIndexBuild", "build anchor index"),
    ("BM_ShortestPath", "one-shot network distance (Dijkstra)"),
    ("BM_Resample/64", "systematic resample, 64 particles"),
    ("BM_FilterRun/64", "full filter run (64 particles)"),
    ("BM_SymbolicInfer/30", "symbolic inference (30 s since last reading)"),
    ("BM_RangeQueryEvaluate/2", "range query evaluation (2 % window)"),
    ("BM_KnnQueryEvaluate/3", "kNN evaluation (k=3)"),
    ("BM_EndToEndRangeQuery",
     "end-to-end range query (pruning + inference + eval), 200 objects"),
    ("BM_SimulationStep", "simulation step (200 objects)"),
]

PRUNE = [
    ("BM_PruneRange", "range pruning (2 % window)"),
    ("BM_PruneKnn", "kNN pruning (k=3)"),
    ("BM_PruneIndexRebuild", "one reading + index rebuild"),
]

TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fmt(ns):
    if ns >= 1e6:
        return "%.2f ms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1f µs" % (ns / 1e3)
    return "%.0f ns" % ns


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        data = json.load(f)
    rows = {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        rows[b["name"]] = b

    def ns(name):
        b = rows[name]
        return b["real_time"] * TO_NS[b["time_unit"]]

    print("| operation | time |")
    print("|---|---|")
    for name, label in ROWS:
        print("| %s | %s |" % (label, fmt(ns(name))))
    print()
    print("| operation | 1000 objects | 10000 objects | ratio "
          "| candidates (1000 / 10000) |")
    print("|---|---|---|---|---|")
    for name, label in PRUNE:
        small, large = name + "/1000", name + "/10000"
        cand = "—"
        if "candidates" in rows[small]:
            cand = "%.0f / %.0f" % (rows[small]["candidates"],
                                    rows[large]["candidates"])
        print("| %s | %s | %s | %.1fx | %s |" % (
            label, fmt(ns(small)), fmt(ns(large)), ns(large) / ns(small),
            cand))


if __name__ == "__main__":
    main()
