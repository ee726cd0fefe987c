#!/usr/bin/env python3
"""Guards the particle-filter stage kernels against perf regressions.

Compares a freshly produced google-benchmark JSON (micro_perf run with
IPQS_BENCH_JSON or --benchmark_out) against the committed baseline in
results/BENCH_micro_perf.json and fails when any guarded benchmark's
`items_per_second` drops more than --tolerance (default 10%) below the
baseline. Only the filter stage benchmarks (predict / weight / resample /
roughen / snap) are guarded by default: they are single-threaded,
allocation-free after warm-up, and were measured stable enough for a 10%
gate; the whole-system benchmarks drift too much with world size to gate
on.

Faster-than-baseline results pass silently — refresh the baseline by
committing the new JSON when a deliberate optimization lands:

  IPQS_FAST=1 IPQS_BENCH_JSON=results build/bench/micro_perf \\
      --benchmark_filter='BM_(Predict|Weight|Resample|Roughen|Snap)Stage' \\
      --benchmark_min_time=0.5

Usage:
  python3 scripts/check_perf.py --current out/BENCH_micro_perf.json
"""

import argparse
import json
import pathlib
import re
import sys

DEFAULT_GUARDED = r"^BM_(Predict|Weight|Resample|Roughen|Snap)Stage/"


def load_items_per_second(path, pattern):
    data = json.loads(pathlib.Path(path).read_text())
    out = {}
    for row in data.get("benchmarks", []):
        name = row.get("name", "")
        # Skip aggregate rows (mean/median/stddev) of repeated runs.
        if row.get("run_type") == "aggregate":
            continue
        if pattern.search(name) and "items_per_second" in row:
            out[name] = float(row["items_per_second"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="benchmark JSON from this build")
    parser.add_argument("--baseline", default="results/BENCH_micro_perf.json",
                        help="committed baseline JSON")
    parser.add_argument("--benchmarks", default=DEFAULT_GUARDED,
                        help="regex of benchmark names to guard")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative throughput drop (0.10 = 10%%)")
    args = parser.parse_args()

    pattern = re.compile(args.benchmarks)
    baseline = load_items_per_second(args.baseline, pattern)
    current = load_items_per_second(args.current, pattern)

    if not baseline:
        print(f"FAIL: no guarded benchmarks matching {args.benchmarks!r} "
              f"in baseline {args.baseline}")
        return 1

    failures = []
    print(f"{'benchmark':<28} {'baseline':>14} {'current':>14} {'ratio':>7}")
    for name in sorted(baseline):
        base_ips = baseline[name]
        cur_ips = current.get(name)
        if cur_ips is None:
            print(f"{name:<28} {base_ips:>14.3e} {'MISSING':>14}")
            failures.append(f"{name}: missing from current run")
            continue
        ratio = cur_ips / base_ips
        flag = "" if ratio >= 1.0 - args.tolerance else "  <-- REGRESSION"
        print(f"{name:<28} {base_ips:>14.3e} {cur_ips:>14.3e} {ratio:>6.2f}x"
              f"{flag}")
        if ratio < 1.0 - args.tolerance:
            failures.append(
                f"{name}: {cur_ips:.3e} items/s is {(1 - ratio) * 100:.1f}% "
                f"below baseline {base_ips:.3e}")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"{args.tolerance * 100:.0f}% tolerance:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nOK: {len(baseline)} guarded benchmarks within "
          f"{args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
