#!/usr/bin/env python3
"""Per-bench deltas between two BENCH_engine.json micro-benchmark records.

Diffs a current record against a base record, both written by
bench/run_benches.sh, and prints one line per benchmark:

    bench                     base ns        cur ns    noise ns  delta
    bm_cwc_step_neurospora      175.1         209.9        77.3   +19.9%
    ...

Usage:
    bench/trend.py BASE.json CURRENT.json

Each row of a record carries the median of its repetitions and their
interquartile range (the noise estimate). A row is flagged only when its
median moved by more than K times the larger of the two rows' noise
estimates; the report ends with "verdict: PASS" when no row got slower by
that much, and "verdict: REGRESSED (...)" naming the rows that did. The
exit code stays 0 either way: the verdict is informational.

K is fixed, from four back-to-back records of one build at each of
--benchmark_min_time 0.5 and 0.05 (5 repetitions, baseline ISA, 4 shared
vCPU): across all six pairs of each set, no row moved by more than 3.5
(0.5) or 4.4 (0.05) times its noise. K = 6 clears both, and still flags a
low-noise row whose median grew 1.5x.

ISA guard: both records carry a "toolchain" block. When the two were
built for different ISAs (toolchain.march differs, e.g. a
-DCWCSIM_NATIVE=ON build against a baseline-ISA build), the numbers
measure different machine code, so the diff is refused outright:
"verdict: SKIPPED (ISA mismatch ...)", exit 0, no per-bench rows.
"""

import json
import sys

K = 6.0


def load(path):
    """(toolchain dict, bench name -> (median ns, noise ns)) of a record."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "repetitions" not in doc:
        return doc.get("toolchain", {}), None
    return doc.get("toolchain", {}), {
        r["bench"]: (r["median_ns"], r["iqr_ns"]) for r in doc["results"]
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bench/trend.py BASE.json CURRENT.json", file=sys.stderr)
        return 2
    base_tc, base = load(argv[1])
    cur_tc, cur = load(argv[2])

    b_march = base_tc.get("march", "unknown")
    c_march = cur_tc.get("march", "unknown")
    if b_march != c_march:
        print(f"base ISA:      {b_march} ({base_tc.get('compiler', '?')})")
        print(f"current ISA:   {c_march} ({cur_tc.get('compiler', '?')})")
        print("verdict: SKIPPED (ISA mismatch — benchmark numbers from "
              "different -march targets are not comparable; rerun both "
              "sides under the same CWCSIM_NATIVE setting to diff)")
        return 0
    for path, rows in ((argv[1], base), (argv[2], cur)):
        if rows is None:
            print(f"verdict: SKIPPED ({path} has no repetitions, so no noise "
                  "estimate; regenerate it with bench/run_benches.sh)")
            return 0

    names = list(base) + [n for n in cur if n not in base]
    width = max((len(n) for n in names), default=5)
    print(f"benchmark trend, {argv[1]} -> {argv[2]} (median real time per "
          f"op; flagged when |delta| > {K:g} x noise)")
    print(f"{'bench':<{width}}  {'base ns':>12}  {'cur ns':>12}  "
          f"{'noise ns':>10}  delta")
    regressed = []
    for name in names:
        if name not in base:
            print(f"{name:<{width}}  {'':>12}  {cur[name][0]:12.1f}  "
                  f"{'':>10}  NEW")
            continue
        if name not in cur:
            print(f"{name:<{width}}  {base[name][0]:12.1f}  {'':>12}  "
                  f"{'':>10}  REMOVED")
            continue
        (b, b_noise), (c, c_noise) = base[name], cur[name]
        noise = max(b_noise, c_noise)
        delta = (c - b) / b * 100.0 if b else 0.0
        mark = ""
        if abs(c - b) > K * noise:
            mark = "  ** slower **" if c > b else "  (faster)"
            if c > b:
                regressed.append((name, delta))
        print(f"{name:<{width}}  {b:12.1f}  {c:12.1f}  {noise:10.1f}  "
              f"{delta:+6.1f}%{mark}")
    if regressed:
        worst = ", ".join(f"{n} +{d:.1f}%" for n, d in regressed)
        print(f"verdict: REGRESSED (slower by > {K:g} x noise: {worst})")
    else:
        print(f"verdict: PASS (no bench slower by > {K:g} x noise)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
