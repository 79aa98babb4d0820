#!/usr/bin/env sh
# Micro-benchmark record: runs the google-benchmark suites (micro_engine,
# micro_ff) with repetitions and writes BENCH_engine.json at the repo root,
# one row per benchmark with its median and a noise estimate. This is the
# per-kernel record; perfbench/ is the end-to-end benchmark.
#
# Usage:
#   ./bench/run_benches.sh [build-dir] [min-time]
#
#   build-dir  build tree containing bench/ binaries   (default: build)
#   min-time   google-benchmark --benchmark_min_time   (default: 0.5)
#
# Every benchmark runs REPS times, each time in a fresh process of its
# suite, one whole suite after the other. State that is fixed for the life
# of a process (thread placement, allocator layout, the iteration count
# google-benchmark settles on) moves a row's time from process to process,
# so repetitions inside one process would understate the noise.
#
# BENCH_engine.json schema: a JSON object
#   {
#     "generated_by": "bench/run_benches.sh",
#     "min_time": "<min-time>",
#     "repetitions": REPS,
#     "toolchain": {"compiler": str, "build_type": str, "cxx_flags": str,
#                   "march": str, "native_option": str},
#     "results": [ {"bench": str,
#                   "median_ns": num,          real time per iteration
#                   "iqr_ns": num,             its interquartile range
#                   "items_per_sec": num|null, median over repetitions
#                   "samples_ns": [num, ...]}, one per repetition
#                  ... ]
#   }
# The toolchain block is the build dir's build_info.json (written at CMake
# configure time): numbers only mean something relative to the compiler,
# flags and ISA that produced them, and bench/trend.py refuses to diff
# across different ISAs.
#
# Comparing two commits: build both, run this script on each build tree
# (moving the first BENCH_engine.json aside), then
#   bench/trend.py base.json BENCH_engine.json
# CI's non-gating bench-smoke job does exactly that for a PR's base and
# head on one runner.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_TIME="${2:-0.5}"
REPS=5
OUT="BENCH_engine.json"

for b in micro_engine micro_ff; do
  if [ ! -x "$BUILD_DIR/bench/$b" ]; then
    echo "error: $BUILD_DIR/bench/$b not built" >&2
    echo "hint: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    echo "      (micro benchmarks need libbenchmark-dev installed)" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for rep in $(seq "$REPS"); do
  for b in micro_engine micro_ff; do
    "$BUILD_DIR/bench/$b" \
      --benchmark_format=json \
      --benchmark_min_time="${MIN_TIME}" > "$TMP/$b.$rep.json"
  done
done

python3 - "$TMP" "$MIN_TIME" "$REPS" "$OUT" "$BUILD_DIR" <<'PY'
import json
import pathlib
import statistics
import sys

tmp, min_time, reps, out = (pathlib.Path(sys.argv[1]), sys.argv[2],
                            int(sys.argv[3]), sys.argv[4])
build_dir = pathlib.Path(sys.argv[5])
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# One list of repetitions per benchmark, in declaration order.
runs = {}
for suite, name in enumerate(("micro_engine", "micro_ff")):
    for rep in range(1, reps + 1):
        doc = json.loads((tmp / f"{name}.{rep}.json").read_text())
        for b in doc["benchmarks"]:
            key = (suite, b["family_index"], b["per_family_instance_index"])
            runs.setdefault(key, []).append(b)

results = []
for _, reps_seen in sorted(runs.items()):
    bench = reps_seen[0]["run_name"]
    if len(reps_seen) != reps:
        sys.exit(f"error: {bench} ran {len(reps_seen)} of {reps} repetitions")
    times = [b["real_time"] * UNIT_NS[b.get("time_unit", "ns")]
             for b in reps_seen]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    items = [b["items_per_second"] for b in reps_seen
             if "items_per_second" in b]
    results.append({
        "bench": bench,
        "median_ns": median,
        "iqr_ns": q3 - q1,
        "items_per_sec": statistics.median(items) if items else None,
        "samples_ns": times,
    })

# Toolchain record from the CMake configure (compiler, flags, -march): the
# provenance trend.py keys ISA comparability off. An old build tree without
# build_info.json degrades to an "unknown" record, never an error.
info = build_dir / "build_info.json"
try:
    toolchain = json.loads(info.read_text())
except (OSError, ValueError):
    toolchain = {"compiler": "unknown", "build_type": "unknown",
                 "cxx_flags": "", "march": "unknown", "native_option": ""}

doc = {
    "generated_by": "bench/run_benches.sh",
    "min_time": min_time,
    "repetitions": reps,
    "toolchain": toolchain,
    "results": results,
}
pathlib.Path(out).write_text(json.dumps(doc, indent=2) + "\n")
print(f"wrote {out} ({len(results)} benchmarks x {reps} repetitions)")
PY
