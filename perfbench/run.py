#!/usr/bin/env python3
"""Run one workload of the cwcsim repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The script builds the cwcsim library and
the benchmark program from the checkout's sources into .bench_build/perfbench
(CMake, Release, baseline ISA), then makes one timed run (--trace 0: the
end-to-end metrics, tracing off) or one traced run (--trace 1: the
per-layer metrics, plus a Chrome trace_event file in the build directory).
The last line of standard output is the run's JSON result; its metric
names are checked against BENCHMARK.json. Without the sources, or when the
build or the run fails, it exits non-zero and prints no result.

--selftest builds and runs the benchmark's own tests (perfbench/tests) and
validates the span file they write.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"cwcsim sources not found under {ROOT}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / target


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}", 3)
    missing = set(declared_metrics(trace)) ^ set(result["metrics"])
    if missing:
        fail(f"result metrics differ from BENCHMARK.json: {sorted(missing)}", 3)


def check_span_file(path):
    doc = json.loads(Path(path).read_text())
    if set(doc) != {"traceEvents", "displayTimeUnit"}:
        fail(f"span file keys: {sorted(doc)}", 1)
    events = doc["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    for e in events:
        if set(e) != {"name", "ph", "ts", "dur", "pid", "tid", "args"} or e["ph"] != "X":
            fail(f"span event fields: {e}", 1)
        if set(e["args"]) != {"id", "parent", "request"} or e["dur"] < 0:
            fail(f"span event args: {e}", 1)
        if e["args"]["parent"] != -1 and e["args"]["parent"] not in ids:
            fail(f"span parent missing: {e}", 1)
    if len(ids) != len(events) or not events:
        fail("span ids are not unique, or no spans", 1)
    print(f"span file schema ok: {len(events)} spans")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        exe = build("perfbench_selftest")
        span_file = BUILD / "selftest_trace.json"
        code = subprocess.run([str(exe), str(span_file)], timeout=600).returncode
        if code != 0:
            fail("selftest failed", code)
        check_span_file(span_file)
        return

    if not args.workload:
        fail("--workload is required")
    exe = build("perfbench_run")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--build-info", str(BUILD / "build_info.json"),
           "--trace-file", str(BUILD / f"trace_{args.workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        print(proc.stdout, end="")
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    check_result(proc.stdout.rstrip("\n").split("\n")[-1], args.trace)
    print(proc.stdout, end="")


if __name__ == "__main__":
    main()
