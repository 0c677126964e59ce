#!/usr/bin/env python3
"""Runs one workload of the DISC benchmark.

    python3 perfbench/run.py --workload <suite_data|serve_sim|compile_suite>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds perfbench/ (a CMake project
that compiles the checkout's src/ tree) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the benchmark binary, forwards its
report, and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics;
a per-layer metric the workload does not exercise reads 0. Exits non-zero
when the build fails, a metric is missing, or any operation failed or
gave a wrong output; a failed run still prints the result line.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_TAG = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "perfbench_disc"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_disc")


def select_metrics(spec_metrics, measured, trace, complete):
    """Picks the spec's metrics from the binary's result. A failed run
    (complete false) may stop before measuring some; they are left out."""
    selected = {}
    for spec in spec_metrics:
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None and trace:
            got = {"value": 0.0, "unit": unit}
        if (got is None or got["value"] is None) and not complete:
            continue
        if got is None or got["value"] is None:
            fail("metric %s was not measured" % name)
        if got["unit"] != unit:
            fail("metric %s has unit %s, expected %s" % (name, got["unit"], unit))
        selected[name] = {"value": got["value"], "unit": unit}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        fail("the benchmark binary exited with %d and no result" % proc.returncode)

    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = proc.returncode == 0 and result["failed"] == 0
    metrics = select_metrics(spec_metrics, result["metrics"], args.trace,
                             correct)
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
