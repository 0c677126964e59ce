#!/usr/bin/env python3
"""Determinism self-check of the DISC benchmark.

    python3 perfbench/test_determinism.py [--seed N] [--workload NAME ...]

Runs each workload twice with the same seed (traced, short runs) and checks
that every simulated-clock metric and every count metric is identical
across the two runs. These come from fixed, seeded parts of a run (count
rounds, the first serving round), so they must not depend on how long the
run lasted or on the wall clock. Exits 1 on any difference.

One metric is compared with a tolerance instead: compiler.heap_allocs.
DiscCompiler::Compile formats its pipeline summary, which holds wall-clock
pass timings, even when no dump is requested, so the number of string
allocations per Compile moves by a few with the timings.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("suite_data", "serve_sim", "compile_suite")
# Deterministic metrics that are neither counts nor simulated times.
EXACT_RATIOS = {"runtime.plan_hit_ratio", "serving.padding_waste",
                "decode.step_padding_waste"}
TOLERANT = {"compiler.heap_allocs": 1e-3}


def deterministic(name, unit):
    return (unit in ("count", "B") or name.startswith("sim")
            or ".sim_" in name or name in EXACT_RATIOS)


def measure(binary, workload, seed, out_dir):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", "1", "--out-dir", out_dir],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout.splitlines():
        if line.startswith(run.RESULT_TAG):
            result = json.loads(line[len(run.RESULT_TAG):])
            if proc.returncode != 0 or result["failed"] != 0:
                sys.exit("%s: run failed (exit %d)" % (workload, proc.returncode))
            return result["metrics"]
    sys.exit("%s: no result line" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = run.build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    failures = 0
    for workload in args.workload or WORKLOADS:
        first = measure(binary, workload, args.seed, out_dir)
        second = measure(binary, workload, args.seed, out_dir)
        checked = 0
        for name, metric in sorted(first.items()):
            if not deterministic(name, metric["unit"]):
                continue
            checked += 1
            a, b = metric["value"], second[name]["value"]
            tolerance = TOLERANT.get(name, 0.0)
            if abs(a - b) > tolerance * max(abs(a), abs(b)):
                failures += 1
                print("FAIL %s %s: %r != %r" % (workload, name, a, b))
        print("%s: %d deterministic metrics compared" % (workload, checked))
    print("determinism: %s" % ("ok" if failures == 0 else "%d failures" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
