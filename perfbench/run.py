#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is built under .bench_build/ in
Release mode on first use. With --trace 0 the result carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics. A host
fingerprint line precedes the result, which is the last line of stdout.
--small and --wrong-ref exist for selftest.py (a small tree; a deliberately
wrong reference count).
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 9
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def last_json(cmd, timeout):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: " + " ".join(cmd))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"exit code {r.returncode}: " + " ".join(cmd))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--wrong-ref", action="store_true")
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")
    exe = build()

    common = ["--workload", a.workload] + (["--small"] if a.small else [])
    out = last_json([str(exe), *common, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)]
                    + (["--wrong-ref"] if a.wrong_ref else []),
                    RUN_TIMEOUT_S)
    values = out["metrics"]
    if a.trace == 0:
        # Cold set-up, once per fresh process: workload start to the first
        # Problem::expand, median over several processes.
        probes = [last_json([str(exe), *common, "--setup-probe",
                             "--seed", str(a.seed)], 60)
                  for _ in range(SETUP_PROBES)]
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)

    section = spec["per_layer" if a.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(values) != set(units):
        fail("metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(values))}, extra "
             f"{sorted(set(values) - set(units))}")
    if not all(math.isfinite(v) for v in values.values()):
        fail("non-finite metric value")

    print(json.dumps({"fingerprint": out["fingerprint"],
                      "workload": a.workload, "seed": a.seed,
                      "reference_nodes": out["reference_nodes"],
                      "failures": out["failures"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in sorted(values)},
    }))


if __name__ == "__main__":
    main()
