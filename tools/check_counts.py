#!/usr/bin/env python3
"""Exact gate on the simulated counts of the benchmark's workloads.

Usage:
  check_counts.py PERFBENCH GOLDEN.json [--workload W ...]
      Run PERFBENCH on each workload (default: every workload in GOLDEN) and
      fail unless every key of KEYS equals the committed value exactly, the
      sequential reference node count is unchanged and no search failed.

  check_counts.py PERFBENCH GOLDEN.json [--workload W ...] --update
      Recapture those workloads' entries in GOLDEN. A change that moves a
      count recaptures the file and explains the diff in CHANGES.md, as the
      golden outputs do.

Every key below is a property of the simulated run, so it is the same on any
host, build type and repetition: protocol counters, virtual-time state
fractions, remote-op and tick counts per search, fiber switches per node and
psim window/event counts. Host timings (*_ns, *_share, *_us_*, cpu_util,
host.*, trace.*, ledger.*) are left out.
"""

import argparse
import json
import subprocess
import sys

ARGS = ["--seed", "7", "--seconds", "0.01", "--trace", "1", "--small"]

KEYS = (
    "uts.expand_calls", "uts.children",
    "ws.push_n_calls", "ws.steal_attempts", "ws.steals",
    "ws.steal_success_ratio", "ws.probes", "ws.probes_per_steal",
    "ws.releases", "ws.reacquires", "ws.nodes_stolen", "ws.barrier_entries",
    "ws.vt_working_frac", "ws.vt_searching_frac", "ws.vt_stealing_frac",
    "ws.vt_termination_frac",
    "pgas.ticks_per_node", "pgas.remote_get", "pgas.remote_put",
    "pgas.remote_add", "pgas.remote_cas", "pgas.remote_bulk_get",
    "pgas.remote_bulk_put", "pgas.lock_waits",
    "mp.requests_serviced", "mp.requests_denied", "mp.grant_ratio",
    "sim.switches_per_node",
    "psim.windows", "psim.events", "psim.events_per_window",
)


def measure(perfbench, workload):
    """The workload's reference node count and KEYS, or exits 1."""
    cmd = [perfbench, "--workload", workload, *ARGS]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        sys.exit(f"check_counts: {' '.join(cmd)} exited {r.returncode}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if res["failed"] != 0:
        sys.exit(f"check_counts: {workload}: {res['failed']} of "
                 f"{res['attempted']} searches failed: {res['failures']}")
    missing = [k for k in KEYS if k not in res["metrics"]]
    if missing:
        sys.exit(f"check_counts: {workload}: perfbench lacks {missing}")
    counts = {k: res["metrics"][k] for k in KEYS}
    return {"reference_nodes": res["reference_nodes"], "counts": counts}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("perfbench", help="the perfbench binary")
    ap.add_argument("golden", help="committed counts (perf_counts.json)")
    ap.add_argument("--workload", action="append",
                    help="workload to check (repeatable; default all)")
    ap.add_argument("--update", action="store_true",
                    help="recapture the workloads' entries in GOLDEN")
    args = ap.parse_args()

    with open(args.golden) as f:
        golden = json.load(f)
    workloads = args.workload or sorted(golden)

    if args.update:
        for w in workloads:
            golden[w] = measure(args.perfbench, w)
            print(f"check_counts: recaptured {w}")
        with open(args.golden, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0

    diffs = []
    for w in workloads:
        want = golden.get(w)
        if want is None:
            sys.exit(f"check_counts: {args.golden} has no entry for {w}")
        got = measure(args.perfbench, w)
        if got["reference_nodes"] != want["reference_nodes"]:
            diffs.append(f"{w} reference_nodes: {want['reference_nodes']} "
                         f"-> {got['reference_nodes']}")
        for k in KEYS:
            if got["counts"][k] != want["counts"].get(k):
                diffs.append(f"{w} {k}: {want['counts'].get(k)!r} -> "
                             f"{got['counts'][k]!r}")
        print(f"check_counts: {w}: {len(KEYS)} counts checked")
    if diffs:
        print("check_counts: FAIL: simulated counts differ from "
              f"{args.golden}:", file=sys.stderr)
        for d in diffs:
            print(f"  {d}", file=sys.stderr)
        print("If the change is meant to move these counts, recapture with\n"
              f"  python3 tools/check_counts.py {args.perfbench} "
              f"{args.golden} --update\n"
              "and explain the diff in CHANGES.md.", file=sys.stderr)
        return 1
    print("check_counts: every count matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
