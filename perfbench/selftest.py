#!/usr/bin/env python3
"""Self-test of the benchmark, on a small tree (about 10^4 nodes).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py with --trace 0 and
--trace 1 and checks that each result line has exactly the contract's keys,
that every search is correct, and that the emitted metric names equal the
names BENCHMARK.json declares. The negative case runs with a deliberately
wrong reference count, which must fail every search and drop ok_frac to 0.
Exits 1 if any check fails.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--small", *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=300)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        return None
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


for w in SPEC["workloads"]:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        tag = f"{w['name']} --trace {trace}"
        got = run(w["name"], trace)
        check(got is not None, f"{tag}: run.py exits 0")
        if got is None:
            continue
        info, res = got
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              f"{tag}: result keys")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{tag}: every search correct {info['failures']}")
        declared = {m["name"] for m in SPEC[section]}
        check(set(res["metrics"]) == declared,
              f"{tag}: metric names equal BENCHMARK.json {section}")
        fp = info["fingerprint"]
        check(all(k in fp for k in ("nproc", "cpu_model", "compiler",
                                    "build_type", "sha1_compress_ns")),
              f"{tag}: host fingerprint")
        m = {k: v["value"] for k, v in res["metrics"].items()}
        if trace == 0:
            check(m["ok_frac"] == 1 and m["ns_per_node"] > 0
                  and m["setup_s"] > 0, f"{tag}: end-to-end values")
        else:
            check(abs(m["ledger.sum_over_wall"] - 1) < 1e-9,
                  f"{tag}: ledger sums to the traced wall time")
            shares = sum(m[k] for k in ("uts.expand_share", "ws.push_n_share",
                                        "sim.dispatch_share",
                                        "ws.residual_share"))
            check(abs(shares - 1) < 1e-9, f"{tag}: layer shares sum to 1")
            if "psim" in w["name"]:
                check(m["psim.windows"] > 0, f"{tag}: parallel lane read back")

wl = SPEC["workloads"][0]["name"]
got = run(wl, 0, "--wrong-ref")
check(got is not None, f"{wl} --wrong-ref: run.py exits 0")
if got is not None:
    res = got[1]
    check(not res["correct"] and res["failed"] == res["attempted"]
          and res["metrics"]["ok_frac"]["value"] == 0,
          f"{wl} --wrong-ref: a wrong reference count fails every search")

print("selftest:", "PASS" if not failures else f"{len(failures)} FAILED")
sys.exit(1 if failures else 0)
