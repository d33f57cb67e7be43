#!/usr/bin/env python3
"""Validate upcws-bench-v1 JSON files.

Usage:
  compare_bench.py --check-only CURRENT.json
      Validate the schema (CI gate for a freshly generated file).

  compare_bench.py --self-test
      Run the built-in unit checks on canned JSON and exit.

Timings are compared on one host with perfbench (perfbench/run.py); the
simulated counts are gated exactly by tools/check_counts.py.
"""

import argparse
import json
import sys

SCHEMA = "upcws-bench-v1"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"compare_bench: cannot read {path}: {e}")


def validate(doc, path):
    errors = []
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errors.append("missing/empty 'bench' name")
    if doc.get("mode") not in ("quick", "default", "full"):
        errors.append(f"bad mode {doc.get('mode')!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("'results' must be a non-empty list")
        results = []
    seen = set()
    for i, r in enumerate(results):
        name = r.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"results[{i}]: missing name")
            continue
        if name in seen:
            errors.append(f"duplicate result name {name!r}")
        seen.add(name)
        metrics = r.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            errors.append(f"{name}: 'metrics' must be a non-empty object")
            continue
        for k, v in metrics.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                errors.append(f"{name}: metric {k!r} is not a number")
        notes = r.get("notes", {})
        if not isinstance(notes, dict):
            errors.append(f"{name}: 'notes' must be an object")
            continue
        # A row that ran psim windows ran on the parallel lane, whatever
        # its config predicted.
        if notes.get("lane") == "serial" and metrics.get("windows", 0) > 0:
            errors.append(f"{name}: lane 'serial' but {metrics['windows']} "
                          "psim windows ran")
    for e in errors:
        print(f"compare_bench: {path}: {e}", file=sys.stderr)
    return not errors


def _canned():
    """A valid one-result doc."""
    return {
        "schema": SCHEMA, "bench": "selftest", "mode": "quick",
        "results": [{"name": "case", "metrics":
                     {"nodes_per_sec": 100.0, "nodes": 1000}}],
    }


def self_test():
    """Unit checks of the schema validation on canned JSON; prints PASS/FAIL
    per case, exits 1 on any failure."""
    import contextlib
    import io

    cases = []

    def quiet_validate(doc):
        with contextlib.redirect_stderr(io.StringIO()):
            return validate(doc, "<canned>")

    cases.append(("valid doc passes validation", quiet_validate(_canned())))
    bad_schema = _canned()
    bad_schema["schema"] = "nope-v0"
    cases.append(("wrong schema rejected", not quiet_validate(bad_schema)))
    dup = _canned()
    dup["results"].append(dup["results"][0])
    cases.append(("duplicate result name rejected", not quiet_validate(dup)))
    nan = _canned()
    nan["results"][0]["metrics"]["nodes"] = "many"
    cases.append(("non-numeric metric rejected", not quiet_validate(nan)))
    mislabel = _canned()
    mislabel["results"][0]["metrics"]["windows"] = 7600
    mislabel["results"][0]["notes"] = {"lane": "serial"}
    cases.append(("serial lane with windows rejected",
                  not quiet_validate(mislabel)))
    mislabel["results"][0]["notes"] = {"lane": "parallel"}
    cases.append(("parallel lane with windows passes",
                  quiet_validate(mislabel)))

    failed = 0
    for name, ok in cases:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    print(f"compare_bench --self-test: {len(cases) - failed}/{len(cases)} "
          "checks passed")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current", nargs="?",
                    help="freshly generated BENCH_*.json")
    ap.add_argument("--check-only", action="store_true",
                    help="validate the schema of CURRENT and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="run built-in checks on canned JSON and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.check_only or not args.current:
        sys.exit("compare_bench: need --check-only CURRENT.json "
                 "(or --self-test)")
    cur = load(args.current)
    if not validate(cur, args.current):
        return 1
    print(f"compare_bench: {args.current}: valid {SCHEMA} "
          f"({len(cur['results'])} results)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
