#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at small sizes.

Run from the root of an ltp source tree:

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json once untraced and once traced,
and checks that each run passes its output checks and emits exactly
the end-to-end (resp. per-layer) metrics BENCHMARK.json names, each a
finite number with the declared unit.  Then checks that a tampered
served grid fails the byte-identity check.  Exits 0 when all pass.
"""

import json
import math
import subprocess
import sys

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}", flush=True)


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(where, result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: unexpected keys {sorted(result)}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        fail(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
             "emitted or declared but not both")
    for name, unit in declared.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            fail(f"{where}: {name} is not {{value, unit}}: {m}")
        elif m["unit"] != unit:
            fail(f"{where}: {name} unit {m['unit']!r}, declared {unit!r}")
        elif not (isinstance(m["value"], (int, float))
                  and math.isfinite(m["value"])):
            fail(f"{where}: {name} value {m['value']!r} is not finite")


def main():
    bench = json.load(open("BENCHMARK.json"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in bench["workloads"]:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            where = f"{w['name']} --trace {trace}"
            code, result, err = run(w["name"], trace)
            if code != 0 or not result or not result.get("correct"):
                fail(f"{where}: exit {code}, result {result}\n{err}")
                continue
            if result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{where}: attempted/failed {result['attempted']}/"
                     f"{result['failed']}")
            check_metrics(where, result, declared)
            print(f"ok: {where}", flush=True)

    code, result, err = run("served_study", 0, "--tamper")
    if code == 0 or not result or result.get("correct") is not False:
        fail(f"tampered served grid was accepted: exit {code}, {result}")
    elif "byte-identical" not in err:
        fail(f"tampered run failed for another reason:\n{err}")
    else:
        print("ok: tampered served grid fails the byte-identity check")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
