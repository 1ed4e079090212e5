#!/usr/bin/env python3
"""Tiny-scale smoke test of the PDHT benchmark.

    python3 perfbench/smoke.py EXE BENCHMARK_JSON

Runs every workload named in BENCHMARK_JSON at --scale tiny, untraced
and traced, and checks that each run exits 0, passes its output checks
and prints every metric named in BENCHMARK_JSON with its unit and a
finite value.  Exits 1 on the first violation.
"""

import json
import math
import os
import subprocess
import sys


def fail(msg):
    print("smoke: " + msg, file=sys.stderr)
    sys.exit(1)


def main(exe, bench_path):
    exe = os.path.abspath(exe)
    with open(bench_path) as f:
        bench = json.load(f)
    for workload in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            out = subprocess.run(
                [exe, "--workload", name, "--seed", "7", "--seconds", "0.05",
                 "--trace", trace, "--scale", "tiny"],
                capture_output=True, text=True, timeout=120)
            where = "%s --trace %s" % (name, trace)
            if out.returncode != 0:
                fail("%s exited %d\n%s%s" % (where, out.returncode, out.stdout, out.stderr))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: unexpected result keys %s" % (where, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s: output checks failed\n%s" % (where, out.stdout))
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            if sorted(metrics) != sorted(wanted):
                fail("%s: metric names differ: %s" % (where, sorted(set(metrics) ^ set(wanted))))
            for mname, unit in wanted.items():
                m = metrics[mname]
                if m.get("unit") != unit:
                    fail("%s: %s has unit %r, want %r" % (where, mname, m.get("unit"), unit))
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail("%s: %s has value %r" % (where, mname, v))
            print("smoke: %s ok (%d metrics)" % (where, len(metrics)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        fail("usage: smoke.py EXE BENCHMARK_JSON")
    main(sys.argv[1], sys.argv[2])
