#!/usr/bin/env python3
"""Build and run the PDHT benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/main.exe with dune (shared cache disabled, so nothing
is written outside the checkout), runs it with the given arguments and
passes its output through.  The last stdout line is the JSON result.
The run is pinned to one CPU, cluster workers included: a round trip
between processes then costs the same context switches in every run,
instead of a cross-CPU wake-up whose latency on a shared virtual
machine depends on the other tenants.
Exits non-zero, printing no result, when the checkout lacks the
program's sources or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main(argv):
    root = os.getcwd()
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune"),
              os.path.join("perfbench", "main.ml")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: not a PDHT source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A session of its own, so cluster workers are reaped with the run on
    # a timeout.
    proc = subprocess.Popen([exe] + argv, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
