#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload opt-bell --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(shared cache off, temporary files under .bench_build/), runs it, and
passes its standard output through; the last line is the JSON result.
Exits non-zero without a result when the checkout cannot be built.
"""
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not os.path.isfile("dune-project"):
        print("error: no dune-project here; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        proc = subprocess.run([exe] + sys.argv[1:], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("error: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    json.loads(lines[-1])
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
