#!/usr/bin/env python3
"""Build and run the end-to-end ALPHA benchmark (perfbench/, a Go module).

Run from the repository root:

    python3 perfbench/run.py --workload bulk48 --seed 1 --seconds 30 --trace 0

The Go program is built from source into the build directory (the
CARGO_TARGET_DIR environment variable if set, else .bench_build), with the
Go build cache, module cache and temporary files kept there as well, so
the benchmark reads and writes nothing outside the checkout. The last line
of standard output is the benchmark's JSON result; build output goes to
standard error. Any failure exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("bulk48", "signal", "bulk", "churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", build, "-root", root]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
