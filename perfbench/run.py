#!/usr/bin/env python3
"""Build and run gcsim's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-sweep --seed 1 --seconds 20 --trace 0

Workloads: replay-sweep, paper-quick, service-jobs. --trace 1 makes the traced
run, which prints the per-layer metrics instead of the end-to-end ones.

It builds perfbench (a Go module of its own that imports gcsim's internal
packages through a replace directive) into .bench_build/, with the Go build
cache and every scratch file kept inside the checkout, then runs it. The last
line of standard output is the result JSON. The exit code is non-zero when the
build fails or any output check fails.

The benchmark's own tests: cd perfbench && go test ./...
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "TMPDIR": work,
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-root", root, "-work", work]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
