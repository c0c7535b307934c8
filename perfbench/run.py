#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tiny --seed 1 --seconds 10 --trace 0

Build output and the Go caches live under $CARGO_TARGET_DIR (default
.bench_build) inside the checkout, so nothing is written outside it. The
last line of standard output is the result object; the exit status is the
benchmark's own (non-zero on a build failure or a wrong output).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        return built.returncode
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
