#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytical --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the benchmark's data directories all live
under .bench_build/ in the checkout, so nothing outside it is read or
written. The binary's last line of standard output is the result object.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(ROOT, "perfbench")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # the go command's own config and telemetry counters live here too
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    run = subprocess.run([binary, "--root", ROOT] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
