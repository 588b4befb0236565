#!/usr/bin/env python3
"""Build and run the WhoWas benchmark from the root of a checkout.

    python3 perfbench/run.py --workload collect --seed 1 --seconds 18 --trace 0

Builds the perfbench Go module (perfbench/go.mod, which uses the
checkout's own sources) into .bench_build/ with the Go build cache kept
there as well, then runs the binary with the given arguments. Every
file the build and the run write stays inside the checkout. The exit
code is the benchmark's; a failed build exits non-zero without
printing a result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # The benchmark runs from the checkout root; it writes only under
    # .bench_build/.
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
