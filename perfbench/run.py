#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-products --seed 1 --seconds 10 --trace 0

The benchmark is the Go package next to this file (its own module, which
imports the program from the checkout through a replace directive). This
script builds it from source into .bench_build/ in the checkout, with the
Go build cache kept there too, then runs it with the given arguments. The
benchmark's last line of standard output is its JSON result; traced runs
(--trace 1) also write their spans and attribution to .bench_build/perfbench/.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    gomod = os.path.join(root, "go.mod")
    try:
        with open(gomod) as f:
            if "module wholegraph\n" not in f.read():
                raise OSError("not the wholegraph module")
    except OSError as e:
        print(f"perfbench: no program to benchmark at {root}: {e}", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(out, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    ran = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
