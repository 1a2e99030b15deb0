#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim-latency-bound --seed 1 --seconds 25 --trace 0

perfbench/ is a Go module of its own whose go.mod points the pilotrf
module at the checkout it sits in. This script builds it into
.bench_build/ at the checkout root, keeping the Go build cache, temporary
files and toolchain state there as well, and then runs the binary from
the checkout root with the same arguments. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
"""

import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    staged = "%s.%d" % (exe, os.getpid())
    built = subprocess.run(["go", "build", "-o", staged, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(staged, exe)

    child = subprocess.Popen([exe] + sys.argv[1:], cwd=root)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
