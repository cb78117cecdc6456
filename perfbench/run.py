#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout's sources and run it.

    python3 perfbench/run.py --workload serve-spread --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build (Go cache included) and the run
write only under .bench_build/ in the working directory. The last line of
standard output is the JSON result; the exit code is the program's.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 850  # a cold Go cache compiles the standard library too
RUN_TIMEOUT = 170


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    tmp = os.path.join(out, "gotmp")
    for d in (out, home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
        # Keep the toolchain's own config and telemetry files in the checkout.
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
