#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 10 --seconds 10 --trace 0

The benchmark is a Go module of its own in this directory. The script
builds it from the checkout's sources into the build directory
($CARGO_TARGET_DIR, default .bench_build), keeping the Go build cache
and every other file the toolchain writes there too, then runs it with
the given arguments. The benchmark's last line of standard output is
its JSON result. With --trace 1 the traced run's spans are written to
<build dir>/spans/<workload>-seed<seed>.tsv.gz.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "CGO_ENABLED": "0",
        # The toolchain writes telemetry and config under the user's
        # home; keep that inside the build directory too.
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    os.makedirs(home, exist_ok=True)

    gobin = shutil.which("go", path=env.get("PATH"))
    if gobin is None:
        sys.exit("run.py: no go toolchain on PATH")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([gobin, "build", "-trimpath", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.tsv.gz" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
