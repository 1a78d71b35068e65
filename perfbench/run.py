#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, prints the source revision, then
runs the benchmark.  Its last stdout line is the result object.  The
exit code is the benchmark's: non-zero on a build failure, a wrong
answer or an error.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("scatter-uniform", "client-zipf", "durable-ingest", "repl-rw")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def source_digest():
    """SHA-256 over the library sources, so results name the code they measured."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--ops", type=int, default=0,
                    help="run exactly N operations per phase instead of --seconds")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run([dune, "build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    print(f"perfbench: git={git_revision()} src={source_digest()}", flush=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ops > 0:
        cmd += ["--ops", str(args.ops)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
