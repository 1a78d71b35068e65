#!/usr/bin/env python3
"""Count-determinism check for the serving benchmark.

    python3 perfbench/test_determinism.py [--seed N]

Runs every workload twice on one seed with a fixed operation count
(--ops), which drains the pool after each operation so background
merges and cache admissions land at the same point of the stream.
The exact counters each run prints on its `counts:` line (read and
write I/O, cache hits/stale/evictions, WAL appends and fsyncs, seals,
merges, checkpoints, frames shipped) must be identical between the
two runs, and every answer sample must match the oracle.  Exits
non-zero otherwise.  Run from the root of the repository.
"""

import argparse
import json
import subprocess
import sys

OPS = {
    "scatter-uniform": 600,
    "client-zipf": 20000,
    "durable-ingest": 3000,
    "repl-rw": 2000,
}


def run(workload, seed, ops):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--ops", str(ops)],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload}: run failed (exit {out.returncode})\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: answers differ from the oracle")
    counts = [l for l in lines if l.startswith("counts: ")]
    return json.loads(counts[-1][len("counts: "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    seed = ap.parse_args().seed
    failed = False
    for workload, ops in OPS.items():
        first, second = run(workload, seed, ops), run(workload, seed, ops)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        if diff or first.keys() != second.keys():
            failed = True
            print(f"{workload}: counts differ: {diff}")
        else:
            print(f"{workload}: {ops} ops, counts identical: {first}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
