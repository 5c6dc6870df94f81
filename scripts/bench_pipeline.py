"""Wall time of default `abprime isprime` on one prime per bit size, two trees interleaved.

    python3 scripts/bench_pipeline.py --parent SRC --change SRC [--out BENCH_pipeline.json]

Runs `python -m abprime.cli isprime N --seed 00 --json` with the library
imported from each SRC, on one prime of each bit size from START_BITS upward
(perfbench's prime_of_bits with an RNG seeded by the bit size, so both
trees time the same N).  The two trees alternate size by size, the parent
first at even sizes and the change first at odd ones, so a stretch of host
load falls on both rather than on whichever tree ran during it.  Each call
gets LIMIT_S seconds.  A size whose call runs over the limit, or within
NEAR of it, is timed twice more and judged by the median of the three
calls, a call over the limit counting as over it: one call near the limit
would make the frontier turn on the host's load at that moment.  A tree's
run ends at the first size whose time is over the limit, or whose call
fails or does not return a PRIME verdict on a constructed f; the other
tree goes on alone.  The rows are stored under "parent" and "change" in
the output file, next to the runs already recorded there under other
names.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
START_BITS = 12
LIMIT_S = 60.0
NEAR = 0.1  # share of LIMIT_S below it within which a size is timed three times


def time_isprime(src: str, n: int) -> dict:
    """One timed CLI call; the row has an "error" entry unless it is a PRIME
    verdict on a constructed f (evidence null)."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "abprime.cli", "isprime", str(n), "--seed", "00", "--json"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return {"n": n, "wall_s": None, "error": f"over {LIMIT_S} s"}
    wall = time.perf_counter() - start
    row = {"n": n, "wall_s": round(wall, 3)}
    try:
        verdict = json.loads(proc.stdout)
    except json.JSONDecodeError:
        verdict = None
    if verdict is None:
        row["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return row
    row.update(outcome=verdict["outcome"], deg_f=verdict["rounds_used"])
    if proc.returncode != 0 or verdict["outcome"] != "PRIME" or verdict["evidence"] is not None:
        row["error"] = f"exit {proc.returncode}, not a PRIME verdict on a constructed f: {verdict}"
    return row


def time_size(src: str, n: int) -> dict:
    """time_isprime's row for n; when the call ran over LIMIT_S or within
    NEAR below it, the row of the median of three calls, with all three
    times in "walls_s" (None for a call over the limit)."""
    row = time_isprime(src, n)
    if row["wall_s"] is not None and (row["wall_s"] < (1 - NEAR) * LIMIT_S or "error" in row):
        return row
    rows = [row, time_isprime(src, n), time_isprime(src, n)]
    walls = [r["wall_s"] for r in rows]
    rows.sort(key=lambda r: math.inf if r["wall_s"] is None else r["wall_s"])
    return dict(rows[1], walls_s=walls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="directory holding the parent's abprime package")
    ap.add_argument("--change", required=True, help="directory holding the change's abprime package")
    ap.add_argument("--out", default="BENCH_pipeline.json")
    args = ap.parse_args()
    srcs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sys.path[:0] = [srcs["change"], os.path.join(ROOT, "perfbench")]
    from workloads import prime_of_bits

    rows = {label: {} for label in srcs}
    running = list(srcs)
    bits = START_BITS
    while running:
        n = prime_of_bits(random.Random(f"bench-pipeline/{bits}"), bits)
        for label in running if bits % 2 == 0 else running[::-1]:
            row = rows[label][str(bits)] = time_size(srcs[label], n)
            print(label, bits, row, flush=True)
        running = [label for label in running if "error" not in rows[label][str(bits)]]
        bits += 1
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    for label, bit_rows in rows.items():
        last = max(int(b) for b in bit_rows)
        record.setdefault("runs", {})[label] = {
            "limit_s": LIMIT_S,
            "largest_bits_within_limit": last - 1 if last > START_BITS else None,
            "bits": bit_rows,
        }
    record["command"] = "python -m abprime.cli isprime N --seed 00 --json (default c = 2)"
    record["environment"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
