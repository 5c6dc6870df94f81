"""Paired benchmark runs of two checkouts, alternating which runs first.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME [--pairs 10] [--seed 1]

Runs the command of BENCHMARK.json with its run_seconds, ``--workload NAME
--seed SEED --trace 0``, in each checkout, one run at a time: pair i runs
the parent first for even i and the change first for odd i.  It reads the
last JSON line of each run and prints, for every end-to-end metric of
BENCHMARK.json, both medians, the parent's quartile distance (q3 - q1 of
``statistics.quantiles(values, n=4)``), the number of pairs the change won
(ties count for neither side), and "unresolved" where that distance, as a
share of the parent's median, exceeds the metric's bound.  Each run whose
``correct`` is false is flagged, and each side's failed share of attempted
operations is printed as fail_frac.

Every run has PYTHONDONTWRITEBYTECODE=1, so no run leaves bytecode for a
later one.  ``setup_s`` includes compiling the sources whenever a
checkout's ``src/abprime`` has no ``__pycache__``, and two checkouts
compare fairly only in the same cache state: before each pair, a FLAG line
names each checkout whose ``src/abprime`` holds one.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, cmd: list[str], timeout: float) -> dict:
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True, timeout=timeout,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side, checkout in sides.items():
            if (checkout / "src" / "abprime" / "__pycache__").exists():
                print(f"FLAG pair {i} {side}: src/abprime holds __pycache__, "
                      "so setup_s is not comparable")
        for side in order:
            out = run(sides[side], cmd, timeout=20 * spec["run_seconds"] + 600)
            results[side].append(out)
            if not out["correct"]:
                print(f"FLAG pair {i} {side}: correct is false, "
                      f"{out['failed']} of {out['attempted']} failed")
        print(f"pair {i} ({order[0]} first): " + "  ".join(
            f"{m['name']} {results['parent'][i]['metrics'][m['name']]['value']:.6g}"
            f" / {results['change'][i]['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"]), flush=True)
    print(f"{'metric':<16} {'parent':>12} {'change':>12} {'parent q3-q1':>13} "
          f"{'change won':>10}")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        par = [r["metrics"][name]["value"] for r in results["parent"]]
        chg = [r["metrics"][name]["value"] for r in results["change"]]
        med = statistics.median(par)
        q1, _, q3 = statistics.quantiles(par, n=4) if len(par) > 1 else (med, med, med)
        won = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        note = "  unresolved" if med and (q3 - q1) / med > metric["bound"] else ""
        print(f"{name:<16} {med:>12.6g} {statistics.median(chg):>12.6g} {q3 - q1:>13.4g} "
              f"{won:>4} of {len(par)}{note}")
    for side, outs in results.items():
        failed = sum(r["failed"] for r in outs)
        attempted = sum(r["attempted"] for r in outs)
        print(f"{side} fail_frac {failed / attempted:.4g} ({failed} of {attempted})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
