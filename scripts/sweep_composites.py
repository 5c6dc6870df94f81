"""Default full_pipeline on the same seeded odd composites in two checkouts.

    python3 scripts/sweep_composites.py --parent DIR --change DIR [--count 3000] [--seed S]

Draws COUNT distinct odd composites in [LOW, HIGH) from an RNG seeded by S
and runs ``full_pipeline(n, PipelineConfig(), S)`` on each, in one
subprocess per checkout with DIR/src on PYTHONPATH; the two subprocesses
run side by side.  Prints every (outcome, evidence kind) transition from
parent to change with its count, the number of outcome changes, the number
of inputs whose divisor changed, and the number that are identical.  Each
divisor that does not properly divide its n, and each composite called
PRIME, is flagged on either side, and the script then exits 1, so that
running it with --parent and --change on the same checkout checks the
one-sided error.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

LOW, HIGH = 1001, 200000

CHILD = """
import json, sys
from abprime.primality import PipelineConfig, full_pipeline
seed = int(sys.argv[1])
out = []
for n in json.load(sys.stdin):
    v = full_pipeline(n, PipelineConfig(), seed)
    ev = v.evidence
    value = None if ev is None else next(iter(vars(ev).values()))
    out.append([v.outcome.value, type(ev).__name__ if ev else None,
                value if isinstance(value, (int, str)) else repr(value)])
json.dump(out, sys.stdout)
"""


def composites(count: int, seed: int) -> list[int]:
    rng = random.Random(f"sweep-composites/{seed}")
    chosen: set[int] = set()
    while len(chosen) < count:
        n = rng.randrange(LOW, HIGH) | 1
        if any(n % p == 0 for p in range(3, int(n**0.5) + 1, 2)):
            chosen.add(n)
    return sorted(chosen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--count", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    ns = composites(args.count, args.seed)
    procs = {}
    for side in ("parent", "change"):
        env = dict(os.environ, PYTHONPATH=str(getattr(args, side).resolve() / "src"))
        procs[side] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(args.seed)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        procs[side].stdin.write(json.dumps(ns))
        procs[side].stdin.close()
    results = {}
    for side, proc in procs.items():
        results[side] = json.loads(proc.stdout.read())
        if proc.wait() != 0:
            raise SystemExit(f"{side} sweep exited {proc.returncode}")
    transitions: collections.Counter = collections.Counter()
    outcome_changes = changed_divisors = identical = flags = 0
    for n, par, chg in zip(ns, results["parent"], results["change"]):
        for side, row in (("parent", par), ("change", chg)):
            if row[0] == "PRIME":
                print(f"FLAG {side}: composite {n} called PRIME")
                flags += 1
            if row[1] == "Divisor" and not (1 < row[2] < n and n % row[2] == 0):
                print(f"FLAG {side}: {row[2]} is not a proper divisor of {n}")
                flags += 1
        transitions[(par[0], par[1]), (chg[0], chg[1])] += 1
        outcome_changes += par[0] != chg[0]
        changed_divisors += par[1] == chg[1] == "Divisor" and par[2] != chg[2]
        identical += par == chg
    print(f"{len(ns)} odd composites in [{LOW}, {HIGH}), seed {args.seed}")
    print(f"{'parent':<28} {'change':<28} {'count':>6}")
    for (par, chg), count in sorted(transitions.items(), key=lambda t: -t[1]):
        print(f"{' '.join(map(str, par)):<28} {' '.join(map(str, chg)):<28} {count:>6}")
    print(f"outcome changes: {outcome_changes}")
    print(f"changed divisors: {changed_divisors}")
    print(f"identical: {identical}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
