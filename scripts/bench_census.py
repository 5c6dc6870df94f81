"""Parent/change timings of the exact censuses, per census class and per MR composite.

    python3 scripts/bench_census.py --parent DIR --change DIR [--pairs 3] [--seed 1] [--out BENCH_census.json]

Times every row in both checkouts, one fresh subprocess per row and side,
in pairs that alternate which side runs first (pair i runs the parent
first for even i), as scripts/bench_kernels.py does per cell; a subprocess
imports abprime from DIR/src and the calls of perfbench's census-exact
workload for SEED from this checkout's perfbench.  The rows are

- one per (p, deg f) class: census_s, the summed times of its
  `ab_failure_census_mod_p` calls, and root_count_s, those of its
  `root_count_in_extension` calls; the summary adds elements_per_s, the
  class's p^deg f elements summed over its calls over census_s, and
  root_count_ms_per_call;
- one per `mr_nonwitness_census` composite: mr_s, with bases_per_s, its
  n - 1 bases over mr_s;
- the two inputs just under census.ENUMERATION_LIMIT: 7^6 elements with
  n = 700 and 409^2 with n = 413499, with the first monic irreducible f of
  that degree in lexicographic order of its coefficients from x^(d-1)
  down to 1: census_s, with elements_per_s.

Every time is the fastest of at least REPS runs that together take MIN_S
seconds (a near-cap input: REPS runs), scaled to the reference CPU speed
of perfbench/calibrate.py measured around those runs.  Each row stores,
per side and metric, the median over the pairs, the change's median over
the parent's, and the number of pairs the change won (ties count for
neither).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import calibrate  # noqa: E402

REPS = 3
MIN_S = 0.2
NEAR_CAP = ((700, 7, 6), (413499, 409, 2))


def best_time(fn, min_s: float = MIN_S) -> float:
    """The fastest run of fn, in seconds at calibrate's reference speed."""
    before = calibrate.reference_seconds()
    times: list[float] = []
    while len(times) < REPS or sum(times) < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * calibrate.speed(before, calibrate.reference_seconds())


def first_irreducible(p: int, d: int):
    from abprime import ModPoly, is_irreducible_mod_p

    for low in itertools.product(range(p), repeat=d):
        f = ModPoly(p, list(low[::-1]) + [1])
        if is_irreducible_mod_p(f, p):
            return f
    raise ValueError(f"no irreducible of degree {d} mod {p}")


def rows(seed: int) -> list[str]:
    """Row names: census classes "p^d", "mr n" composites, "cap p^d"."""
    from workloads import census_exact

    names = []
    for call in census_exact(seed):
        if call.kind == "mr_nonwitness_census":
            names.append(f"mr {call.args['n']}")
        elif call.kind == "ab_failure_census_mod_p" and call.group not in names:
            names.append(call.group)
    return names + [f"cap {p}^{d}" for _, p, d in NEAR_CAP]


def row_times(seed: int, row: str) -> dict:
    """(times, info) of one row: times in seconds, info its fixed sizes."""
    from workloads import census_exact

    from abprime import ab_failure_census_mod_p

    if row.startswith("cap "):
        n, p, d = next(c for c in NEAR_CAP if row == f"cap {c[1]}^{c[2]}")
        f = first_irreducible(p, d)
        t = best_time(lambda: ab_failure_census_mod_p(n, p, f), 0)
        return {"times": {"census_s": t}, "info": {"n": n, "f": f.to_line(), "elements": p**d}}
    times: dict[str, float] = {}
    info = {"calls": 0, "elements": 0}
    for call in census_exact(seed):
        a = call.args
        if call.kind == "mr_nonwitness_census" and row == f"mr {a['n']}":
            return {"times": {"mr_s": best_time(call.run)}, "info": {"bases": a["n"] - 1}}
        if call.group != row:
            continue
        key = "root_count_s" if call.kind == "root_count_in_extension" else "census_s"
        times[key] = times.get(key, 0.0) + best_time(call.run)
        if key == "census_s":
            info["calls"] += 1
            info["elements"] += a["p"] ** a["deg_f"]
    return {"times": times, "info": info}


def run_worker(src: str, seed: int, row: str) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                           "--seed", str(seed), "--row", row],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(par: list[dict], chg: list[dict]) -> dict:
    info = par[0]["info"]
    row = {**info, "parent": {}, "change": {}, "change_over_parent": {}, "change_won": {}}
    for key in par[0]["times"]:
        p = statistics.median(r["times"][key] for r in par)
        c = statistics.median(r["times"][key] for r in chg)
        row["parent"][key], row["change"][key] = round(p, 6), round(c, 6)
        row["change_over_parent"][key] = round(c / p, 3)
        row["change_won"][key] = sum(b["times"][key] < a["times"][key] for a, b in zip(par, chg))
    for side in ("parent", "change"):
        t = row[side]
        if "census_s" in t:
            t["elements_per_s"] = round(info["elements"] / t["census_s"])
        if "root_count_s" in t:
            t["root_count_ms_per_call"] = round(1000 * t["root_count_s"] / info["calls"], 3)
        if "mr_s" in t:
            t["bases_per_s"] = round(info["bases"] / t["mr_s"])
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1, help="census-exact workload seed")
    ap.add_argument("--out", default="BENCH_census.json")
    ap.add_argument("--src", help=argparse.SUPPRESS)  # worker: the abprime to time
    ap.add_argument("--row", help=argparse.SUPPRESS)  # worker: the row to time
    args = ap.parse_args()
    if args.src:
        sys.path.insert(0, os.path.abspath(args.src))
        print(json.dumps(row_times(args.seed, args.row)))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(os.path.abspath(args.change), "src")}
    sys.path.insert(0, sides["change"])
    from abprime.census import ENUMERATION_LIMIT

    record = {"rows": {}}
    for row in rows(args.seed):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run_worker(sides[side], args.seed, row))
        record["rows"][row] = summarize(runs["parent"], runs["change"])
        print(row, json.dumps(record["rows"][row]["change_over_parent"]), flush=True)
    record["seed"] = args.seed
    record["pairs"] = args.pairs
    record["enumeration_limit"] = ENUMERATION_LIMIT
    record["shapes"] = ("rows: census classes p^d (census_s, root_count_s summed over the class's "
                        "calls), mr n (mr_nonwitness_census), cap p^d (one input under the "
                        "work cap)")
    record["resolution"] = ("each side's value is the median of its runs over the pairs; a row "
                            "difference counts when the change won every pair")
    record["times"] = ("seconds at the reference speed of perfbench/calibrate.py "
                       f"(NOMINAL_S = {calibrate.NOMINAL_S} s), measured around each call")
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
