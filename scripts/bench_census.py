"""Best times of the exact censuses, per census class and per MR composite.

    python3 scripts/bench_census.py --src SRC --label NAME [--seed 1] [--out BENCH_census.json]

Imports the library from SRC and times the calls of perfbench's
census-exact workload for SEED, each call as the best of REPEATS runs,
scaled to the reference CPU speed of perfbench/calibrate.py measured around
those runs, as perfbench scales its gated timings.
`ab_failure_census_mod_p` and `root_count_in_extension` are grouped by the
(p, deg f) class: a class's census rate is its p^deg f elements summed over
its calls, divided by the summed best times, and its root-count row gives
the mean best time per call.  Each `mr_nonwitness_census` composite gets
its own row, with its n - 1 bases divided by its best time.  Then it times,
once each, the two inputs just under census.ENUMERATION_LIMIT: 7^6
elements with n = 700 and 409^2 with n = 413499, with the first monic
irreducible f of that degree in lexicographic order of its coefficients
from x^(d-1) down to 1.  The rows are stored under NAME in the output file,
next to the runs already recorded there under other names.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import calibrate  # noqa: E402

REPEATS = 3
NEAR_CAP = ((700, 7, 6), (413499, 409, 2))


def first_irreducible(p: int, d: int):
    from abprime import ModPoly, is_irreducible_mod_p

    for low in itertools.product(range(p), repeat=d):
        f = ModPoly(p, list(low[::-1]) + [1])
        if is_irreducible_mod_p(f, p):
            return f
    raise ValueError(f"no irreducible of degree {d} mod {p}")


def seconds(run, repeats: int) -> float:
    """The best of repeats runs, in seconds at calibrate's reference speed."""
    before = calibrate.reference_seconds()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * calibrate.speed(before, calibrate.reference_seconds())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the abprime package")
    ap.add_argument("--label", required=True, help="name to store the run under")
    ap.add_argument("--seed", type=int, default=1, help="census-exact workload seed")
    ap.add_argument("--out", default="BENCH_census.json")
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from workloads import census_exact

    from abprime import ab_failure_census_mod_p
    from abprime.census import ENUMERATION_LIMIT

    classes: dict[str, dict] = {}
    root_counts: dict[str, dict] = {}
    mr: dict[str, dict] = {}
    for call in census_exact(args.seed):
        if call.kind == "heuristic_class_scan":
            continue
        a = call.args
        t = seconds(call.run, REPEATS)
        if call.kind == "mr_nonwitness_census":
            mr[str(a["n"])] = {"seconds": round(t, 5), "bases_per_s": round((a["n"] - 1) / t)}
            continue
        if call.kind == "root_count_in_extension":
            row = root_counts.setdefault(call.group, {"calls": 0, "seconds": 0.0})
        else:
            row = classes.setdefault(call.group, {"calls": 0, "elements": 0, "seconds": 0.0})
            row["elements"] += a["p"] ** a["deg_f"]
        row["calls"] += 1
        row["seconds"] += t
    for group, row in classes.items():
        row["elements_per_s"] = round(row["elements"] / row["seconds"])
        row["seconds"] = round(row["seconds"], 5)
        print("ab_failure_census_mod_p", group, row, flush=True)
    for group, row in root_counts.items():
        row["ms_per_call"] = round(1000 * row["seconds"] / row["calls"], 3)
        row["seconds"] = round(row["seconds"], 5)
        print("root_count_in_extension", group, row, flush=True)
    for n, row in mr.items():
        print("mr_nonwitness_census", n, row, flush=True)
    near_cap = {}
    for n, p, d in NEAR_CAP:
        f = first_irreducible(p, d)
        t = seconds(lambda: ab_failure_census_mod_p(n, p, f), 1)
        near_cap[f"{p}^{d}"] = {"n": n, "f": f.to_line(), "seconds": round(t, 3),
                                "elements_per_s": round(p**d / t)}
        print(p, d, near_cap[f"{p}^{d}"], flush=True)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("runs", {})[args.label] = {
        "seed": args.seed,
        "repeats": REPEATS,
        "times": ("seconds at the reference speed of perfbench/calibrate.py "
                  f"(NOMINAL_S = {calibrate.NOMINAL_S} s), measured around each call"),
        "enumeration_limit": ENUMERATION_LIMIT,
        "classes": classes,
        "root_count_classes": root_counts,
        "mr_composites": mr,
        "near_cap": near_cap,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
