"""Parent/change timings of the polyring multiply and reduce kernels.

    python3 scripts/bench_kernels.py --parent DIR --change DIR [--pairs 3] [--out BENCH_kernels.json]

Times every cell in both checkouts, one fresh subprocess per cell and
side, in pairs that alternate which side runs first (pair i runs the
parent first for even i), as scripts/bench_pairs.py does per workload; a
subprocess imports abprime from DIR/src.  A kernel cell is one degree of
DEGREES and modulus bits of BITS: on seeded operands a, b of length deg
and a seeded monic f of degree deg, it records

- mul_us: _mul_coeffs(a, b, m), the bare product;
- mul_mod_us: poly_mul_mod(a, b, f), one ring multiplication;
- square_mod_us: poly_mul_mod(a, a, f), one ring squaring;
- pow_step_us: poly_pow_mod(a, m, f) over the ring multiplications it
  tallies under count_operations(), the cost of one step of the ladder,
  whose elements need not be packed and unpacked at each step as one
  poly_mul_mod's are; only up to POW_MAX_DEG, as one call at 8192 x 256
  takes minutes;
- pow_pair_step_us: (a + 1)^m and a^m as ab_test takes them, by
  poly_pow_mod_many where the checkout has it (one lockstep ladder of the
  two bases) and else by two poly_pow_mod, over half the ring
  multiplications tallied: one step of the two bases; up to POW_MAX_DEG;
- euclid_ms: _euclid(f', f, bezout=False), the gcd-only Euclid of the
  squarefree check, with f taken mod the first prime above m, so that the
  Euclid runs to its end instead of stopping at a factor of m; only up to
  EUCLID_MAX_DEG;
- operand_kbit: the largest integer _mul_coeffs hands to a big-integer
  multiply.

A period cell is period_polynomial(r, q, PERIOD_PRIME) for a pair of
PERIOD_PAIRS: the power sums, Newton's identities and the check
f(eta) = 0, at a fixed 64-bit prime.  Each cell stores, per side and
metric, the median over the pairs, the change's median over the
parent's, and the number of pairs the change won (ties count for
neither).  Every time is the fastest of at least REPS runs that together
take MIN_S seconds (the two large-r pairs: one run), scaled to the
reference CPU speed of perfbench/calibrate.py measured around those runs.

Two tables come from the change alone, each comparing two paths of one
process at the same inputs: the schoolbook/Kronecker time ratio that sets
_KRONECKER_MIN, for shorter operands of SHORT coefficients against a
longer one of equal length ("bal") or of LONG coefficients; and, where
the change has a transform tier (_TRANSFORM_MIN), the int/transform time
ratio of one packed ring squaring, the ladder step, by the bits of its
pack (deg f slots of B bits), for one row (int_over_transform) and for
the two rows of ab_test's lockstep ladder (pair_int_over_transform), from
which _TRANSFORM_MIN is read.  Each
ratio is the median of TABLE_ROUNDS rounds that alternate the two paths.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import calibrate  # noqa: E402

DEGREES = (16, 24, 32, 40, 47, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
BITS = (20, 64, 128, 256)
SHORT = (4, 6, 8, 9, 10, 12, 16, 24, 32)
LONG = ("bal", 64, 3000)
THRESHOLD_BITS = (5, 7, 12, 24, 64, 128)
PACK_KBIT = (8, 12, 16, 20, 24, 32, 48, 64)
PACK_BITS = (20, 64, 128, 256)
TABLE_ROUNDS = 5
POW_MAX_DEG = 512
EUCLID_MAX_DEG = 2048
PERIOD_PAIRS = ((367, 61, 3), (1087, 181, 3), (26021, 1301, 1), (25097, 3137, 1))  # (r, q, runs)
PERIOD_PRIME = 2**64 - 59
REPS = 3
MIN_S = 0.2


def best_time(fn, min_s: float = MIN_S, reps: int = REPS) -> float:
    """The fastest run of fn, in seconds at calibrate's reference speed."""
    before = calibrate.reference_seconds()
    times: list[float] = []
    while len(times) < reps or sum(times) < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * calibrate.speed(before, calibrate.reference_seconds())


def operand_bits(polyring, fn) -> int:
    """Bits of the largest integer fn multiplies, read by wrapping the
    two-point kernel's multiply entry _times."""
    seen = [0]
    orig = polyring._times

    def hook(pa, pb):
        seen[0] = max(seen[0], *(abs(v).bit_length() for v in pa + pb))
        return orig(pa, pb)

    polyring._times = hook
    try:
        fn()
    finally:
        polyring._times = orig
    return seen[0]


def pow_steps(run) -> int:
    """The ring multiplications run() tallies."""
    from abprime import count_operations

    with count_operations() as ops:
        run()
    return ops.poly_mults


def pow_pair(polyring, a, e: int, f):
    """(a + 1)^e and a^e mod f as ab_test takes them in the checkout."""
    bases = [a.add_constant(1), a]
    if hasattr(polyring, "poly_pow_mod_many"):
        return lambda: polyring.poly_pow_mod_many(bases, e, f)
    return lambda: [polyring.poly_pow_mod(b, e, f) for b in bases]


def kernel_row(polyring, deg: int, bits: int) -> dict:
    import sympy
    from abprime import ModPoly, poly_mul_mod, poly_pow_mod

    rng = random.Random(f"bench-kernels/{deg}/{bits}")
    m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    a, b = ([rng.randrange(m) for _ in range(deg)] for _ in range(2))
    f = ModPoly(m, [rng.randrange(m) for _ in range(deg)] + [1])
    pa, pb = ModPoly(m, a), ModPoly(m, b)
    poly_mul_mod(pa, pb, f)  # builds the reducer for f outside the timings
    pow_step = pair_step = None
    if deg <= POW_MAX_DEG:
        pow_step = best_time(lambda: poly_pow_mod(pa, m, f)) / pow_steps(lambda: poly_pow_mod(pa, m, f))
        pair = pow_pair(polyring, pa, m, f)
        pair_step = best_time(pair) / (pow_steps(pair) / 2)
    euclid = None
    if deg <= EUCLID_MAX_DEG:
        fp = f.reduce_to_modulus(int(sympy.nextprime(m)))
        fd = ModPoly(fp.modulus, [k * c for k, c in enumerate(fp.coeffs)][1:])
        euclid = best_time(lambda: polyring._euclid(fd, fp, bezout=False))
    return {
        "mul_us": round(best_time(lambda: polyring._mul_coeffs(a, b, m)) * 1e6, 1),
        "mul_mod_us": round(best_time(lambda: poly_mul_mod(pa, pb, f)) * 1e6, 1),
        "square_mod_us": round(best_time(lambda: poly_mul_mod(pa, pa, f)) * 1e6, 1),
        "pow_step_us": None if pow_step is None else round(pow_step * 1e6, 1),
        "pow_pair_step_us": None if pair_step is None else round(pair_step * 1e6, 1),
        "euclid_ms": None if euclid is None else round(euclid * 1e3, 3),
        "operand_kbit": round(operand_bits(polyring, lambda: polyring._mul_coeffs(a, b, m)) / 1000, 2),
    }


def period_row(r: int, q: int, runs: int) -> dict:
    from abprime import period_polynomial

    t = best_time(lambda: period_polynomial(r, q, PERIOD_PRIME), MIN_S if runs > 1 else 0, runs)
    return {"period_polynomial_ms": round(t * 1e3, 2)}


def cells() -> list[str]:
    return ([f"{deg}x{bits}" for deg in DEGREES for bits in BITS]
            + [f"{r},{q}" for r, q, _ in PERIOD_PAIRS])


def cell_row(polyring, cell: str) -> dict:
    if "x" in cell:
        deg, bits = map(int, cell.split("x"))
        return kernel_row(polyring, deg, bits)
    r, q = map(int, cell.split(","))
    return period_row(r, q, next(runs for rr, qq, runs in PERIOD_PAIRS if (rr, qq) == (r, q)))


def alternated_ratio(slow, fast, rounds: int = TABLE_ROUNDS) -> float:
    """Median over rounds of best_time(slow) / best_time(fast), the two
    timed one after the other in each round, in alternating order."""
    ratios = []
    for i in range(rounds):
        if i % 2:
            t_fast, t_slow = best_time(fast, 0.05), best_time(slow, 0.05)
        else:
            t_slow, t_fast = best_time(slow, 0.05), best_time(fast, 0.05)
        ratios.append(t_slow / t_fast)
    return round(statistics.median(ratios), 2)


def schoolbook_table(polyring) -> dict:
    table = {}
    for bits in THRESHOLD_BITS:
        for long in LONG:
            ratios = {}
            for short in SHORT:
                rng = random.Random(f"bench-kernels/threshold/{bits}/{short}/{long}")
                m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                a = [rng.randrange(m) for _ in range(short)]
                b = [rng.randrange(m) for _ in range(short if long == "bal" else long)]
                ratios[str(short)] = alternated_ratio(lambda: polyring._mul_schoolbook(a, b, m),
                                                      lambda: polyring._mul_kronecker(a, b, m), 1)
            table[f"{bits}x{long}"] = ratios
            print(bits, long, ratios, file=sys.stderr, flush=True)
    return table


def transform_table(polyring) -> dict:
    """int/transform time of one packed ring squaring, by pack bits: the
    reducer's tier is switched by _TRANSFORM_MIN between the two timings."""
    from abprime import ModPoly

    saved, table = polyring._TRANSFORM_MIN, {}
    try:
        for bits in PACK_BITS:
            row = {}
            for kbit in PACK_KBIT:
                width = (2 * bits + 10 + 2 + 7) // 8  # bits(deg f) <= 10 in this table
                deg = kbit * 1000 // (8 * width)
                rng = random.Random(f"bench-kernels/transform/{bits}/{kbit}")
                m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                polyring._TRANSFORM_MIN = 0
                red = polyring._Reducer(ModPoly(m, [rng.randrange(m) for _ in range(deg)] + [1]))
                red._setup()
                one = (red._packed([rng.randrange(m) for _ in range(deg)]),)
                two = one + (red._packed([rng.randrange(m) for _ in range(deg)]),)
                row[str(kbit)] = {"pack_kbit": round(deg * 8 * red._width / 1000, 1),
                                  "int_over_transform": alternated_ratio(
                                      _tiered(polyring, red, one, 1 << 62),
                                      _tiered(polyring, red, one, 0)),
                                  "pair_int_over_transform": alternated_ratio(
                                      _tiered(polyring, red, two, 1 << 62),
                                      _tiered(polyring, red, two, 0))}
            table[str(bits)] = row
            print(bits, row, file=sys.stderr, flush=True)
    finally:
        polyring._TRANSFORM_MIN = saved
    return table


def _tiered(polyring, red, xs, tier: int):
    # one lockstep packed squaring of the rows xs with _TRANSFORM_MIN =
    # tier, which each product reads
    def run():
        polyring._TRANSFORM_MIN = tier
        red._mul(xs, xs)
    return run


def worker(src: str, cell: str | None) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    from abprime import polyring

    if cell is not None:
        return cell_row(polyring, cell)
    out = {"schoolbook_over_kronecker": schoolbook_table(polyring),
           "kronecker_min": polyring._KRONECKER_MIN}
    if hasattr(polyring, "_TRANSFORM_MIN"):
        out["int_over_transform"] = transform_table(polyring)
        out["transform_min"] = polyring._TRANSFORM_MIN
    return out


def run_worker(src: str, *args: str) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src, *args],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(par: list[dict], chg: list[dict]) -> dict:
    row = {"parent": {}, "change": {}, "change_over_parent": {}, "change_won": {}}
    for key in par[0]:
        if par[0][key] is None:
            continue
        p = statistics.median(r[key] for r in par)
        c = statistics.median(r[key] for r in chg)
        row["parent"][key], row["change"][key] = p, c
        if key != "operand_kbit":
            row["change_over_parent"][key] = round(c / p, 3)
            row["change_won"][key] = sum(b[key] < a[key] for a, b in zip(par, chg))
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--out", default="BENCH_kernels.json")
    ap.add_argument("--src", help=argparse.SUPPRESS)  # worker: the abprime to time
    ap.add_argument("--cell", help=argparse.SUPPRESS)  # worker: one cell, else the tables
    args = ap.parse_args()
    if args.src:
        print(json.dumps(worker(args.src, args.cell)))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(os.path.abspath(args.change), "src")}
    record = {"cells": {}}
    for cell in cells():
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run_worker(sides[side], "--cell", cell))
        record["cells"][cell] = summarize(runs["parent"], runs["change"])
        print(cell, json.dumps(record["cells"][cell]["change_over_parent"]), flush=True)
    record.update(run_worker(sides["change"]))
    record["pairs"] = args.pairs
    record["shapes"] = ("cells: deg x modulus bits, or r,q for period_polynomial_ms at "
                        f"N = {PERIOD_PRIME}; schoolbook_over_kronecker: bits x longer length, "
                        "keyed by shorter length; int_over_transform: modulus bits, keyed by "
                        "target pack kbit")
    record["resolution"] = ("each side's value is the median of its runs over the pairs; a cell "
                            "difference counts when the change won every pair")
    record["times"] = ("microseconds (euclid_ms, period_polynomial_ms: milliseconds) at the reference speed "
                       f"of perfbench/calibrate.py (NOMINAL_S = {calibrate.NOMINAL_S} s), measured around each cell")
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
