"""Best-of-k times of the polyring multiply and reduce kernels.

    python3 scripts/bench_kernels.py --src SRC --label NAME [--out BENCH_kernels.json]

Imports abprime from SRC.  For each degree in DEGREES and modulus bits in
BITS, on seeded operands a, b of length deg and a seeded monic f of degree
deg, it records:

- mul_us: _mul_coeffs(a, b, m), the bare product;
- mul_mod_us: poly_mul_mod(a, b, f), one ring multiplication;
- square_mod_us: poly_mul_mod(a, a, f), one ring squaring;
- pow_step_us: poly_pow_mod(a, m, f) over the ring multiplications it
  tallies under count_operations(), the cost of one step of the ladder,
  whose elements need not be packed and unpacked at each step as one
  poly_mul_mod's are; only up to POW_MAX_DEG, as one call at 8192 x 256
  takes minutes;
- euclid_ms: _euclid(f', f, bezout=False), the gcd-only Euclid of the
  squarefree check, with f taken mod the first prime above m, so that the
  Euclid runs to its end instead of stopping at a factor of m; only up to
  EUCLID_MAX_DEG, as the list Euclid it replaced takes seconds a call
  there;
- operand_kbit: the largest integer _mul_coeffs hands to a big-integer
  multiply.

It records period_polynomial_ms, period_polynomial(r, q, PERIOD_PRIME) for
each pair of PERIOD_PAIRS: the power sums, Newton's identities and the
check f(eta) = 0, at a fixed 64-bit prime; the two large-r pairs, which
take seconds, get one run each.

It then records the schoolbook/Kronecker time ratio that sets
_KRONECKER_MIN, for shorter operands of SHORT coefficients against a longer
one of equal length ("bal") or of LONG coefficients.  Every time is the
fastest of at least REPS runs that together take MIN_S seconds, scaled to
the reference CPU speed of perfbench/calibrate.py measured around those
runs, as perfbench scales its gated timings.  The rows are stored under
NAME in the output file, next to the runs already recorded there under
other names.

Two runs, made one after the other, cannot resolve a difference under
about 2x in one cell: the bare product mul_us, the same code in both
trees, has read 0.52-1.85x and 0.66-1.73x between the two runs of a pair.  A kernel claim needs in-process
alternation or scripts/bench_pairs.py.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time

import sympy

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import calibrate  # noqa: E402

DEGREES = (16, 24, 32, 40, 47, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
BITS = (20, 64, 128, 256)
SHORT = (4, 6, 8, 9, 10, 12, 16, 24, 32)
LONG = ("bal", 64, 3000)
THRESHOLD_BITS = (5, 7, 12, 24, 64, 128)
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


def pow_steps(a, e: int, f) -> int:
    """The ring multiplications poly_pow_mod(a, e, f) tallies."""
    from abprime import count_operations, poly_pow_mod

    with count_operations() as ops:
        poly_pow_mod(a, e, f)
    return ops.poly_mults


def kernel_row(polyring, deg: int, bits: int) -> dict:
    from abprime import ModPoly, poly_mul_mod, poly_pow_mod

    rng = random.Random(f"bench-kernels/{deg}/{bits}")
    m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    a, b = ([rng.randrange(m) for _ in range(deg)] for _ in range(2))
    f = ModPoly(m, [rng.randrange(m) for _ in range(deg)] + [1])
    pa, pb = ModPoly(m, a), ModPoly(m, b)
    poly_mul_mod(pa, pb, f)  # builds the reducer for f outside the timings
    pow_step = (best_time(lambda: poly_pow_mod(pa, m, f)) / pow_steps(pa, m, f)
                if deg <= POW_MAX_DEG else None)
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
        "euclid_ms": None if euclid is None else round(euclid * 1e3, 3),
        "operand_kbit": round(operand_bits(polyring, lambda: polyring._mul_coeffs(a, b, m)) / 1000, 2),
    }


def threshold_ratio(polyring, bits: int, short: int, long: int) -> float:
    rng = random.Random(f"bench-kernels/threshold/{bits}/{short}/{long}")
    m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    a = [rng.randrange(m) for _ in range(short)]
    b = [rng.randrange(m) for _ in range(long)]
    school = best_time(lambda: polyring._mul_schoolbook(a, b, m), 0.05)
    kron = best_time(lambda: polyring._mul_kronecker(a, b, m), 0.05)
    return round(school / kron, 2)


def period_ms(r: int, q: int, runs: int) -> float:
    from abprime import period_polynomial

    t = best_time(lambda: period_polynomial(r, q, PERIOD_PRIME), MIN_S if runs > 1 else 0, runs)
    return round(t * 1e3, 2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the abprime package")
    ap.add_argument("--label", required=True, help="name to store the run under")
    ap.add_argument("--out", default="BENCH_kernels.json")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from abprime import polyring

    kernels = {}
    for deg in DEGREES:
        for bits in BITS:
            row = kernel_row(polyring, deg, bits)
            kernels[f"{deg}x{bits}"] = row
            print(deg, bits, row, flush=True)
    threshold = {}
    for bits in THRESHOLD_BITS:
        for long in LONG:
            threshold[f"{bits}x{long}"] = cells = {
                str(short): threshold_ratio(polyring, bits, short, short if long == "bal" else long)
                for short in SHORT}
            print(bits, long, cells, flush=True)
    periods = {}
    for r, q, runs in PERIOD_PAIRS:
        periods[f"{r},{q}"] = period_ms(r, q, runs)
        print(r, q, periods[f"{r},{q}"], flush=True)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("runs", {})[args.label] = {
        "kernels": kernels,
        "schoolbook_over_kronecker": threshold,
        "kronecker_min": polyring._KRONECKER_MIN,
        "period_polynomial_ms": periods,
    }
    record["shapes"] = ("kernels: deg x modulus bits; schoolbook_over_kronecker: bits x longer length, "
                        f"keyed by shorter length; period_polynomial_ms: r,q at N = {PERIOD_PRIME}")
    record["resolution"] = ("runs made one after the other resolve no cell difference under about 2x; "
                            "compare kernels by in-process alternation or scripts/bench_pairs.py")
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
