"""Command-line front end.

Commands:
  isprime    run the full pipeline on one N
  construct  build a defining polynomial of target degree for N
  census     exhaustive error-fraction oracles (mr / ab-p / ab-n / class)
  bench      runtime-to-accuracy comparison of the two tests

Exit codes: 0 success / PRIME, 1 COMPOSITE or factor found, 2 UNKNOWN
(isprime found no polynomial, or refused a predicted cost over its budget),
3 construction found nothing, 5 a proven bound was violated by an exact
census (the falsification signal), 64 usage or domain error.
"""
from __future__ import annotations

import argparse
import json
import random
import secrets
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .census import (
    BoundViolation,
    CensusReport,
    ab_failure_census_mod_N,
    ab_failure_census_mod_p,
    heuristic_class_scan,
    mr_nonwitness_census,
    root_count_in_extension,
)
from .intarith import floor_log2
from .polyring import ModPoly
from .primality import (
    ABPolynomial,
    ConstructionFailure,
    Divisor,
    MRWitness,
    PipelineConfig,
    Verdict,
    _random_monic,
    ab_test,
    full_pipeline,
    miller_rabin_round,
    target_degree,
)
from .pseudofield import Constructed, TensorDependency, construct_poly_pipeline

__all__ = ["BenchReport", "compute_ratio", "main", "console_main"]

EXIT_PRIME = 0
EXIT_COMPOSITE = 1
EXIT_UNKNOWN = 2
EXIT_NOT_FOUND = 3
EXIT_BOUND_VIOLATION = 5
EXIT_USAGE = 64


@dataclass(frozen=True)
class BenchReport:
    """Wall times plus bound-derived accuracy for one bit size."""

    n_bits: int
    mr_time_ns: int
    ab_time_ns: int
    epsilon_log2_mr: Fraction
    epsilon_log2_ab: Fraction
    ratio_mr: Fraction
    ratio_ab: Fraction


def compute_ratio(time_ns: int, epsilon_log2: Fraction) -> Fraction:
    """time / |log2 epsilon| -- the repetition-adjusted cost of accuracy."""
    if epsilon_log2 >= 0:
        raise ValueError("epsilon_log2 must be negative")
    return Fraction(time_ns) / -Fraction(epsilon_log2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_seed(text: Optional[str]) -> int:
    if text is None:
        return secrets.randbits(64)
    return int(text, 16)


def _parse_rational(text: str) -> Fraction:
    return Fraction(text)


def _verdict_json(n: int, verdict: Verdict) -> dict:
    evidence: Optional[dict] = None
    if isinstance(verdict.evidence, Divisor):
        evidence = {"kind": "divisor", "d": verdict.evidence.d}
    elif isinstance(verdict.evidence, MRWitness):
        evidence = {"kind": "mr_witness", "a": verdict.evidence.a}
    elif isinstance(verdict.evidence, ABPolynomial):
        evidence = {"kind": "ab_polynomial", "h": verdict.evidence.h.to_line()}
    elif isinstance(verdict.evidence, ConstructionFailure):
        evidence = {"kind": "construction_failure", "note": verdict.evidence.note}
    return {
        "n": n,
        "outcome": verdict.outcome.value,
        "evidence": evidence,
        "seed": verdict.seed,
        "rounds_used": verdict.rounds_used,
    }


def _cmd_isprime(args) -> int:
    seed = _parse_seed(args.seed)
    config = PipelineConfig(
        c=args.c,
        degree_override=args.degree,
        fallback_policy="weak_random_f" if args.fallback == "weak" else "fail",
    )
    verdict = full_pipeline(args.n, config, seed)
    if args.json:
        print(json.dumps(_verdict_json(args.n, verdict)))
    else:
        detail = ""
        if isinstance(verdict.evidence, Divisor):
            detail = f" (divisor {verdict.evidence.d})"
        elif isinstance(verdict.evidence, MRWitness):
            detail = f" (witness {verdict.evidence.a})"
        elif isinstance(verdict.evidence, ConstructionFailure):
            detail = f" ({verdict.evidence.note})"
        print(f"{args.n}: {verdict.outcome.value}{detail}")
    return verdict.exit_code()


def _cmd_construct(args) -> int:
    try:
        result = construct_poly_pipeline(args.n, args.degree_target)
    except TensorDependency as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    if result is None:
        print(f"no period system of degree in "
              f"[{args.degree_target}, {2 * args.degree_target}) found")
        return EXIT_NOT_FOUND
    if not isinstance(result, Constructed):
        print(f"composite: factor {result.divisor}")
        return EXIT_COMPOSITE
    with open(args.out, "w") as fh:
        fh.write(result.f.to_line() + "\n")
    with open(args.out + ".system", "w") as fh:
        for pair in sorted(result.system.pairs, key=lambda p: (p.r, p.q)):
            fh.write(f"{pair.r} {pair.q}\n")
    print(f"degree {result.f.degree}")
    return 0


def _load_poly(path: str) -> ModPoly:
    with open(path) as fh:
        return ModPoly.from_line(fh.readline())


def _emit_report(report: CensusReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"n={report.subject} failing={report.failing}/{report.total} "
              f"fraction={report.fraction} bound={report.bound}")


def _cmd_census(args) -> int:
    try:
        if args.which == "mr":
            report = mr_nonwitness_census(args.n)
            _emit_report(report, args.json)
            if report.fraction > report.bound:
                return EXIT_BOUND_VIOLATION
        elif args.which == "ab-p":
            f = _load_poly(args.f)
            report = ab_failure_census_mod_p(args.n, args.p, f)
            _emit_report(report, args.json)
            roots = root_count_in_extension(args.n, args.p, f)
            d = ModPoly(args.p, f.coeffs).degree
            if report.failing != roots:
                print(f"root-count mismatch: {report.failing} != {roots}",
                      file=sys.stderr)
                return EXIT_BOUND_VIOLATION
            if report.fraction > report.bound or \
                    report.fraction >= Fraction(args.n, args.p**d):
                return EXIT_BOUND_VIOLATION
        elif args.which == "ab-n":
            f = _load_poly(args.f)
            report = ab_failure_census_mod_N(args.n, f)
            _emit_report(report, args.json)
            if report.fraction >= report.bound:
                return EXIT_BOUND_VIOLATION
        else:  # class
            reports = heuristic_class_scan(args.kmax)
            for report in reports:
                _emit_report(report, args.json)
    except BoundViolation as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


def _bench_one(bits: int, degree: int, trials: int, seed: int) -> BenchReport:
    rng = random.Random(seed ^ bits)
    n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
    f = _random_monic(n, degree, rng)

    mr_ns = 0
    ab_ns = 0
    for _ in range(trials):
        base = rng.randint(1, n - 1)
        t0 = time.perf_counter_ns()
        miller_rabin_round(n, base)
        mr_ns += time.perf_counter_ns() - t0

        # full combined-test cost: deg f rounds plus the identity check,
        # with no composite short-circuit (the bound is a full-run bound)
        t0 = time.perf_counter_ns()
        for _ in range(degree):
            miller_rabin_round(n, rng.randint(1, n - 1))
        t_rounds = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        ab_test(n, f, rng.getrandbits(64))
        ab_ns += t_rounds + time.perf_counter_ns() - t0

    mr_ns //= trials
    ab_ns //= trials
    eps_mr = Fraction(-2)  # one round fails with probability at most 1/4
    # combined bound under the worst observable case r = 2:
    # 1 / (2^deg * N^(deg-2)); log2 N is taken at floor precision
    eps_ab = Fraction(-(degree + (degree - 2) * floor_log2(n)))
    return BenchReport(
        n_bits=bits,
        mr_time_ns=mr_ns,
        ab_time_ns=ab_ns,
        epsilon_log2_mr=eps_mr,
        epsilon_log2_ab=eps_ab,
        ratio_mr=compute_ratio(mr_ns, eps_mr),
        ratio_ab=compute_ratio(ab_ns, eps_ab),
    )


def _cmd_bench(args) -> int:
    bit_sizes = [int(tok) for tok in args.bits.split(",") if tok]
    if not bit_sizes or any(b < 4 for b in bit_sizes):
        print("error: --bits needs a comma list of sizes >= 4", file=sys.stderr)
        return EXIT_USAGE
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    config = PipelineConfig(c=args.c)
    # every bits-bit N has floor_log2 N = bits - 1, so one degree serves them
    # all, and it must stay below the least odd one, 2^(bits-1) + 1
    degrees = [target_degree(1 << (bits - 1), config) for bits in bit_sizes]
    for bits, degree in zip(bit_sizes, degrees):
        if degree > 1 << (bits - 1):
            print(f"error: deg f = {degree} at {bits} bits is not below every "
                  f"{bits}-bit N (the least is {(1 << (bits - 1)) + 1})", file=sys.stderr)
            return EXIT_USAGE
    seed = _parse_seed(args.seed)
    print("bits,T_mr,T_ab,R_mr,R_ab")
    for bits, degree in zip(bit_sizes, degrees):
        report = _bench_one(bits, degree, args.trials, seed)
        print(f"{bits},{report.mr_time_ns},{report.ab_time_ns},"
              f"{float(report.ratio_mr)},{float(report.ratio_ab)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="abprime", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_is = sub.add_parser("isprime", help="test one integer")
    p_is.add_argument("n", type=int)
    p_is.add_argument("--c", type=_parse_rational, default=Fraction(2),
                      help="degree exponent (rational, default 2.0)")
    p_is.add_argument("--degree", type=int, default=None,
                      help="override the degree target")
    p_is.add_argument("--fallback", choices=("fail", "weak"), default="fail",
                      help="behavior when no polynomial can be constructed")
    p_is.add_argument("--seed", default=None, help="hex seed (random if absent)")
    p_is.add_argument("--json", action="store_true")

    p_con = sub.add_parser("construct", help="construct a defining polynomial")
    p_con.add_argument("n", type=int)
    p_con.add_argument("--D", dest="degree_target", type=int, required=True,
                       help="degree target; the result has degree in [D, 2D)")
    p_con.add_argument("--out", required=True, help="output path for f")

    p_cen = sub.add_parser("census", help="exhaustive error censuses")
    cen_sub = p_cen.add_subparsers(dest="which", required=True)
    c_mr = cen_sub.add_parser("mr", help="Miller-Rabin nonwitness count")
    c_mr.add_argument("n", type=int)
    c_abp = cen_sub.add_parser("ab-p", help="identity failures mod (p, f)")
    c_abp.add_argument("n", type=int)
    c_abp.add_argument("p", type=int)
    c_abp.add_argument("--f", required=True, help="polynomial file")
    c_abn = cen_sub.add_parser("ab-n", help="identity failures mod (N, f)")
    c_abn.add_argument("n", type=int)
    c_abn.add_argument("--f", required=True, help="polynomial file")
    c_cls = cen_sub.add_parser("class", help="scan the (2k+1)(6k+1) family")
    c_cls.add_argument("--kmax", type=int, required=True)
    for cp in (c_mr, c_abp, c_abn, c_cls):
        cp.add_argument("--json", action="store_true")

    p_b = sub.add_parser("bench", help="runtime-to-accuracy comparison (CSV)")
    p_b.add_argument("--bits", default="32,64,128", help="comma list of bit sizes")
    p_b.add_argument("--c", type=_parse_rational, default=Fraction(2))
    p_b.add_argument("--trials", type=int, default=1)
    p_b.add_argument("--seed", default=None, help="hex seed (random if absent)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "isprime":
            return _cmd_isprime(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "census":
            return _cmd_census(args)
        return _cmd_bench(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
