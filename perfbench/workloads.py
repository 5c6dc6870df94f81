"""The three benchmark workloads: seeded inputs, the timed closed loop, and
the independent checks run after it.

A workload turns ``--seed`` into a fixed input list (inputs come from
``sympy`` and ``random``, never from abprime), then calls the library in a
closed loop with one caller: each call starts when the previous one has
returned.  The loop runs whole passes over the list, as many as bring its
time nearest the time budget and at least one, so every input is timed
the same number of times in a run.  Outputs are kept and
checked only after the loop, so the checks count in no metric.

Every call is kept short (at most a few seconds) so that each input is
timed in several passes spread over the run: on a shared VM the CPU's
speed drifts by tens of percent within seconds, and one long call would
carry all of the drift of its own stretch of time.
"""
from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import sympy

import calibrate
import oracle
from abprime import (
    ModPoly,
    Outcome,
    PipelineConfig,
    ab_failure_census_mod_p,
    combined_test,
    find_period_system,
    full_pipeline,
    heuristic_class_scan,
    miller_rabin,
    mr_nonwitness_census,
    root_count_in_extension,
)

# pipeline-c2: one prime per bit size.  11, 15 and 16 bits are left out:
# their single large period pair ((607, 101), (797, 199), (227, 113)) makes
# one call take 5-50 s, too long to time more than once per run.  12 bits,
# (367, 61), runs the same period-polynomial expansion in ~2 s.  With five
# sizes the median call is the 13-bit one, in the middle of the other four.
PIPELINE_BITS = (9, 10, 12, 13, 14)

# identity-ladder rungs: (modulus bits, deg f, calls per pass).  As many
# calls lie below the 64x256 rung as above it, so the median call falls in
# the middle of that rung rather than in the gap between two rungs.
# 128x512 and 128x1024 (11 s and 25 s a call) appear only as kernel probes.
LADDER_RUNGS = ((64, 64, 2), (64, 256, 4), (128, 128, 1), (128, 256, 1))

# census-exact: seeded (n, f) triples for each (p, deg f, count) below,
# which cover p in {3, 5, 7, 11, 13, 17} and deg f in {2, 3, 4} with
# p^deg f <= 5000.  As many calls are cheaper than the 11^3 class as are
# dearer, and the neighbouring classes' call times do not overlap it, so
# the median call lies in the middle of 11^3 (~0.2 s) instead of among
# short calls of several classes that trade places from run to run.  11^3
# gets six triples because its cost follows the bits of n, and the median
# of six varies less from seed to seed than the median of three.  n is a
# multiple of p in [N_LOW, 500), which keeps the exponent length, and with
# it the per-element cost, alike across seeds.
CENSUS_CLASSES = ((17, 2, 3), (3, 4, 3), (5, 4, 3), (11, 3, 6), (13, 3, 3), (7, 4, 3), (17, 3, 3))
N_LOW = 250
# one odd composite from each range: the largest sets the numpy census's
# peak memory, so it is kept near 10^6
MR_RANGES = ((10**5, 2 * 10**5), (4 * 10**5, 5 * 10**5), (9 * 10**5, 10**6))
CLASS_SCAN_KMAX = 25


def rung_name(bits: int, deg: int) -> str:
    return f"{bits}x{deg}"


def log2_eps_ab(n: int, deg: int) -> int:
    """log2 of the combined-test error bound, as the CLI bench computes it."""
    return -(deg + (deg - 2) * (n.bit_length() - 1))


@dataclass
class Call:
    """One public library call of a workload, with what it needs to be checked."""

    kind: str
    args: dict
    group: str  # bit size, rung or census class; keys per-group metrics
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the output is right
    replay: str  # enough to rerun the call by hand
    baseline: Optional["Call"] = None  # timed right after, not counted as a call


@dataclass
class Samples:
    """Wall seconds and outputs (or exceptions) of one call, one per pass.

    speed holds the CPU's relative speed around each call, from the
    reference loop in ``calibrate``.
    """

    times: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)


@dataclass
class LoopResult:
    calls: list[Samples]
    baselines: list[Samples]
    passes: int = 0
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def prime_of_bits(rng: random.Random, bits: int) -> int:
    while True:
        n = sympy.nextprime(rng.randrange(1 << (bits - 1), 1 << bits))
        if n.bit_length() == bits:
            return int(n)


def random_monic(rng: random.Random, n: int, deg: int) -> ModPoly:
    return ModPoly(n, [rng.randrange(n) for _ in range(deg)] + [1])


def _expect_prime(n: int) -> Callable[[Any], Optional[str]]:
    def check(verdict) -> Optional[str]:
        if not sympy.isprime(n):
            return f"input {n} is not prime"
        if verdict.outcome is not Outcome.PRIME:
            return f"verdict {verdict.outcome.value} on a prime"
        return None
    return check


def pipeline_c2(seed: int) -> list[Call]:
    rng = random.Random(f"pipeline-c2/{seed}")
    config = PipelineConfig()
    calls = []
    for bits in PIPELINE_BITS:
        n = prime_of_bits(rng, bits)
        s = rng.getrandbits(64)
        target = (bits - 1) ** 2  # ceil(floor_log2(n)^c) with c = 2

        def check(verdict, target=target, base=_expect_prime(n)):
            err = base(verdict)
            if err is None and not target <= verdict.rounds_used < 2 * target:
                err = f"deg f = {verdict.rounds_used} outside [{target}, {2 * target})"
            return err

        calls.append(Call(
            "full_pipeline", {"n": n, "seed": s, "bits": bits}, f"b{bits}",
            lambda n=n, s=s: full_pipeline(n, config, s), check,
            f"full_pipeline({n}, PipelineConfig(), {s})"))
    return calls


def identity_ladder(seed: int) -> list[Call]:
    rng = random.Random(f"identity-ladder/{seed}")
    calls = []
    for bits, deg, count in LADDER_RUNGS:
        for _ in range(count):
            n = prime_of_bits(rng, bits)
            f = random_monic(rng, n, deg)
            s = rng.getrandbits(64)
            replay = f"combined_test({n}, <seeded monic f of degree {deg}>, {s})"
            calls.append(Call(
                "combined_test", {"n": n, "seed": s, "bits": bits, "deg_f": deg, "f": f},
                rung_name(bits, deg),
                lambda n=n, f=f, s=s: combined_test(n, f, s), _expect_prime(n), replay,
                Call("miller_rabin", {"rounds": deg}, rung_name(bits, deg),
                     lambda n=n, deg=deg, s=s: miller_rabin(n, deg, s), _expect_prime(n),
                     f"miller_rabin({n}, {deg}, {s})")))
    return calls


def _census_n(rng: random.Random, p: int) -> int:
    while True:
        n = p * rng.randrange(-(-N_LOW // p), -(-500 // p))
        if n < 500 and not oracle.is_power_of(n, p):
            return n


def _census_triple_calls(n: int, p: int, d: int, f: ModPoly) -> list[Call]:
    args = {"n": n, "p": p, "deg_f": d, "f": f.to_line()}
    f_expr = f"ModPoly.from_line({f.to_line()!r})"

    def check_roots(count):
        expected = oracle.distinct_roots_in_extension(n, p, d)
        if count != expected:
            return f"root count {count} != independent count {expected}"
        return None

    def check_census(report):
        expected = oracle.distinct_roots_in_extension(n, p, d)
        if report.total != p**d:
            return f"total {report.total} != {p}^{d}"
        if report.failing != expected:
            return f"failing {report.failing} != independent count {expected}"
        if report.fraction > report.bound:
            return f"fraction {report.fraction} above its bound {report.bound}"
        return None

    return [
        Call("root_count_in_extension", args, f"{p}^{d}",
             lambda: root_count_in_extension(n, p, f), check_roots,
             f"root_count_in_extension({n}, {p}, {f_expr})"),
        Call("ab_failure_census_mod_p", args, f"{p}^{d}",
             lambda: ab_failure_census_mod_p(n, p, f), check_census,
             f"ab_failure_census_mod_p({n}, {p}, {f_expr})"),
    ]


def _mr_census_call(n: int) -> Call:
    def check(report):
        expected = oracle.mr_nonwitness_count(n)
        if report.total != n - 1 or report.failing != expected:
            return f"{report.failing}/{report.total} != plain-pow recount {expected}/{n - 1}"
        if report.fraction > report.bound:
            return f"fraction {report.fraction} above its bound {report.bound}"
        return None

    return Call("mr_nonwitness_census", {"n": n}, "mr", lambda: mr_nonwitness_census(n),
                check, f"mr_nonwitness_census({n})")


def _class_scan_call() -> Call:
    def check(reports):
        got = {r.subject: r.failing for r in reports}
        expected = oracle.class_scan_counts(CLASS_SCAN_KMAX)
        if got != expected:
            return f"class scan {got} != plain-pow recount {expected}"
        return None

    return Call("heuristic_class_scan", {"k_max": CLASS_SCAN_KMAX}, "class",
                lambda: heuristic_class_scan(CLASS_SCAN_KMAX), check,
                f"heuristic_class_scan({CLASS_SCAN_KMAX})")


def census_exact(seed: int) -> list[Call]:
    rng = random.Random(f"census-exact/{seed}")
    calls = []
    for p, d, count in CENSUS_CLASSES:
        for _ in range(count):
            n = _census_n(rng, p)
            f = ModPoly(p, oracle.random_irreducible(rng, p, d))
            calls += _census_triple_calls(n, p, d, f)
    for lo, hi in MR_RANGES:
        calls.append(_mr_census_call(oracle.odd_composite(rng, lo, hi)))
    calls.append(_class_scan_call())
    return calls


WORKLOADS = {
    "pipeline-c2": pipeline_c2,
    "identity-ladder": identity_ladder,
    "census-exact": census_exact,
}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def _timed(call: Call, into: Samples) -> None:
    before = calibrate.reference_seconds()
    t0 = time.perf_counter()
    try:
        out = call.run()
    except Exception as exc:  # a failed call is counted, not fatal
        out = exc
    into.times.append(time.perf_counter() - t0)
    into.outputs.append(out)
    into.speed.append(calibrate.speed(before, calibrate.reference_seconds()))


def new_result(calls: list[Call]) -> LoopResult:
    return LoopResult([Samples() for _ in calls], [Samples() for _ in calls])


def one_pass(calls: list[Call], result: LoopResult) -> None:
    for call, samples, base in zip(calls, result.calls, result.baselines):
        _timed(call, samples)
        if call.baseline is not None:
            _timed(call.baseline, base)
    result.passes += 1


def closed_loop(calls: list[Call], seconds: float) -> LoopResult:
    """Whole passes over the input list, as many as bring the time nearest `seconds`."""
    result = new_result(calls)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass(calls, result)
        now = time.perf_counter()
        if (now - start) + (now - t0) / 2 > seconds:
            break
    result.elapsed = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check_outputs(name: str, calls: list[Call], result: LoopResult) -> tuple[int, list[str]]:
    """(attempted, failure lines); every output of every pass is checked."""
    attempted, failures = 0, []
    for call, samples, base in zip(calls, result.calls, result.baselines):
        pairs = [(call, out) for out in samples.outputs]
        if call.baseline is not None:
            pairs += [(call.baseline, out) for out in base.outputs]
        for which, out in pairs:
            attempted += 1
            if isinstance(out, Exception):
                err = f"raised {type(out).__name__}: {out}"
            else:
                err = which.check(out)
            if err is not None:
                failures.append(f"FAIL {name}: {which.replay}: {err}")
    return attempted, failures


def input_records(calls: list[Call], result: LoopResult) -> list[dict]:
    """Per-input record so a seed's input list can be diffed across commits."""
    records = []
    for call, samples in zip(calls, result.calls):
        rec = {"call": call.kind, "group": call.group,
               **{k: v for k, v in call.args.items() if not isinstance(v, ModPoly)}}
        first = samples.outputs[0]
        if call.kind == "full_pipeline" and not isinstance(first, Exception):
            rec["deg_f"] = first.rounds_used
            system = find_period_system(call.args["n"], (call.args["bits"] - 1) ** 2)
            rec["system"] = None if system is None else [[p.r, p.q] for p in system.pairs]
        rec["times_s"] = samples.times
        records.append(rec)
    return records


def end_to_end(calls: list[Call], result: LoopResult) -> dict[str, float]:
    """calls_per_s and latency_p50_s, plus the accuracy-cost ratios where defined.

    Call times are taken at the reference CPU speed (``calibrate``); the
    plain wall-clock figures are reported beside them as ``*_wall``.
    """
    def scaled(samples: Samples) -> list[float]:
        return [t * v for t, v in zip(samples.times, samples.speed)]

    times = [t for s in result.calls for t in scaled(s)]
    wall = [t for s in result.calls for t in s.times]
    busy = sum(times)
    out = {"calls_per_s": len(times) / busy, "latency_p50_s": statistics.median(times),
           "calls_per_s_wall": len(wall) / sum(wall),
           "latency_p50_s_wall": statistics.median(wall)}
    bits = 0
    for call, samples in zip(calls, result.calls):
        for verdict in samples.outputs:
            if hasattr(verdict, "rounds_used"):
                bits -= log2_eps_ab(call.args["n"], verdict.rounds_used)
    if bits:
        out["ab_s_per_bit"] = busy / bits
    base = [(c.baseline, s) for c, s in zip(calls, result.baselines) if c.baseline is not None]
    if base:
        out["mr_s_per_bit"] = (sum(t for _, s in base for t in scaled(s))
                               / sum(2 * c.args["rounds"] * len(s.times) for c, s in base))
    return out
