"""The traced run: spans around the public calls into each layer, recorded
from the benchmark's own code, plus kernel and instrument probes.

Each workload call is replayed as the sequence of public layer calls the
library makes for it, with the same seeds, so the traced run does the same
arithmetic as the untraced one:

- ``full_pipeline``: trial_division_stage, find_period_system,
  pseudofield_from_period_pair per pair, tensor_product per fold, then the
  deg f miller_rabin_round calls and the identity check (random_poly and
  two poly_pow_mod);
- ``combined_test``: the deg f rounds, trial_division_stage, the identity;
- the census calls are one span each.

A span records its name, start, end, parent, call id and the operation
counts ``count_operations()`` saw while it was innermost.  Spans stay in
memory and are written out when the run ends.  Counting switches
``mod_pow`` to its slower counted loop, so ``primality.mr_rounds`` spans
include that slowdown; ``instrument.count_overhead_frac`` measures it.
"""
from __future__ import annotations

import contextlib
import math
import random
import time
from collections import defaultdict
from typing import Iterator

import workloads as wls
from abprime import (
    ModPoly,
    combined_test,
    count_operations,
    find_period_system,
    miller_rabin_round,
    poly_mul_mod,
    poly_pow_mod,
    pseudofield_from_period_pair,
    random_poly,
    tensor_product,
    trial_division_stage,
)

# the per-layer stages whose inclusive time is reported, by span name
STAGES = (
    "primality.trial_division",
    "periodsys.find_period_system",
    "pseudofield.period_polynomial",
    "pseudofield.tensor_product",
    "primality.mr_rounds",
    "primality.identity",
    "census.root_count_in_extension",
    "census.ab_failure_census_mod_p",
    "census.mr_nonwitness_census",
    "census.heuristic_class_scan",
)
COUNT_OVERHEAD_RUNGS = ("64x64", "64x256")
# kernel probe shapes (modulus bits, deg f): the two cheap ladder rungs and
# the two rungs too slow to run end to end; 128x1024 packs ~280 kbit
# operands, the FFT break-even size
PROBE_SHAPES = ((64, 64), (64, 256), (128, 512), (128, 1024))
PROBE_MIN_SECONDS = 0.2


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str, call: int, group: str) -> Iterator[dict]:
        rec = {"id": len(self.spans), "name": name, "call": call, "group": group,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns() - self._origin
        try:
            with count_operations() as ops:
                yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns() - self._origin
            rec["int_mults"], rec["poly_mults"] = ops.int_mults, ops.poly_mults
            self._stack.pop()


# ---------------------------------------------------------------------------
# traced replays of the workload calls
# ---------------------------------------------------------------------------

def _mr_rounds(tr: Tracer, cid: int, group: str, n: int, deg: int,
               rng: random.Random) -> bool:
    with tr.span("primality.mr_rounds", cid, group):
        return all(miller_rabin_round(n, rng.randint(1, n - 1)) for _ in range(deg))


def _identity(tr: Tracer, cid: int, group: str, n: int, f: ModPoly, seed: int) -> bool:
    with tr.span("primality.identity", cid, group):
        with tr.span("polyring.random_poly", cid, group):
            h = random_poly(f.degree, n, seed)
        with tr.span("polyring.poly_pow_mod", cid, group):
            lhs = poly_pow_mod(h.add_constant(1), n, f)
        with tr.span("polyring.poly_pow_mod", cid, group):
            rhs = poly_pow_mod(h, n, f).add_constant(1)
    return lhs == rhs


def _trial_division(tr: Tracer, cid: int, group: str, n: int) -> bool:
    with tr.span("primality.trial_division", cid, group):
        return trial_division_stage(n) is None


def _traced_pipeline(tr: Tracer, cid: int, call: wls.Call) -> bool:
    """Replays full_pipeline(n, PipelineConfig(), seed); True when PRIME."""
    n, seed, group = call.args["n"], call.args["seed"], call.group
    with tr.span("call.full_pipeline", cid, group):
        ok = _trial_division(tr, cid, group, n)
        with tr.span("periodsys.find_period_system", cid, group) as rec:
            system = find_period_system(n, (n.bit_length() - 1) ** 2)
        rec["pairs"] = [[p.r, p.q] for p in system.pairs]
        fields = []
        for pair in system.pairs:
            with tr.span("pseudofield.period_polynomial", cid, group):
                fields.append(pseudofield_from_period_pair(n, pair))
        acc = fields[0]
        for nxt in fields[1:]:
            with tr.span("pseudofield.tensor_product", cid, group):
                acc = tensor_product(acc, nxt)
        f = acc.f
        rng = random.Random(random.Random(seed).getrandbits(64))
        ok = _mr_rounds(tr, cid, group, n, f.degree, rng) and ok
        ok = _identity(tr, cid, group, n, f, rng.getrandbits(64)) and ok
    return ok


def _traced_combined(tr: Tracer, cid: int, call: wls.Call) -> bool:
    """Replays combined_test(n, f, seed), then the miller_rabin baseline."""
    n, f, seed, group = call.args["n"], call.args["f"], call.args["seed"], call.group
    with tr.span("call.combined_test", cid, group):
        rng = random.Random(seed)
        ok = _mr_rounds(tr, cid, group, n, f.degree, rng)
        ok = _trial_division(tr, cid, group, n) and ok
        ok = _identity(tr, cid, group, n, f, rng.getrandbits(64)) and ok
    with tr.span("baseline.miller_rabin", cid, group):
        call.baseline.run()
    return ok


def _traced_census(tr: Tracer, cid: int, call: wls.Call):
    with tr.span("call." + call.kind, cid, call.group):
        with tr.span("census." + call.kind, cid, call.group):
            return call.run()


def traced_pass(calls: list[wls.Call]) -> tuple[Tracer, list[str], float]:
    """One traced pass; returns the spans, any mismatches and the wall time."""
    tr = Tracer()
    problems = []
    t0 = time.perf_counter()
    for cid, call in enumerate(calls):
        try:
            if call.kind == "full_pipeline":
                err = None if _traced_pipeline(tr, cid, call) else "not PRIME"
            elif call.kind == "combined_test":
                err = None if _traced_combined(tr, cid, call) else "not PRIME"
            else:
                err = call.check(_traced_census(tr, cid, call))
        except Exception as exc:  # a failed call is counted, not fatal
            err = f"raised {type(exc).__name__}: {exc}"
        if err is not None:
            problems.append(f"traced replay of {call.replay}: {err}")
    return tr, problems, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def _duration(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def layer_metrics(tr: Tracer, calls: list[wls.Call]) -> dict[str, float]:
    """Stage seconds (inclusive), module self seconds and shares, counts."""
    spans = tr.spans
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)
    call_spans = [s for s in spans if s["name"].startswith("call.")]
    call_wall = sum(_duration(s) for s in call_spans)
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = _duration(s)
        module = s["name"].split(".")[0]
        m[f"{module}.self_s"] += dur - child_time[s["id"]]
        m["intarith.int_mults"] += s["int_mults"]
        m["polyring.poly_mults"] += s["poly_mults"]
        if s["name"] in STAGES:
            m[s["name"] + "_s"] += dur
            m[f"{s['name']}_s.{s['group']}"] += dur
        if "pairs" in s:
            m["periodsys.system_degree"] += math.prod(q for _, q in s["pairs"])
            m["periodsys.max_r"] = max([m["periodsys.max_r"]] + [r for r, _ in s["pairs"]])
        m[f"polyring.poly_mults.{s['group']}"] += s["poly_mults"]
        m[f"intarith.int_mults.{s['group']}"] += s["int_mults"]
    for stage in STAGES:
        m[stage + "_share"] = m[stage + "_s"] / call_wall
    for module in ("primality", "periodsys", "pseudofield", "polyring", "census", "call"):
        m[f"{module}.share"] = m[f"{module}.self_s"] / call_wall
    m["trace.coverage"] = sum(child_time[s["id"]] for s in call_spans) / call_wall
    for call in calls:
        if call.kind == "combined_test" and m[f"polyring.poly_mults.{call.group}"]:
            m[f"polyring.ring_mul_us.{call.group}"] = (
                m[f"primality.identity_s.{call.group}"]
                / m[f"polyring.poly_mults.{call.group}"] * 1e6)
        elif call.kind == "ab_failure_census_mod_p":
            m["census.elements"] += call.args["p"] ** call.args["deg_f"]
    return dict(m)


# ---------------------------------------------------------------------------
# probes: kernels and counting cost on the identity-ladder rungs
# ---------------------------------------------------------------------------

def _best_time(fn, min_seconds: float = PROBE_MIN_SECONDS, min_reps: int = 5) -> float:
    """Fastest of repeated timings: the kernel's cost without other tenants' bursts."""
    times: list[float] = []
    while len(times) < min_reps or sum(times) < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def kron_operand_bits(n: int, deg: int) -> int:
    """Bits of one packed operand of a deg x deg product mod n, computed with
    the slot width polyring's Kronecker multiply uses."""
    nbits = 2 * (n - 1).bit_length() + deg.bit_length() + 1
    return (nbits + 7) // 8 * 8 * deg


def kernel_probes(seed: int) -> dict[str, float]:
    """poly_mul_mod with and without a reduction, per probe shape (bits x deg)."""
    m: dict[str, float] = {}
    rng = random.Random(f"probes/{seed}")
    for bits, deg in PROBE_SHAPES:
        rung = wls.rung_name(bits, deg)
        n = wls.prime_of_bits(rng, bits)
        f = wls.random_monic(rng, n, deg)
        s = rng.getrandbits(64)
        a, b = random_poly(deg, n, s), random_poly(deg, n, s + 1)
        wide = ModPoly(n, [0] * (2 * deg + 1) + [1])  # deg > 2 deg a: no reduction
        m[f"polyring.mul_us.{rung}"] = _best_time(lambda: poly_mul_mod(a, b, wide)) * 1e6
        m[f"polyring.mul_reduce_us.{rung}"] = _best_time(lambda: poly_mul_mod(a, b, f)) * 1e6
        m[f"polyring.kron_operand_kbit.{rung}"] = kron_operand_bits(n, deg) / 1000
    return m


def count_overhead(seed: int, pairs: int = 5) -> dict[str, float]:
    """combined_test wall with count_operations() on over off, minus one.

    On and off alternate, and each side keeps its fastest run."""
    m: dict[str, float] = {}
    firsts = {}
    for call in wls.identity_ladder(seed):
        firsts.setdefault(call.group, call.args)
    for rung in COUNT_OVERHEAD_RUNGS:
        n, f, s = firsts[rung]["n"], firsts[rung]["f"], firsts[rung]["seed"]
        off, on = [], []
        for i in range(pairs):
            for counted in ((False, True) if i % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if counted:
                    with count_operations():
                        combined_test(n, f, s)
                    on.append(time.perf_counter() - t0)
                else:
                    combined_test(n, f, s)
                    off.append(time.perf_counter() - t0)
        m[f"instrument.count_overhead_frac.{rung}"] = min(on) / min(off) - 1
    return m
