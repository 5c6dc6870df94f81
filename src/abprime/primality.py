"""The primality tests: Miller-Rabin rounds, the polynomial-identity test,
their combination, and the end-to-end pipeline.

All tests are Monte Carlo with one-sided error: a prime input is never
called composite.  Every COMPOSITE verdict carries re-checkable evidence
(a divisor, a Miller-Rabin witness base, or the polynomial h for which the
identity (h+1)^N = h^N + 1 fails mod f).  Randomness always enters through
an integer seed, so a verdict is a pure function of (N, f, seed).
"""
from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .intarith import floor_log2, least_divisor, strong_probable_prime
from .polyring import ModPoly, poly_pow_mod, random_poly

__all__ = [
    "Outcome",
    "Divisor",
    "MRWitness",
    "ABPolynomial",
    "ConstructionFailure",
    "Evidence",
    "Verdict",
    "PipelineConfig",
    "trial_division_stage",
    "miller_rabin_round",
    "miller_rabin",
    "ab_test",
    "combined_test",
    "full_pipeline",
]


class Outcome(enum.Enum):
    PRIME = "PRIME"
    COMPOSITE = "COMPOSITE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Divisor:
    d: int


@dataclass(frozen=True)
class MRWitness:
    a: int


@dataclass(frozen=True)
class ABPolynomial:
    h: ModPoly


@dataclass(frozen=True)
class ConstructionFailure:
    note: str


Evidence = Union[Divisor, MRWitness, ABPolynomial, ConstructionFailure]


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    evidence: Optional[Evidence]
    seed: int
    rounds_used: int

    def exit_code(self) -> int:
        return {Outcome.PRIME: 0, Outcome.COMPOSITE: 1, Outcome.UNKNOWN: 2}[self.outcome]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full pipeline.

    c: degree exponent; the target degree is ceil(floor_log2(N)**c).
    degree_override: use this degree target instead of the c-derived one.
    fallback_policy: what to do when no polynomial can be constructed:
      "fail" returns UNKNOWN, "weak_random_f" falls back to a random monic f
      (losing the constructed-f accuracy guarantee, which the verdict then
      records as construction_failure evidence).
    """

    c: Fraction = field(default_factory=lambda: Fraction(2))
    degree_override: Optional[int] = None
    fallback_policy: str = "fail"

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.degree_override is not None and self.degree_override < 2:
            raise ValueError("degree_override must be >= 2")
        if self.fallback_policy not in ("fail", "weak_random_f"):
            raise ValueError(f"unknown fallback policy {self.fallback_policy!r}")


def trial_division_stage(n: int) -> Optional[int]:
    """Smallest divisor of n in [2, floor_log2(n)], or None.

    This is the cheap small-factor screen the polynomial-identity test runs
    first; the upper bound is the base-2 integer logarithm.
    """
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    return least_divisor(n, floor_log2(n))


def miller_rabin_round(n: int, a: int) -> bool:
    """One strong-pseudoprimality check of n at base a: the checked front of
    intarith.strong_probable_prime.  True means probable prime; False means
    a is a witness, so n is certainly composite.
    """
    if n <= 2 or n % 2 == 0:
        raise ValueError(f"need odd n > 2, got {n}")
    if not 1 <= a <= n - 1:
        raise ValueError(f"base must be in [1, n-1], got {a}")
    return strong_probable_prime(n, a)


def _mr_rounds(
    n: int, rounds: int, rng: random.Random, seed: int
) -> Optional[Verdict]:
    """Up to `rounds` Miller-Rabin rounds on odd n > 2 at bases drawn from rng;
    the COMPOSITE verdict of the first witness, or None if every round passes."""
    for k in range(rounds):
        a = rng.randint(1, n - 1)
        if not miller_rabin_round(n, a):
            return Verdict(Outcome.COMPOSITE, MRWitness(a), seed, k + 1)
    return None


def miller_rabin(n: int, rounds: int, seed: int) -> Verdict:
    """Miller-Rabin test with uniformly random bases in [1, n-1]."""
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if n == 2:
        return Verdict(Outcome.PRIME, None, seed, 0)
    if n % 2 == 0:
        return Verdict(Outcome.COMPOSITE, Divisor(2), seed, 0)
    found = _mr_rounds(n, rounds, random.Random(seed), seed)
    if found is not None:
        return found
    return Verdict(Outcome.PRIME, None, seed, rounds)


def _check_test_args(n: int, f: ModPoly) -> None:
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    if f.modulus != n:
        raise ValueError("f must be a polynomial over Z/nZ")
    if not f.is_monic() or not 1 <= f.degree < n:
        raise ValueError("f must be monic with 1 <= deg f < n")


def ab_test(n: int, f: ModPoly, seed: int) -> Verdict:
    """Polynomial-identity test: does (h+1)^n == h^n + 1 hold mod f?

    Runs the trial-division screen, then draws one uniformly random h of
    degree < deg f and compares both sides, each computed with a single
    sliding-window exponentiation, which spends no more ring
    multiplications than the binary method (so at most 4*bitlen(n) in
    all).
    The accuracy guarantee on composite n requires f to be irreducible
    modulo a prime factor of n; that is the caller's contract, nothing
    here can check it.
    """
    _check_test_args(n, f)
    d = trial_division_stage(n)
    if d is not None:
        return Verdict(Outcome.COMPOSITE, Divisor(d), seed, 0)
    h = random_poly(f.degree, n, seed)
    lhs = poly_pow_mod(h.add_constant(1), n, f)
    rhs = poly_pow_mod(h, n, f).add_constant(1)
    if lhs == rhs:
        return Verdict(Outcome.PRIME, None, seed, 0)
    return Verdict(Outcome.COMPOSITE, ABPolynomial(h), seed, 0)


def combined_test(n: int, f: ModPoly, seed: int) -> Verdict:
    """deg f Miller-Rabin rounds, then one polynomial-identity test.

    Any COMPOSITE short-circuits.  rounds_used reports the Miller-Rabin
    rounds performed; on the non-short-circuited path it is exactly deg f.
    """
    _check_test_args(n, f)
    if n > 2 and n % 2 == 0:
        return Verdict(Outcome.COMPOSITE, Divisor(2), seed, 1)
    rng = random.Random(seed)
    # n == 2 has no base to draw; it goes straight to the identity test
    found = _mr_rounds(n, f.degree if n > 2 else 0, rng, seed)
    if found is not None:
        return found
    inner = ab_test(n, f, rng.getrandbits(64))
    return Verdict(inner.outcome, inner.evidence, seed, f.degree)


def target_degree(n: int, config: PipelineConfig) -> int:
    """Degree target: the override, or ceil(floor_log2(n)**c), at least 2.

    Raises ValueError when floor_log2(n)**c is too large for a float."""
    if config.degree_override is not None:
        return config.degree_override
    try:
        return max(2, math.ceil(floor_log2(n) ** float(config.c)))
    except OverflowError:
        raise ValueError(
            f"degree target floor_log2(N)^c overflows at c = {config.c}") from None


def _random_monic(n: int, degree: int, rng: random.Random) -> ModPoly:
    """x^degree plus a uniformly random lower part, seeded by one 64-bit draw
    from rng."""
    return random_poly(degree, n, rng.getrandbits(64)) + ModPoly(n, [0] * degree + [1])


def full_pipeline(n: int, config: PipelineConfig, seed: int) -> Verdict:
    """Construct a defining polynomial for n, then run the combined test.

    The construction (period system -> composed product of the period
    polynomials, one Euclid for several pairs) may itself prove n
    composite, in which case that verdict is returned with the divisor
    found.  When no polynomial of the target degree exists at this size,
    the configured fallback policy decides between UNKNOWN and a weakened
    run with a random monic f.
    """
    # imported here: pseudofield sits above this module in the layer order
    from .pseudofield import Constructed, TensorDependency, construct_poly_pipeline

    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    if n == 2:
        return Verdict(Outcome.PRIME, None, seed, 0)
    if n % 2 == 0:
        return Verdict(Outcome.COMPOSITE, Divisor(2), seed, 0)
    d_target = target_degree(n, config)
    rng = random.Random(seed)
    result = None
    note = f"no period system of degree in [{d_target}, {2 * d_target}) found"
    if n > 2 * d_target:
        try:
            result = construct_poly_pipeline(n, d_target)
        except TensorDependency as exc:
            result, note = None, str(exc)
    else:
        note = f"degree target {d_target} needs n > {2 * d_target}"
    if result is not None and not isinstance(result, Constructed):
        # a factor of n surfaced during construction
        return Verdict(Outcome.COMPOSITE, Divisor(result.divisor), seed, 0)
    if isinstance(result, Constructed):
        inner = combined_test(n, result.f, rng.getrandbits(64))
        return Verdict(inner.outcome, inner.evidence, seed, inner.rounds_used)
    if config.fallback_policy == "fail":
        return Verdict(Outcome.UNKNOWN, ConstructionFailure(note), seed, 0)
    if d_target >= n:
        return Verdict(
            Outcome.UNKNOWN,
            ConstructionFailure(note + f"; fallback degree {d_target} >= n"),
            seed, 0)
    f = _random_monic(n, d_target, rng)
    inner = combined_test(n, f, rng.getrandbits(64))
    if inner.outcome is Outcome.PRIME:
        # the guarantee that needs a constructed f is gone; say so
        return Verdict(Outcome.PRIME, ConstructionFailure(note), seed, inner.rounds_used)
    return Verdict(inner.outcome, inner.evidence, seed, inner.rounds_used)
