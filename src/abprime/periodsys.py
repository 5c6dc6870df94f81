"""Period pairs and period systems.

A period pair for N is a pair of primes (r, q) with r not dividing N,
q | r-1, and N^((r-1)/q) of multiplicative order exactly q mod r -- i.e.
the class of N generates the order-q quotient of (Z/rZ)^x.  A period
system is a set of pairs with pairwise distinct (hence coprime) q, and its
degree is the product of the q's.

The search below takes the primes r from a sieve of Eratosthenes run in
fixed-size segments, ascending, factors r-1 by trial division, keeps the
smallest admissible r for each prime q, and then picks the subset of q's
whose product lands in the target window [D, 2D), preferring the smallest
degree (ties broken by lexicographic q-list).  The asymptotic theory backs
the search only for astronomically large N and D; at desk scale the
enumeration bounds are fixed caps, r < max(64, 16D) and q < 2D, and the
search is best-effort: when nothing fits, it honestly returns None.

Other primes (the r and q handed to is_period_pair and the pseudofield
checks) are certified by is_small_prime: Miller-Rabin at the
first twelve prime bases, a proof of primality below
PSI_12 = 318665857834031151167461, the least strong pseudoprime to all of
them (Sorenson and Webster, Strong pseudoprimes to twelve prime bases,
Math. Comp. 86, 2017), and trial division from there on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional

from .intarith import factorize, strong_probable_prime

__all__ = [
    "PeriodPair",
    "PeriodSystem",
    "is_small_prime",
    "primes_below",
    "multiplicative_order",
    "is_period_pair",
    "find_period_system",
    "system_degree",
]


@dataclass(frozen=True, order=True)
class PeriodPair:
    r: int
    q: int


@dataclass(frozen=True)
class PeriodSystem:
    """Pairs sorted by q ascending; degree is the product of the q's."""

    pairs: tuple[PeriodPair, ...]
    degree: int


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461
_SEGMENT = 1 << 15


def is_small_prime(n: int) -> bool:
    """Deterministic primality of an integer n.

    n is prime if it is one of the first twelve primes 2..37 and composite
    if one of them divides it.  Below PSI_12 a strong-probable-prime round
    at each of these bases then proves n prime or composite (Sorenson and
    Webster 2017); at or above PSI_12, trial division decides.
    """
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    if n < PSI_12:
        return all(strong_probable_prime(n, a) for a in _BASES)
    return factorize(n) == [(n, 1)]


def primes_below(limit: int) -> Iterator[int]:
    """The primes p < limit, ascending.

    A sieve of Eratosthenes over segments of _SEGMENT numbers: memory is one
    segment plus the primes up to sqrt(limit) met so far, whatever limit is.
    """
    sieving: list[int] = []  # the primes p with p*p < limit met so far
    lo = 2
    while lo < limit:
        hi = min(lo + _SEGMENT, limit)
        seg = bytearray([1]) * (hi - lo)
        for p in sieving:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p) - lo
            seg[start::p] = bytes(len(range(start, hi - lo, p)))
        # primes inside the segment that sieve it: only in the first one
        for p in range(lo, min(hi, math.isqrt(hi - 1) + 1)):
            if seg[p - lo]:
                seg[p * p - lo::p] = bytes(len(range(p * p - lo, hi - lo, p)))
        i = seg.find(1)
        while i >= 0:
            p = lo + i
            if p * p < limit:
                sieving.append(p)
            yield p
            i = seg.find(1, i + 1)
        lo = hi


def multiplicative_order(a: int, r: int) -> int:
    """Order of a in (Z/rZ)^x by direct search; requires gcd(a, r) == 1."""
    a %= r
    if a == 0:
        raise ValueError("a must be a unit mod r")
    x, k = a, 1
    while x != 1:
        x = x * a % r
        k += 1
        if k > r:
            raise ValueError("a is not a unit mod r")
    return k


def is_period_pair(n: int, r: int, q: int) -> bool:
    """True iff (r, q) is a period pair for n; False on any malformed input."""
    if n <= 1 or r <= 2 or q <= 1:
        return False
    if not is_small_prime(r) or not is_small_prime(q):
        return False
    if (r - 1) % q != 0 or n % r == 0:
        return False
    return _generates_order_q(n, r, q)


def _generates_order_q(n: int, r: int, q: int) -> bool:
    """The order test of a period pair, for primes r and q | r-1, r not
    dividing n: does n^((r-1)/q) have order exactly q mod r?"""
    y = pow(n, (r - 1) // q, r)
    # q prime, so ord(y) | q means ord(y) is 1 or q; y^q == 1 holds by Fermat
    # but is rechecked rather than assumed.
    return y != 1 and pow(y, q, r) == 1


def system_degree(system: PeriodSystem) -> int:
    """Product of the q's (1 for the empty system)."""
    return reduce(lambda acc, p: acc * p.q, system.pairs, 1)


def find_period_system(n: int, degree_target: int) -> Optional[PeriodSystem]:
    """Search for a period system for n of degree in [D, 2D), D = degree_target.

    Takes the primes r below max(64, 16*D) ascending from primes_below's
    segmented sieve, so memory stays bounded whatever D is; for each prime
    q | r-1 below 2D (which any usable q must satisfy), found by trial
    division of r-1, keeps the smallest r making (r, q) a period pair for
    n.  Sieve and factorization prove r and q prime, so only the order test
    of is_period_pair runs.  Deterministic: the same (n, D) always yields
    the same system.
    """
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    if degree_target < 2:
        raise ValueError("degree target must be >= 2")
    best_r: dict[int, int] = {}
    for r in primes_below(max(64, 16 * degree_target)):
        if n % r == 0:
            continue
        for q, _ in factorize(r - 1):
            if q < 2 * degree_target and q not in best_r and _generates_order_q(n, r, q):
                best_r[q] = r
    return _smallest_system(best_r, degree_target)


def _smallest_system(
    best_r: dict[int, int], degree_target: int
) -> Optional[PeriodSystem]:
    """The system of least degree in [D, 2D) (ties: lexicographic q-list)
    whose pairs are (best_r[q], q) for q in a subset of best_r."""
    qs = sorted(best_r)
    lo, hi = degree_target, 2 * degree_target
    best: Optional[tuple[int, tuple[int, ...]]] = None

    def extend(start: int, prod: int, chosen: list[int]) -> None:
        nonlocal best
        if lo <= prod < hi:
            cand = (prod, tuple(chosen))
            if best is None or cand < best:
                best = cand
        for j in range(start, len(qs)):
            nxt = prod * qs[j]
            if nxt >= hi:
                break  # qs ascending, no later branch can fit
            if best is not None and nxt > best[0]:
                continue
            chosen.append(qs[j])
            extend(j + 1, nxt, chosen)
            chosen.pop()

    extend(0, 1, [])
    if best is None:
        return None
    pairs = tuple(PeriodPair(best_r[q], q) for q in best[1])
    return PeriodSystem(pairs, best[0])
