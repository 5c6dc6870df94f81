"""Period pairs and period systems.

A period pair for N is a pair of primes (r, q) with r not dividing N,
q | r-1, and N^((r-1)/q) of multiplicative order exactly q mod r -- i.e.
the class of N generates the order-q quotient of (Z/rZ)^x.  A period
system is a set of pairs with pairwise distinct (hence coprime) q, and its
degree is the product of the q's.

The search below enumerates candidate primes r ascending, keeps the
smallest admissible r for each prime q, and then picks the subset of q's
whose product lands in the target window [D, 2D), preferring the smallest
degree (ties broken by lexicographic q-list).  The asymptotic theory backs
the search only for astronomically large N and D; at desk scale the
enumeration bounds are fixed caps, r < max(64, 16D) and q < 2D, and the
search is best-effort: when nothing fits, it honestly returns None.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .intarith import factorize

__all__ = [
    "PeriodPair",
    "PeriodSystem",
    "is_small_prime",
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


def is_small_prime(n: int) -> bool:
    """Deterministic trial-division primality (fine for desk-scale n)."""
    return n >= 2 and factorize(n) == [(n, 1)]


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
    y = pow(n, (r - 1) // q, r)
    # q prime, so ord(y) | q means ord(y) is 1 or q; y^q == 1 holds by Fermat
    # but is rechecked rather than assumed.
    return y != 1 and pow(y, q, r) == 1


def system_degree(system: PeriodSystem) -> int:
    """Product of the q's (1 for the empty system)."""
    return reduce(lambda acc, p: acc * p.q, system.pairs, 1)


def find_period_system(n: int, degree_target: int) -> Optional[PeriodSystem]:
    """Search for a period system for n of degree in [D, 2D), D = degree_target.

    Scans primes r ascending below max(64, 16*D); for each prime q | r-1
    below 2D (which any usable q must satisfy) keeps the smallest r making
    (r, q) a period pair for n.  Deterministic: the same (n, D) always
    yields the same system.
    """
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    if degree_target < 2:
        raise ValueError("degree target must be >= 2")
    best_r: dict[int, int] = {}
    for r in range(3, max(64, 16 * degree_target)):
        if not is_small_prime(r):
            continue
        for q, _ in factorize(r - 1):
            if q < 2 * degree_target and q not in best_r and is_period_pair(n, r, q):
                best_r[q] = r

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
