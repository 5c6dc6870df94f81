"""Answers the benchmark checks abprime's outputs against, computed without abprime.

Root counts come from sympy's dense F_p arithmetic (``galoistools``): the
roots of g = (x+1)^n - x^n - 1 in F_{p^d} are the distinct linear factors
of gcd(g, x^{p^d} - x), so their number is that gcd's degree.  Miller-Rabin
nonwitness counts are recounted with the built-in ``pow``, one base at a
time.
"""
from __future__ import annotations

import functools
import random

import sympy
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ


def is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def random_irreducible(rng: random.Random, p: int, d: int) -> list[int]:
    """Seeded random monic irreducible of degree d over F_p, constant term first."""
    while True:
        high_first = [1] + [rng.randrange(p) for _ in range(d)]
        if gt.gf_irreducible_p(high_first, p, ZZ):
            return high_first[::-1]


def odd_composite(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if not sympy.isprime(n):
            return n


@functools.lru_cache(maxsize=None)
def distinct_roots_in_extension(n: int, p: int, d: int) -> int:
    """Number of roots of (x+1)^n - x^n - 1 in F_{p^d}: deg gcd(g, x^{p^d} - x)."""
    x = [1, 0]
    g = gt.gf_sub(gt.gf_sub(gt.gf_pow([1, 1], n, p, ZZ), [1] + [0] * n, p, ZZ),
                  [1], p, ZZ)
    frob = gt.gf_pow_mod(x, p**d, g, p, ZZ)
    return len(gt.gf_gcd(g, gt.gf_sub(frob, x, p, ZZ), p, ZZ)) - 1


@functools.lru_cache(maxsize=None)
def mr_nonwitness_count(n: int) -> int:
    """Bases a in [1, n-1] for which one Miller-Rabin round passes on odd n."""
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    count = 0
    for a in range(1, n):
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            count += 1
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                count += 1
                break
    return count


def class_scan_counts(k_max: int) -> dict[int, int]:
    """{N: nonwitness count} over N = (2k+1)(6k+1), k odd <= k_max, both prime."""
    out = {}
    for k in range(1, k_max + 1, 2):
        p, q = 2 * k + 1, 6 * k + 1
        if sympy.isprime(p) and sympy.isprime(q):
            out[p * q] = mr_nonwitness_count(p * q)
    return out
