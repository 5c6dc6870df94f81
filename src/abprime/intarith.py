"""Modular integer arithmetic over Z/mZ.

Python ints are arbitrary precision, so they serve directly as the natural
number type; everything here is a plain function on ints.  The one wrinkle
worth a type of its own is inversion modulo a composite: a failed inversion
is not an error, it hands us a proper divisor of the modulus, and several
higher layers want exactly that by-product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .instrument import active_counter, binary_method_mults

__all__ = [
    "Inverse",
    "FactorFound",
    "InverseOutcome",
    "mod_pow",
    "gcd",
    "try_invert",
    "decompose_two_power",
    "strong_probable_prime",
    "floor_log2",
    "least_divisor",
    "strip_power",
    "factorize",
]


@dataclass(frozen=True)
class Inverse:
    """Successful inversion: value * input == 1  (mod modulus)."""

    value: int


@dataclass(frozen=True)
class FactorFound:
    """A proper divisor of the modulus, surfaced by a failed inversion."""

    divisor: int


InverseOutcome = Union[Inverse, FactorFound]


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus, computed by the built-in pow.

    With counting on, the active OpCounter is charged the modular
    multiplications of left-to-right binary exponentiation:
    bitlen(exponent) - 1 squarings plus popcount(exponent) - 1 multiplies.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError("negative exponent")
    counter = active_counter()
    if counter is not None:
        counter.int_mults += binary_method_mults(exponent)
    return pow(base, exponent, modulus)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; (0, 0) is rejected."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def try_invert(a: int, modulus: int) -> InverseOutcome:
    """Invert a modulo modulus, or extract the obstruction.

    Returns Inverse(v) with a*v == 1 (mod modulus) when gcd(a, modulus) == 1,
    otherwise FactorFound(gcd(a, modulus)) -- a proper divisor, since
    0 < a < modulus.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if not 0 < a < modulus:
        raise ValueError(f"need 0 < a < modulus, got a={a}")
    g = math.gcd(a, modulus)
    if g == 1:
        return Inverse(pow(a, -1, modulus))
    return FactorFound(g)


def decompose_two_power(n: int) -> tuple[int, int]:
    """Write n = 2**s * t with t odd; returns (s, t)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = (n & -n).bit_length() - 1
    return s, n >> s


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: is odd n > 2 a strong probable prime to base a,
    1 <= a <= n-1?  (Arguments are not checked.)

    Writes n-1 = 2^s * t with t odd and returns True iff a^t == 1 or
    a^(2^i t) == -1 mod n for some 0 <= i <= s-1.  False means a is a
    witness: n is certainly composite.  Counted as mod_pow(a, t, n) plus one
    multiplication per squaring.
    """
    s, t = decompose_two_power(n - 1)
    x = mod_pow(a, t, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = mod_pow(x, 2, n)
    return False


def floor_log2(n: int) -> int:
    """Largest k with 2**k <= n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n.bit_length() - 1


def least_divisor(n: int, limit: int) -> Optional[int]:
    """Least divisor of n in [2, limit], or None; when found it is prime."""
    return next((d for d in range(2, limit + 1) if n % d == 0), None)


def strip_power(n: int, p: int) -> tuple[int, int]:
    """Write n = p**v * m with p not dividing m, for n >= 1 and p >= 2;
    returns (v, m)."""
    if n < 1 or p < 2:
        raise ValueError(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by 6k+-1 trial division, as (p, e)
    pairs with p ascending; factorize(1) is empty."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    for d in (2, 3):
        if n % d == 0:
            e, n = strip_power(n, d)
            out.append((d, e))
    d = 5
    while d * d <= n:
        for cand in (d, d + 2):
            if n % cand == 0:
                e, n = strip_power(n, cand)
                out.append((cand, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out
