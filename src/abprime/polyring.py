"""Dense polynomial arithmetic over Z/NZ and the residue ring (Z/NZ[x])/(f).

A ModPoly is an immutable dense coefficient vector, constant term first,
with every coefficient reduced into [0, N) and no trailing zeros; the zero
polynomial is the empty vector with degree -1.  Reduction is only ever by a
monic modulus, so no coefficient divisions are needed and the arithmetic is
valid over Z/NZ for composite N.

Multiplication has a schoolbook path and a Kronecker-substitution path that
packs coefficients into one big integer (gmpy2 when available); schoolbook
runs when the shorter operand has fewer than _KRONECKER_MIN coefficients.
Reduction by a monic f has a schoolbook path and a Newton-reciprocal path
for large degrees.  The schoolbook division runs in place and leaves the
quotient above the remainder, so Euclid in poly_is_unit_mod uses the same
loop.  The paths agree coefficient for coefficient; thresholds are tuning
constants only.

Text serialization is a single line ``N; c0,c1,...,cd`` with decimal
integers, index = degree.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence, Union

from .instrument import active_counter, binary_method_mults
from .intarith import FactorFound, try_invert

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - gmpy2 is an optional accelerator
    _mpz = int

__all__ = [
    "ModPoly",
    "Unit",
    "NonUnit",
    "UnitOutcome",
    "poly_mul_mod",
    "poly_pow_mod",
    "random_poly",
    "poly_is_unit_mod",
]

_KRONECKER_MIN = 10  # shorter length below which schoolbook wins
_NEWTON_MIN_DEGREE = 48


class ModPoly:
    """Dense polynomial over Z/NZ, canonical (reduced, no trailing zeros)."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Sequence[int] = ()):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        cs = [c % modulus for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ModPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, modulus: int) -> "ModPoly":
        return cls(modulus)

    @classmethod
    def one(cls, modulus: int) -> "ModPoly":
        return cls(modulus, (1,))

    @classmethod
    def x(cls, modulus: int) -> "ModPoly":
        return cls(modulus, (0, 1))

    @classmethod
    def constant(cls, modulus: int, c: int) -> "ModPoly":
        return cls(modulus, (c,))

    # -- basic queries -----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the canonical form; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations not needing a modulus polynomial ------------------
    def __add__(self, other: "ModPoly") -> "ModPoly":
        m = self._same_modulus(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % m
        return ModPoly(m, out)

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        m = self._same_modulus(other)
        out = [0] * max(len(self.coeffs), len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] - c) % m
        return ModPoly(m, out)

    def __neg__(self) -> "ModPoly":
        return ModPoly(self.modulus, [-c for c in self.coeffs])

    def add_constant(self, c: int) -> "ModPoly":
        out = list(self.coeffs) or [0]
        out[0] = (out[0] + c) % self.modulus
        return ModPoly(self.modulus, out)

    def reduce_to_modulus(self, p: int) -> "ModPoly":
        """The image of this polynomial with coefficients taken mod p."""
        return ModPoly(p, self.coeffs)

    def _same_modulus(self, other: "ModPoly") -> int:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")
        return self.modulus

    # -- equality / hashing / display ---------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, ModPoly)
                and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

    def __repr__(self) -> str:
        return f"ModPoly({self.modulus}, {list(self.coeffs)})"

    # -- serialization -------------------------------------------------------
    def to_line(self) -> str:
        return f"{self.modulus}; " + ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_line(cls, line: str) -> "ModPoly":
        head, sep, rest = line.strip("\n").partition("; ")
        if not sep:
            raise ValueError("expected 'N; c0,c1,...' with a '; ' separator")
        modulus = int(head)
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        rest = rest.strip()
        if not rest:
            return cls(modulus)
        coeffs = [int(tok) for tok in rest.split(",")]
        for c in coeffs:
            if not 0 <= c < modulus:
                raise ValueError(f"coefficient {c} out of range [0, {modulus})")
        return cls(modulus, coeffs)


@dataclass(frozen=True)
class Unit:
    """u is invertible mod f; inverse is the certificate (u*inverse == 1 mod f)."""

    inverse: ModPoly


@dataclass(frozen=True)
class NonUnit:
    """u and f have the nonconstant monic gcd divisor (f itself when u = 0)."""

    divisor: ModPoly


UnitOutcome = Union[Unit, NonUnit, FactorFound]


# ---------------------------------------------------------------------------
# coefficient-vector kernels (plain lists, no canonicalization)
# ---------------------------------------------------------------------------

def _mul_schoolbook(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % m for c in out]


def _mul_kronecker(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    # Pack each coefficient into a fixed byte-aligned slot and do a single
    # big-integer multiply; slot width leaves room for the column sums.
    nbits = 2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (nbits + 7) // 8
    pa = _pack(a, width)
    pb = _pack(b, width)
    prod = int(_mpz(pa) * _mpz(pb))
    n = len(a) + len(b) - 1
    raw = prod.to_bytes(width * (n + 1), "little")
    return [int.from_bytes(raw[i:i + width], "little") % m
            for i in range(0, width * n, width)]


def _pack(coeffs: Sequence[int], width: int) -> int:
    return int.from_bytes(
        b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _mul_coeffs(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    # the shorter operand decides; two plain tests beat min() on tiny products
    if len(a) < _KRONECKER_MIN or len(b) < _KRONECKER_MIN:
        return _mul_schoolbook(a, b, m)
    return _mul_kronecker(a, b, m)


def _divmod_schoolbook(c: list[int], f: Sequence[int], m: int) -> None:
    """Divide c by the monic f in place: afterwards c[:deg f] holds the
    remainder and c[deg f:] the quotient, constant term first."""
    d = len(f) - 1
    for i in range(len(c) - 1, d - 1, -1):
        t = c[i]
        if t:
            for j in range(d):
                if f[j]:
                    c[i - d + j] = (c[i - d + j] - t * f[j]) % m


class _Reducer:
    """Reduction modulo one fixed monic f, with a cached Newton reciprocal."""

    def __init__(self, f: ModPoly):
        self.f = list(f.coeffs)
        self.m = f.modulus
        self.d = f.degree
        self._recip: list[int] | None = None

    def reduce(self, c: list[int]) -> list[int]:
        if len(c) <= self.d:
            return c
        if self.d < _NEWTON_MIN_DEGREE:
            _divmod_schoolbook(c, self.f, self.m)
            del c[self.d:]
            return c
        return self._reduce_newton(c)

    def _reciprocal(self, k: int) -> list[int]:
        # inverse of rev(f) modulo x^k; rev(f) has constant term 1 (f monic)
        if self._recip is None or len(self._recip) < k:
            frev = self.f[::-1]
            g = [1]
            kk = 1
            while kk < k:
                kk = min(2 * kk, k)
                fg = _mul_coeffs(frev[:kk], g, self.m)[:kk]
                corr = [(-v) % self.m for v in fg]
                corr[0] = (corr[0] + 2) % self.m
                g = _mul_coeffs(g, corr, self.m)[:kk]
            self._recip = g
        return self._recip[:k]

    def _reduce_newton(self, c: list[int]) -> list[int]:
        qlen = len(c) - self.d  # deg quotient + 1
        crev = c[::-1]
        qrev = _mul_coeffs(crev[:qlen], self._reciprocal(qlen), self.m)[:qlen]
        q = qrev[::-1]
        qf = _mul_coeffs(q, self.f, self.m)
        return [(ci - qi) % self.m for ci, qi in zip(c[:self.d], qf[:self.d])]


@functools.lru_cache(maxsize=32)
def _reducer_for(f: ModPoly) -> _Reducer:
    return _Reducer(f)


def _check_ring_args(a: ModPoly, b: ModPoly, f: ModPoly) -> None:
    if a.modulus != f.modulus or b.modulus != f.modulus:
        raise ValueError("operands and modulus polynomial must share a modulus")
    if not f.is_monic() or f.degree < 1:
        raise ValueError("modulus polynomial must be monic of degree >= 1")
    if a.degree >= f.degree or b.degree >= f.degree:
        raise ValueError("operands must have degree < deg f")


# ---------------------------------------------------------------------------
# public ring operations
# ---------------------------------------------------------------------------

def poly_mul_mod(a: ModPoly, b: ModPoly, f: ModPoly) -> ModPoly:
    """a*b reduced modulo the monic polynomial f; one ring multiplication."""
    _check_ring_args(a, b, f)
    counter = active_counter()
    if counter is not None:
        counter.poly_mults += 1
    prod = _mul_coeffs(a.coeffs, b.coeffs, f.modulus)
    return ModPoly(f.modulus, _reducer_for(f).reduce(prod))


def poly_pow_mod(a: ModPoly, e: int, f: ModPoly) -> ModPoly:
    """a**e mod f by left-to-right binary exponentiation.

    Uses bitlen(e) - 1 squarings plus popcount(e) - 1 multiplies, tallied
    on the active OpCounter.
    """
    if e < 0:
        raise ValueError("negative exponent")
    _check_ring_args(a, a, f)
    counter = active_counter()
    if counter is not None:
        counter.poly_mults += binary_method_mults(e)
    if e == 0:
        return ModPoly.one(f.modulus)
    reducer = _reducer_for(f)
    m = f.modulus
    base = list(a.coeffs)
    cur = base[:]
    for bit in bin(e)[3:]:
        cur = reducer.reduce(_mul_coeffs(cur, cur, m))
        if bit == "1":
            cur = reducer.reduce(_mul_coeffs(cur, base, m))
    return ModPoly(m, cur)


def random_poly(max_deg_exclusive: int, modulus: int, seed: int) -> ModPoly:
    """Uniformly random polynomial of degree < max_deg_exclusive.

    All max_deg_exclusive coefficients are drawn independently and uniformly
    from [0, modulus); the result is canonicalized, so the sampled degree may
    be smaller.  A fixed seed gives a fixed polynomial.
    """
    if max_deg_exclusive < 1:
        raise ValueError("need max_deg_exclusive >= 1")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    rng = random.Random(seed)
    return ModPoly(modulus, [rng.randrange(modulus) for _ in range(max_deg_exclusive)])


def poly_is_unit_mod(u: ModPoly, f: ModPoly) -> UnitOutcome:
    """Classify u as a unit of (Z/NZ[x])/(f) by extended Euclid.

    Returns Unit(inverse) when the gcd computation terminates in an
    invertible constant, NonUnit(gcd) when a nonconstant monic gcd survives
    (f when u is zero), and FactorFound(d) as soon as a leading-coefficient
    inversion exposes a proper divisor d of N.
    """
    if u.modulus != f.modulus:
        raise ValueError("modulus mismatch")
    if not f.is_monic() or f.degree < 1:
        raise ValueError("modulus polynomial must be monic of degree >= 1")
    if u.degree >= f.degree:
        raise ValueError("need deg u < deg f")
    if u.is_zero():
        return NonUnit(f)
    m = f.modulus
    # invariant: r_i == s_i * u  (mod f); f itself enters with s = 0
    r0, s0 = f, ModPoly.zero(m)
    r1, s1 = u, ModPoly.one(m)
    while True:
        lead = r1.coeffs[-1]
        if lead != 1:
            out = try_invert(lead, m)
            if isinstance(out, FactorFound):
                return out
            r1 = ModPoly(m, [c * out.value for c in r1.coeffs])
            s1 = ModPoly(m, [c * out.value for c in s1.coeffs])
        if r1.degree == 0:
            return Unit(ModPoly(m, _reducer_for(f).reduce(list(s1.coeffs))))
        # long-divide r0 by the now monic r1, updating the s-track alongside
        c, db = list(r0.coeffs), r1.degree
        _divmod_schoolbook(c, r1.coeffs, m)
        r0, s0, r1, s1 = (r1, s1, ModPoly(m, c[:db]),
                          s0 - ModPoly(m, _mul_coeffs(c[db:], s1.coeffs, m)))
        if r1.is_zero():
            return NonUnit(r0)
