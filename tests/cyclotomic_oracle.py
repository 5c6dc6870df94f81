"""The power-basis cyclotomic ring, the tests' oracle for the period ring.

The library keeps a polynomial in a Gaussian period eta as its values on
the classes of one class table (pseudofield._eta_classes).  This module
keeps the whole cyclotomic ring (Z/NZ)[zeta_r] instead, on the power basis
1, zeta, ..., zeta^(r-2), the redundant zeta^(r-1) eliminated through
1 + zeta + ... + zeta^(r-1) = 0.  From it come eta, its conjugates, the
minimal polynomial of an element over a prime field, and sigma's shifted
periods on the basis 1, eta, ..., eta^(q-1), to check the library's class
values against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from abprime import ModPoly, PeriodPair, poly_pow_mod
from abprime.periodsys import is_small_prime
from abprime.polyring import _mul_coeffs
from abprime.pseudofield import _check_pair_args, _solve_columns, smallest_primitive_root


class CyclotomicElt:
    """Element of (Z/NZ)[zeta_r] on the power basis 1..zeta^(r-2)."""

    __slots__ = ("modulus", "r", "coords")

    def __init__(self, modulus: int, r: int, coords: Sequence[int]):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if r < 3 or not is_small_prime(r):
            raise ValueError(f"r must be an odd prime, got {r}")
        if len(coords) != r - 1:
            raise ValueError(f"need {r - 1} coordinates, got {len(coords)}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coords", tuple(c % modulus for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElt is immutable")

    @classmethod
    def from_slots(cls, modulus: int, r: int, slots: Sequence[int]) -> "CyclotomicElt":
        """Element sum(slots[i] * zeta^i, i < r), eliminating zeta^(r-1)."""
        if len(slots) != r:
            raise ValueError(f"need {r} slots, got {len(slots)}")
        top = slots[r - 1]
        return cls(modulus, r, [slots[i] - top for i in range(r - 1)])

    @classmethod
    def zero(cls, modulus: int, r: int) -> "CyclotomicElt":
        return cls(modulus, r, [0] * (r - 1))

    @classmethod
    def one(cls, modulus: int, r: int) -> "CyclotomicElt":
        return cls(modulus, r, [1] + [0] * (r - 2))

    @classmethod
    def zeta(cls, modulus: int, r: int) -> "CyclotomicElt":
        return cls(modulus, r, [0, 1] + [0] * (r - 3))

    def _compatible(self, other: "CyclotomicElt") -> None:
        if self.modulus != other.modulus or self.r != other.r:
            raise ValueError("mixed cyclotomic rings")

    def __add__(self, other: "CyclotomicElt") -> "CyclotomicElt":
        self._compatible(other)
        return CyclotomicElt(
            self.modulus, self.r,
            [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "CyclotomicElt") -> "CyclotomicElt":
        self._compatible(other)
        return CyclotomicElt(
            self.modulus, self.r,
            [a - b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other: "CyclotomicElt") -> "CyclotomicElt":
        """One ring multiplication: the product's 2r - 3 slots, those at
        i >= r folded onto i - r as zeta^r = 1."""
        self._compatible(other)
        m, r = self.modulus, self.r
        slots = _mul_coeffs(self.coords, other.coords, m)
        for i in range(r, len(slots)):
            slots[i - r] += slots[i]
        return CyclotomicElt.from_slots(m, r, slots[:r])

    def scale(self, c: int) -> "CyclotomicElt":
        return CyclotomicElt(self.modulus, self.r, [c * a for a in self.coords])

    def pow(self, e: int) -> "CyclotomicElt":
        # in (Z/NZ[x])/(Phi_r), Phi_r = 1 + x + ... + x^(r-1): the power
        # basis 1..zeta^(r-2) is its residue basis
        m, r = self.modulus, self.r
        p = poly_pow_mod(ModPoly(m, self.coords), e, ModPoly(m, [1] * r))
        return CyclotomicElt(m, r, p.coeffs + (0,) * (r - 1 - len(p.coeffs)))

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self.coords}")
        return self.coords[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclotomicElt)
                and self.modulus == other.modulus
                and self.r == other.r
                and self.coords == other.coords)

    def __repr__(self) -> str:
        return f"CyclotomicElt({self.modulus}, r={self.r}, {list(self.coords)})"


@dataclass(frozen=True)
class CyclotomicAut:
    """The automorphism sigma_a: zeta_r -> zeta_r^a (needs r prime, r ∤ a)."""

    r: int
    a: int

    def __post_init__(self):
        if self.a % self.r == 0:
            raise ValueError("a must be a unit mod r")


def cyc_apply_aut(e: CyclotomicElt, aut: CyclotomicAut) -> CyclotomicElt:
    """Image of e under zeta -> zeta^a, re-reduced to the power basis."""
    if aut.r != e.r:
        raise ValueError("automorphism for a different ring")
    slots = [0] * e.r
    for i, c in enumerate(e.coords):
        slots[(i * aut.a) % e.r] = (slots[(i * aut.a) % e.r] + c) % e.modulus
    return CyclotomicElt.from_slots(e.modulus, e.r, slots)


def qth_powers(r: int, q: int) -> list[int]:
    """The q-th power residues mod r: the exponents i of zeta^i in eta."""
    return sorted({pow(x, q, r) for x in range(1, r)})


def gaussian_period(r: int, q: int, n: int) -> CyclotomicElt:
    """The period eta_{r,q}: sum of zeta^i over the q-th power residues mod r."""
    _check_pair_args(r, q, n)
    slots = [0] * r
    for i in qth_powers(r, q):
        slots[i] = 1
    return CyclotomicElt.from_slots(n, r, slots)


def period_conjugates(r: int, q: int, n: int) -> list[CyclotomicElt]:
    """The q conjugate periods tau^m(eta), m = 0..q-1, for tau = sigma_g with
    g the smallest primitive root mod r."""
    _check_pair_args(r, q, n)
    g = smallest_primitive_root(r)
    eta = gaussian_period(r, q, n)
    return [cyc_apply_aut(eta, CyclotomicAut(r, pow(g, m, r))) for m in range(q)]


def shifted_periods(
    n: int, pair: PeriodPair, shifts: Sequence[int]
) -> Optional[list[list[int]]]:
    """sigma's oracle: the coordinates of tau^s(eta) on the basis 1, eta,
    ..., eta^(q-1) of the pair's ring over Z/nZ, one per s in shifts, by
    one elimination over all r - 1 power-basis coordinates; None when the
    powers of eta do not span them (a non-invertible pivot raises
    _FactorHit)."""
    conjs = period_conjugates(pair.r, pair.q, n)
    powers = [CyclotomicElt.one(n, pair.r)]
    for _ in range(pair.q - 1):
        powers.append(powers[-1] * conjs[0])
    return _solve_columns([list(e.coords) for e in powers],
                          [list(conjs[s % pair.q].coords) for s in shifts], n)


def min_poly_mod_prime(elt: CyclotomicElt, n: int, q: int) -> ModPoly:
    """The minimal polynomial, of degree q, of a cyclotomic element over the
    prime field F_n, by Gaussian elimination over F_n on its powers."""
    r = elt.r
    powers = [CyclotomicElt.one(n, r)]
    for _ in range(q):
        powers.append(powers[-1] * elt)
    cols = [list(p.coords) for p in powers]
    # solve sum(c_k * power_k) = power_q
    rows = [[cols[k][i] for k in range(q)] + [cols[q][i]] for i in range(r - 1)]
    rank = 0
    for col in range(q):
        piv = next(i for i in range(rank, r - 1) if rows[i][col] % n)
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, n)
        rows[rank] = [v * inv % n for v in rows[rank]]
        for i in range(r - 1):
            if i != rank and rows[i][col]:
                t = rows[i][col]
                rows[i] = [(a - t * b) % n for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return ModPoly(n, [(-rows[k][q]) % n for k in range(q)] + [1])
