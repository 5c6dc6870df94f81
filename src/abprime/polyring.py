"""Dense polynomial arithmetic over Z/NZ and the residue ring (Z/NZ[x])/(f).

A ModPoly is an immutable dense coefficient vector, constant term first,
with every coefficient reduced into [0, N) and no trailing zeros; the zero
polynomial is the empty vector with degree -1.  Reduction is only ever by a
monic modulus, so no coefficient divisions are needed and the arithmetic is
valid over Z/NZ for composite N.

Multiplication has a schoolbook path and a Kronecker-substitution path;
schoolbook runs when the shorter operand has fewer than _KRONECKER_MIN
coefficients.  The Kronecker path is Harvey's two-point substitution
(KS2; Faster polynomial multiplication via multipoint Kronecker
substitution, JSC 2009): with slots of W bytes and b = 4W bits, one pack
of the even and one of the odd coefficients give A(2^b) = E + (O << b) and
A(-2^b) = E - (O << b), each point is multiplied once (squared for a
square), and the product's even and odd coefficients are (h+ + h-) >> 1
and (h+ - h-) >> (b + 1), both exact.  Two products of half the bits
replace one.

A ring multiplication mod a monic f follows the same rule: with an operand
shorter than _KRONECKER_MIN it is schoolbook, then schoolbook division.
Otherwise _Reducer works on packed elements, the KS2 packs of the even and
the odd coefficients, and unpacks nothing inside a product: the quotient
is read off the packed product with Barrett's mu = x^(2d-2) div f, the
remainder is formed on the packs with a bias that keeps every slot
nonnegative, and a slot-parallel Barrett reduction brings every slot back
into [0, N) with a few big-integer operations.  poly_pow_mod_many (and
poly_pow_mod, its one-base case) mod an f of degree at least
_KRONECKER_MIN packs each base once, keeps the ladder packed, short bases
included, and unpacks each result once.  Its ladder is
instrument.binary_power: a sliding window of window_width(e) bits for a
base of at least _KRONECKER_MIN coefficients, the binary method (width 1)
for a shorter base, whose products are linear passes.  The bases of one
width run in lockstep on one ladder over the tuple of them: each step
multiplies every row, and each product of the step is one batched call
for all of them.

Ring multiplication has three tiers, set by one rule of sizes and no
option: schoolbook below _KRONECKER_MIN coefficients; packed, with KS2
int.__mul__ products, below _TRANSFORM_MIN bits of pack (the shorter
factor's slots times their B bits); packed, with floating-point transform
products (_Transform), from there on.  A transform product reads the KS1
pack of each factor, its slots in order, as 16-bit digits (8-bit ones
where Percival's error bound for floating-point FFT products, Math. Comp.
72, 2003, does not keep 16-bit ones below _ROUNDING_LIMIT), convolves
them by numpy.fft.rfft/irfft, and rounds and carries the result back
into packs; the rows of a lockstep step share one call of each numpy
pass.  A square takes one forward transform, the spectra of mu and f are
kept per f, and q*f, of which the remainder reads only the low d
coefficients, is taken mod x^L - 1 (L > d, even) at about half the
length, c being folded mod x^L - 1 to match.  So a ring squaring takes 4
transforms of the full length and 2 of the half one, and a ring multiply
one more of the full length, where 9 of the full length would do without
these.  A guard checks every rounded digit: when one lies further than
_ROUNDING_LIMIT from its computed value, that row's product alone is
recomputed by int.__mul__, so no rounding error reaches a result.
numpy is imported on the first reducer of the transform tier, never by
importing this module.  The tiers agree
coefficient for coefficient: _KRONECKER_MIN and _TRANSFORM_MIN are
tuning constants, measured break-evens, and _ROUNDING_LIMIT is an error
budget.

Euclid (poly_is_unit_mod, and the gcd-only _euclid) keeps each remainder
and each Bezout multiplier as one pack, slot i holding coefficient i: a
division step is a short scalar division on the top slots, one
big-by-small product, a bias that keeps every slot nonnegative and the
same slot-parallel Barrett reduction, whatever the degree.

Text serialization is a single line ``N; c0,c1,...,cd`` with decimal
integers, index = degree.
"""
from __future__ import annotations

import functools
import math
import random
import threading
from dataclasses import dataclass
from typing import Sequence, Union

from .instrument import active_counter, binary_power, window_mults, window_width
from .intarith import FactorFound, try_invert

__all__ = [
    "ModPoly",
    "Unit",
    "NonUnit",
    "UnitOutcome",
    "poly_mul_mod",
    "poly_pow_mod",
    "poly_pow_mod_many",
    "random_poly",
    "poly_is_unit_mod",
]

_KRONECKER_MIN = 16  # shorter length below which schoolbook wins
_TRANSFORM_MIN = 15000  # bits of the shorter pack from which a transform wins
_ROUNDING_LIMIT = 0.25  # the rounding error a transform product may show


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
    # Slots wide enough for the column sums, so the coefficients of the
    # product come out of its packs exactly.
    nbits = 2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (nbits + 7) // 8
    pa = _points(a, width)
    hp, hm = _times(pa, pa if a is b else _points(b, width))
    return _unpack_halves(*_halves(hp, hm, width), width, len(a) + len(b) - 1, m)


def _pack(coeffs: Sequence[int], width: int) -> int:
    return int.from_bytes(
        b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _unpack(v: int, width: int, count: int, m: int) -> list[int]:
    # v < 2^(8 width count): its count slots, each reduced mod m
    raw = v.to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little") % m
            for i in range(0, width * count, width)]


def _unpack_halves(even: int, odd: int, width: int, n: int, m: int) -> list[int]:
    # the n coefficients whose even and odd halves are packed in even, odd
    out = [0] * n
    out[0::2] = _unpack(even, width, (n + 1) // 2, m)
    out[1::2] = _unpack(odd, width, n // 2, m)
    return out


def _points(coeffs: Sequence[int], width: int) -> tuple[int, int]:
    """(A(2^b), A(-2^b)) for b = 4 width bits, from one pack of the even and
    one of the odd coefficients in slots of 8 width bits."""
    return _pair(_pack(coeffs[0::2], width), _pack(coeffs[1::2], width), width)


def _pair(even: int, odd: int, width: int) -> tuple[int, int]:
    # _points from the packs of the even and the odd coefficients
    odd <<= 4 * width
    return even + odd, even - odd


def _drop(even: int, odd: int, s: int, bits: int) -> tuple[int, int]:
    """The packs of c div x^s from the packs of c, in slots of bits bits:
    for odd s, c[s:] starts with an odd coefficient."""
    if s % 2:
        even, odd = odd, even
    return even >> bits * (s // 2), odd >> bits * ((s + 1) // 2)


def _times(pa: tuple[int, int], pb: tuple[int, int]) -> tuple[int, int]:
    # the same object on both sides takes CPython's squaring path
    if pa is pb:
        return pa[0] * pa[0], pa[1] * pa[1]
    return pa[0] * pb[0], pa[1] * pb[1]


def _halves(hp: int, hm: int, width: int) -> tuple[int, int]:
    """The even and the odd coefficients of H, packed as by _points, from
    H(2^b) and H(-2^b); both divisions are exact."""
    return (hp + hm) >> 1, (hp - hm) >> (4 * width + 1)


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


class _Slots:
    """Slot-parallel Barrett reduction (Barrett, CRYPTO '86) mod m of a
    pack of at most n slots of B = 8W bits, each slot below 2^B.

    The pack is masked into alternate slots, so each occupied slot y has an
    empty one above it and y * floor(2^B / m) < 2^(2B) carries into
    nothing; q' = floor(y floor(2^B / m) / 2^B) is formed in every slot at
    once, and y - q' m lies in [0, 2m).  One subtraction of m, in the slots
    whose y - q' m + 2^t - m has bit t = bits(m) set, leaves every slot in
    [0, m).  The masks are built once per object, for n slots: a 1 in each
    slot, 2^t - m in each slot, and all ones in every other slot.
    """

    __slots__ = ("m", "bits", "ones", "barrett", "borrow", "alt", "alt_hi")

    def __init__(self, m: int, width: int, n: int):
        bits = 8 * width
        self.m, self.bits = m, bits
        self.ones = ((1 << bits * n) - 1) // ((1 << bits) - 1)
        self.barrett = (1 << bits) // m
        self.borrow = ((1 << m.bit_length()) - m) * self.ones
        pairs = (n + 1) // 2
        self.alt = ((1 << bits) - 1) * (((1 << 2 * bits * pairs) - 1) // ((1 << 2 * bits) - 1))
        self.alt_hi = self.alt << bits

    def __call__(self, y: int) -> int:
        bits, alt, k, m = self.bits, self.alt, self.barrett, self.m
        y -= ((((y & alt) * k) >> bits & alt) | (((y >> bits) & alt) * k & self.alt_hi)) * m
        return y - ((y + self.borrow) >> m.bit_length() & self.ones) * m


def _smooth(n: int) -> int:
    """The least 2^i 3^j 5^k >= n."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << ((n - 1) // p).bit_length())
            p *= 3
        p5 *= 5
    return best


class _Transform:
    """Products of rows of packed elements by floating-point FFT convolution.

    An element of n coefficients, in slots of W bytes, is read as its KS1
    pack, the n slots in order, cut into digits of w = 16 or 8 bits; the
    product's digits are the rounded cyclic convolution of the factors'
    digits, computed by numpy.fft.rfft/irfft along the rows of a 2-D
    batch, so the rows of one ladder step share one call of each.  Two
    lengths serve:

    - ``size``, 5-smooth and at least the sum of two factors' digit counts
      for factors of at most d coefficients, so no product wraps;
    - ``wrap_size`` = 8 W L / w for ``wrap`` = L = 2 j slots, j the least
      5-smooth number with L >= d + 1, for q*f mod x^L - 1: the digits
      then wrap at the slot boundary 2^(8 W L), and the product is the
      integer one mod 2^(8 W L) - 1.  Its length is about half of size,
      and its factors are q and f with its leading 1.

    Carry passes bring the rounded digits below 2^w, the carry out of the
    top digit going round to the bottom one (it is 0 for a product that
    does not wrap); the digits' bytes are the product's KS1 pack, whose
    slots are read out as the packs of its even and odd coefficients.

    The error bound (Percival, Math. Comp. 72, 2003, for a transform of
    length 2^k): |computed - exact| < |x| |y| ((1 + e)^(3k) (1 + e sqrt 5)^(3k+1)
    (1 + b)^(3k) - 1), with |x|, |y| the Euclidean norms of the digit
    vectors, e = 2^-53 the unit roundoff and b the error of the roots,
    taken as e, for k = ceil(log2 size).  A slot value below m touches at
    most t = ceil((bits(m) + o) / w) digits, o the bit offset of a slot
    start in a digit, so |x|^2 <= (d + 1) t (2^w - 1)^2 for every factor,
    f with its leading 1 included.  fitting takes the widest w for which
    the bound is below _ROUNDING_LIMIT, half of what exact rounding needs:
    the other half is a margin for the mixed-radix and real-input passes
    of numpy's transform, which the radix-2 proof does not cover.  product
    returns None for a row whose rounding shows an error above the same
    limit, and _Reducer._product recomputes that row alone by int.__mul__.
    """

    __slots__ = ("np", "width", "digit", "size", "wrap", "wrap_size")

    def __init__(self, width: int, digit: int, size: int, wrap: int):
        import numpy  # on the first reducer of the tier only

        self.np, self.width, self.digit, self.size = numpy, width, digit, size
        self.wrap, self.wrap_size = wrap, 8 * width * wrap // digit

    @classmethod
    def fitting(cls, m: int, d: int, width: int) -> "_Transform | None":
        """The transform for elements of at most d + 1 coefficients in
        [0, m), in slots of width bytes, with the widest digit the bound
        allows; None when none is allowed."""
        eps = 2.0 ** -53
        for digit in (16, 8):
            size = _smooth(2 * -(-8 * width * d // digit))
            k = (size - 1).bit_length()
            growth = math.expm1(6 * k * math.log1p(eps) + (3 * k + 1) * math.log1p(eps * math.sqrt(5)))
            touched = -(-(m.bit_length() + 8 * width % digit) // digit)
            if (d + 1) * touched * (2**digit - 1) ** 2 * growth < _ROUNDING_LIMIT:
                return cls(width, digit, size, 2 * _smooth(-(-(d + 1) // 2)))
        return None

    def spectrum(self, rows: Sequence[tuple[int, int, int]], wrapped: bool, role: str):
        """The rfft of the digits of each packed element (even, odd, n) of
        rows, one row of the result each, at wrap_size when wrapped, in
        the scratch array of role."""
        np, width, step = self.np, self.width, self.digit // 8
        size = self.wrap_size if wrapped else self.size
        count = -(-max(n for _, _, n in rows) * width // step)
        raw = self._scratch("bytes", len(rows), size * step, np.uint8)[:, :count * step]
        raw.fill(0)
        for line, (even, odd, n) in zip(raw, rows):
            slots = line[:n * width].reshape(n, width)
            slots[0::2] = np.frombuffer(even.to_bytes((n + 1) // 2 * width, "little"),
                                        np.uint8).reshape(-1, width)
            slots[1::2] = np.frombuffer(odd.to_bytes(n // 2 * width, "little"),
                                        np.uint8).reshape(-1, width)
        digits = self._scratch("real", len(rows), size, np.float64)
        digits[:, count:] = 0
        np.copyto(digits[:, :count], raw.view(f"<u{step}"))
        return np.fft.rfft(digits, size, out=self._scratch(role, len(rows), size // 2 + 1, np.complex128))

    def product(self, sa, sb, ns: Sequence[int], wrapped: bool = False) -> list:
        """The packs (even, odd) of each row's product, of ns[i]
        coefficients, from the rows of the spectra sa and sb (sb may be one
        row for all); when wrapped, of the product mod x^wrap - 1, with
        ns[i] = wrap.  None for a row where a rounded digit lies further
        than _ROUNDING_LIMIT from its computed value.  sa is overwritten."""
        np, digit, width = self.np, self.digit, self.width
        size, k = self.wrap_size if wrapped else self.size, len(ns)
        # a product that does not wrap is below 2^(8 width n), so its
        # digits from ceil(8 width n / w) on are 0
        count = size if wrapped else -(-8 * max(ns) * width // digit)
        exact = np.fft.irfft(np.multiply(sa, sb, out=sa), size,
                             out=self._scratch("real", k, size, np.float64))[:, :count]
        digits = self._scratch("int", k, size, np.int64)[:, :count]
        np.rint(exact, out=digits, casting="unsafe")
        tripped = np.abs(np.subtract(exact, digits, out=exact), out=exact).max(axis=1) > _ROUNDING_LIMIT
        digits[tripped] = 0  # nonnegative digits, so the carry passes end
        # carry: each pass moves what lies above w bits one digit up, round
        # from the top digit to the bottom one; without a wrap the sum is
        # below 2^(w count), so nothing goes round
        high = self._scratch("high", k, size, np.int64)[:, :count]
        while np.right_shift(digits, digit, out=high).any():
            digits &= (1 << digit) - 1
            digits[:, 1:] += high[:, :-1]
            digits[:, 0] += high[:, -1]
        raw = self._scratch("bytes", k, size * digit // 8, np.uint8)[:, :count * digit // 8]
        np.copyto(raw.view(f"<u{digit // 8}"), digits, casting="unsafe")
        out = []
        for line, n, bad in zip(raw, ns, tripped):
            slots = line[:n * width].reshape(n, width)
            out.append(None if bad else (int.from_bytes(slots[0::2].tobytes(), "little"),
                                         int.from_bytes(slots[1::2].tobytes(), "little")))
        return out

    def _scratch(self, role: str, rows: int, length: int, dtype):
        """This thread's array of role for rows x length, kept between
        products: fresh arrays in every product made a ladder step 3-24%
        slower at deg f 128-1024."""
        pool = vars(_SCRATCH)
        key = role, rows, length
        if key not in pool:
            if len(pool) >= 32:
                pool.clear()
            pool[key] = self.np.empty((rows, length), dtype)
        return pool[key]


_SCRATCH = threading.local()


class _Reducer:
    """Ring multiplication modulo one fixed monic f of degree d.

    A product with an operand shorter than _KRONECKER_MIN is schoolbook
    and divided by schoolbook, and so is every product of a ladder mod an f
    of degree below _KRONECKER_MIN.  Every other product works on packed
    elements: an element of n <= d coefficients in [0, m) is the pair of
    KS2 packs of its even and its odd coefficients, in slots of B = 8W bits
    with W = ceil((2 bits(m) + bits(d) + 2) / 8), so 2^B > 4 d m^2.  The
    Barrett quotient mu = x^(2d-2) div f (Newton's reciprocal of rev(f)
    mod x^(d-1), reversed once) and f itself are packed once per f, on the
    first packed product.  For c = a*b = q*f + r of n coefficients, d < n:

    - c div x^d, the top n - d slots, has its slots reduced mod m;
    - q is the top n - d coefficients of (c div x^d)*mu, slots reduced;
    - r = (c mod x^d) + BIAS - (q*f mod x^d), slots reduced; in the
      transform tier c and q*f are first taken mod x^L - 1 (L = wrap of
      the _Transform, even, L > d), as c - q*f = r has degree below d:
      the packs of c fold by one shift, and q*f is a wrapped transform
      product of about half the length.

    Every slot of c, of (c div x^d)*mu and of q*f (wrapped or not: as
    L > d, a slot of q*f mod x^L - 1 sums at most n - d products) is at
    most d(m-1)^2, a slot of c mod x^L - 1 at most 2d(m-1)^2, and every
    BIAS slot is d m^2, a multiple of m, so each slot of c + BIAS and of r
    lies in [0, 3 d m^2), and 3 d m^2 < 2^B: no borrow crosses a slot, and
    every slot handed to _reduce_slots is below 2^B.  _reduce_slots lays
    the two packs end to end and reduces all their slots at once with
    _Slots, the slot-parallel Barrett step that Euclid shares.  The ladder keeps its
    elements packed from the first product to the last.

    _mul multiplies rows of elements, one row per base of a ladder run in
    lockstep, and each of the three products is _product's over all rows:
    two int products of KS2 points per row, or, for the rows whose shorter
    factor's pack has at least _TRANSFORM_MIN bits when the reducer has a
    _Transform (from _Transform.fitting, once per f), one batched
    transform product, which returns the same packs.  A ring squaring then
    takes 4 transforms of the full length and 2 of the wrapped one per
    row, a ring multiply one more of the full length.  The _Slots
    reductions stay per row.  mu and f enter every ring multiplication, so
    their KS2 points and spectra are computed once, by _kept.
    """

    def __init__(self, f: ModPoly):
        self.f = list(f.coeffs)
        self.m = f.modulus
        self.d = f.degree
        self._width: int | None = None

    def _setup(self) -> int:
        # the packed data, computed on the first packed product only
        if self._width is None:
            m, d = self.m, self.d
            width = (2 * m.bit_length() + d.bit_length() + 2 + 7) // 8
            bits = 8 * width
            self._width = width
            self._fft = _Transform.fitting(m, d, width) if d * bits >= _TRANSFORM_MIN else None
            self._mu = self._kept(self._reciprocal(d - 1)[::-1])
            self._f_kept = self._kept(self.f, wrapped=True)
            bias = d * m * m
            self._bias = (_pack([bias] * ((d + 1) // 2), width),
                          _pack([bias] * (d // 2), width))
            self._masks = ((1 << bits * ((d + 1) // 2)) - 1,
                           (1 << bits * (d // 2)) - 1)
            self._slots = _Slots(m, width, d)
        return self._width

    def _kept(self, coeffs: list[int], wrapped: bool = False) -> tuple:
        """A factor of every ring multiplication (mu, f): its packed
        element, its KS2 points, whether its transform products wrap and,
        in the transform tier, its spectrum."""
        width = self._width
        a = _pack(coeffs[0::2], width), _pack(coeffs[1::2], width), len(coeffs)
        return (a, _pair(a[0], a[1], width), wrapped,
                None if self._fft is None else self._fft.spectrum([a], wrapped, "a").copy())

    def _reciprocal(self, k: int) -> list[int]:
        # inverse of rev(f) modulo x^k; rev(f) has constant term 1 (f monic)
        frev = self.f[::-1]
        g = [1]
        kk = 1
        while kk < k:
            kk = min(2 * kk, k)
            fg = _mul_coeffs(frev[:kk], g, self.m)[:kk]
            corr = [(-v) % self.m for v in fg]
            corr[0] = (corr[0] + 2) % self.m
            g = _mul_coeffs(g, corr, self.m)[:kk]
        return g

    def reduce(self, c: list[int]) -> list[int]:
        """c mod f, in place, for a list c with entries in [0, m)."""
        if len(c) > self.d:
            _divmod_schoolbook(c, self.f, self.m)
            del c[self.d:]
        return c

    def mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """a*b mod f for lists of length at most d with entries in [0, m)."""
        if not a or not b:
            return []
        if len(a) < _KRONECKER_MIN or len(b) < _KRONECKER_MIN:
            return self.reduce(_mul_schoolbook(a, b, self.m))
        xs = (self._packed(a),)
        return self._unpacked(self._mul(xs, xs if a is b else (self._packed(b),))[0])

    def power(self, bases: Sequence[Sequence[int]], e: int, widths: Sequence[int]) -> list[list[int]]:
        """[a^e mod f for a in bases] for e >= 1 and lists a as for mul,
        each by binary_power of its width in widths.  Mod an f of degree at
        least _KRONECKER_MIN, the nonzero bases of one width share one
        ladder over the tuple of their packs, whose every step multiplies
        all rows at once; below, where every product is schoolbook, each
        base has a ladder of its own."""
        if self.d < _KRONECKER_MIN:
            return [binary_power(a, e, self.mul, w) if a else [] for a, w in zip(bases, widths)]
        out = list(bases)  # a zero base stays zero
        for w in set(widths):
            rows = [i for i, a in enumerate(bases) if a and widths[i] == w]
            if rows:
                ys = binary_power(tuple(self._packed(bases[i]) for i in rows), e, self._mul, w)
                for i, y in zip(rows, ys):
                    out[i] = self._unpacked(y)
        return out

    # -- packed elements: (even pack, odd pack, number of coefficients) -----
    def _packed(self, a: Sequence[int]) -> tuple[int, int, int]:
        width = self._setup()
        return _pack(a[0::2], width), _pack(a[1::2], width), len(a)

    def _unpacked(self, a: tuple[int, int, int]) -> list[int]:
        return _unpack_halves(a[0], a[1], self._width, a[2], self.m)

    def _mul(self, xs: Sequence[tuple[int, int, int]], ys: Sequence) -> list[tuple[int, int, int]]:
        # x*y mod f for each row x of xs and y of ys, packed; xs is ys for
        # squares
        return self._remainder(self._product(xs, ys))

    def _product(self, xs: Sequence[tuple[int, int, int]], ys: Sequence | None = None,
                 kept: tuple | None = None) -> list[tuple[int, int, int]]:
        """The packed x*y for each row x of xs and y of ys, ys is xs for
        squares, or x times the factor kept by _kept, mod x^L - 1 when that
        one wraps.  The rows whose shorter factor's pack has at least
        _TRANSFORM_MIN bits take one batched transform product when the
        reducer has a _Transform; every other row, and every row whose
        guard trips, two int products of KS2 points."""
        width = self._width
        if kept is not None:
            ys = (kept[0],) * len(xs)
        out = [None] * len(xs) if self._fft is None else self._transformed(xs, ys, kept)
        for i, x in enumerate(xs):
            if out[i] is None:
                y = ys[i]
                px = _pair(x[0], x[1], width)
                hp, hm = _times(px, kept[1] if kept is not None else px if y is x
                                else _pair(y[0], y[1], width))
                out[i] = (hp + hm) >> 1, (hp - hm) >> (4 * width + 1), x[2] + y[2] - 1
        return out

    def _transformed(self, xs, ys, kept) -> list:
        # _product's rows that take one batched transform product, None
        # for the others and for those whose guard trips
        fft, bits = self._fft, 8 * self._width
        out = [None] * len(xs)
        big = [i for i, (x, y) in enumerate(zip(xs, ys)) if bits * min(x[2], y[2]) >= _TRANSFORM_MIN]
        if big:
            wrapped = kept is not None and kept[2]
            sa = fft.spectrum([xs[i] for i in big], wrapped, "a")
            sb = (kept[3] if kept is not None else sa if xs is ys
                  else fft.spectrum([ys[i] for i in big], False, "b"))
            ns = [fft.wrap if wrapped else xs[i][2] + ys[i][2] - 1 for i in big]
            for i, n, p in zip(big, ns, fft.product(sa, sb, ns, wrapped)):
                if p is not None:
                    out[i] = (*p, n)
        return out

    def _remainder(self, cs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        # c mod f for each row c = (even, odd, n) of packs, n < 2d; see the
        # class docstring.  A row with n <= d has only its slots reduced.
        d, fft, reduce = self.d, self._fft, self._reduce_slots
        qf = iter(self._product(self._quotient(cs), kept=self._f_kept))
        (mask_e, mask_o), (bias_e, bias_o) = self._masks, self._bias
        if fft is not None:
            shift = 4 * self._width * fft.wrap
            low = (1 << shift) - 1
        out = []
        for even, odd, n in cs:
            if n > d:
                te, to, _ = next(qf)
                if fft is not None:
                    # c and q*f mod x^L - 1: c has fewer than 2L
                    # coefficients, and L is even, so each pack folds by
                    # one shift (a no-op on a wrapped transform product)
                    even, odd = (even & low) + (even >> shift), (odd & low) + (odd >> shift)
                    te, to = (te & low) + (te >> shift), (to & low) + (to >> shift)
                even, odd, n = ((even & mask_e) + bias_e - (te & mask_e),
                                (odd & mask_o) + bias_o - (to & mask_o), d)
            even, odd = reduce(even, odd, n)
            out.append((even, odd, n))
        return out

    def _quotient(self, cs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        """The packed elements c div f, slots reduced, for each row c =
        (even, odd, n) of packs with d < n < 2d, the others skipped: the
        top n - d coefficients of (c div x^d)*mu."""
        d, bits, reduce = self.d, 8 * self._width, self._reduce_slots
        tops = []
        for even, odd, n in cs:
            if n > d:
                even, odd = reduce(*_drop(even, odd, d, bits), n - d)
                tops.append((even, odd, n - d))
        out = []
        for (even, odd, _), (_, _, n) in zip(self._product(tops, kept=self._mu), tops):
            even, odd = reduce(*_drop(even, odd, d - 2, bits), n)
            out.append((even, odd, n))
        return out

    def _reduce_slots(self, even: int, odd: int, n: int) -> tuple[int, int]:
        """Every slot of the packs of n coefficients, each below 2^B,
        reduced into [0, m), by _Slots on the packs laid end to end."""
        split = 8 * self._width * ((n + 1) // 2)
        y = self._slots(even | odd << split)
        return y & (1 << split) - 1, y >> split


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
    return ModPoly(f.modulus, _reducer_for(f).mul(a.coeffs, b.coeffs))


def poly_pow_mod(a: ModPoly, e: int, f: ModPoly) -> ModPoly:
    """a**e mod f: poly_pow_mod_many of the one base a."""
    return poly_pow_mod_many((a,), e, f)[0]


def poly_pow_mod_many(bases: Sequence[ModPoly], e: int, f: ModPoly) -> list[ModPoly]:
    """[a**e mod f for a in bases], by binary_power ladders whose
    window_mults(e, w) ring multiplications per base are tallied on the
    active OpCounter.  The width w of a base is window_width(e) for a base
    of at least _KRONECKER_MIN coefficients, and 1 for a shorter one: a
    multiply by a short base (x, x + 1, a constant) is a linear pass, not
    a full product, and a window would trade those for multiplies by its
    longer odd powers.  The nonzero bases of one width share one ladder,
    run in lockstep: each step multiplies all of them at once, one
    batched transform in the transform tier.  From deg f = _KRONECKER_MIN
    on, each base is packed once and each result unpacked once."""
    if e < 0:
        raise ValueError("negative exponent")
    for a in bases:
        _check_ring_args(a, a, f)
    m = f.modulus
    if e == 0:
        return [ModPoly.one(m) for _ in bases]
    widths = [window_width(e) if len(a.coeffs) >= _KRONECKER_MIN else 1 for a in bases]
    counter = active_counter()
    if counter is not None:
        counter.poly_mults += sum(window_mults(e, w) for w in widths)
    return [ModPoly(m, c) for c in _reducer_for(f).power([a.coeffs for a in bases], e, widths)]


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
    inversion exposes a proper divisor d of N.  The Euclid is _euclid's
    packed one with the Bezout track: its remainders are unit multiples of
    the monic ones, so the divisor d, the monic gcd and the inverse are
    those of the Euclid that makes every remainder monic.
    """
    out = _euclid(u, f, bezout=True)
    if isinstance(out, FactorFound):
        return out
    g, s = out
    if len(g) > 1:
        return NonUnit(ModPoly(f.modulus, g))
    return Unit(s)


def _euclid(u: ModPoly, f: ModPoly, bezout: bool):
    """Euclid on f and u over Z/NZ: FactorFound(d) as soon as a leading
    coefficient exposes a proper divisor d of N, else (g, s) with g the
    coefficients of the monic gcd (f when u is zero) and, when bezout is
    set, s with s*u = g mod f (None otherwise).  Callers that read only the
    gcd leave bezout off and skip the s-track.

    Every remainder, and every s, is one packed int: slot i holds
    coefficient i in [0, N), in slots of B = 8W bits with
    W = ceil((2 bits(N) + bits(d + 1)) / 8), so 2^B > (d + 1) N^2.  A
    remainder is never made monic.  Its degree is bit_length() // B, as
    every slot is below N < 2^(B-1), and its leading coefficient one shift;
    try_invert meets the leading coefficients in the order of the list
    Euclid and stops at the same first non-unit.  The quotient Q of r0 by
    r1, with the inverse of r1's leading coefficient folded in, comes from
    scalar long division on the top slots (two coefficients in the normal
    step).  The new remainder is r0 + BIAS - Q*r1 over the deg r0 + 1 slots
    of Q*r1: every slot of Q*r1 is at most len(Q) (N-1)^2, and every BIAS
    slot is len(Q) N^2, a multiple of N, with len(Q) <= d, so each slot
    lies in [0, (d + 1) N^2), no borrow crosses a slot, and one
    slot-parallel Barrett step (_Slots) brings all of them into [0, N); the
    top len(Q) slots, multiples of N, become 0.  The s-track takes the same
    step over the d - deg r1 + 1 slots of Q*s.  Each remainder is then a
    unit multiple of the monic one the list Euclid forms, and s the same
    multiple of its s: the same leading coefficients are non-units, with
    the same gcd with N.  The gcd and s are scaled once, at the end, by the
    inverse of the last leading coefficient, which gives the list Euclid's
    results exactly."""
    if u.modulus != f.modulus:
        raise ValueError("modulus mismatch")
    if not f.is_monic() or f.degree < 1:
        raise ValueError("modulus polynomial must be monic of degree >= 1")
    if u.degree >= f.degree:
        raise ValueError("need deg u < deg f")
    m, d = f.modulus, f.degree
    width = (2 * m.bit_length() + (d + 1).bit_length() + 7) // 8
    bits = 8 * width
    slots = _Slots(m, width, d + 1)
    slot_mask = (1 << bits) - 1
    squares = m * m * slots.ones  # m^2 in each of d + 1 slots
    bias2 = 2 * squares
    # invariant: r_i == s_i * u  (mod f); f itself enters with s = 0, and
    # inv0 is the inverse of r0's leading coefficient
    r0, s0, n0, inv0 = _pack(f.coeffs, width), 0, d, 1
    r1, s1 = _pack(u.coeffs, width), 1
    while r1:
        n1 = r1.bit_length() // bits
        lead, inv1 = r1 >> bits * n1, 1
        if lead != 1:
            out = try_invert(lead, m)
            if isinstance(out, FactorFound):
                return out
            inv1 = out.value
        if n1 == 0:
            return [1], _scaled(s1, inv1, width, m) if bezout else None
        # Q = r0 div r1, from the top n0 - n1 + 1 slots of r0 and of r1
        size = n0 - n1 + 1
        if size == 2:
            top = r0 >> bits * n1
            q1 = (top >> bits) * inv1 % m
            q0 = ((top & slot_mask) - q1 * (r1 >> bits * (n1 - 1) & slot_mask)) * inv1 % m
            q = q1 << bits | q0
            bias = bias2
        else:
            q = _pack(_top_quotient(_unpack(r0 >> bits * n1, width, size, m),
                                    _unpack(r1 << bits * size >> bits * (n1 + 1),
                                            width, size, m), inv1, m), width)
            bias = size * squares
        # BIAS in every slot of Q*r1; the top size slots then reduce to 0
        r0, r1 = r1, slots(r0 + (bias >> bits * (d - n0)) - q * r1)
        if bezout:
            # deg s1 = d - n0, and the new s has degree d - n1 exactly
            s0, s1 = s1, slots(s0 + (bias >> bits * n1) - q * s1)
        n0, inv0 = n1, inv1
    g = [c * inv0 % m for c in _unpack(r0, width, n0 + 1, m)]
    return g, _scaled(s0, inv0, width, m) if bezout else None


def _top_quotient(a: list[int], b: list[int], inv: int, m: int) -> list[int]:
    """The quotient of the dividend by the divisor over Z/mZ from their top
    coefficients: a holds the top len(a) of the dividend, b the top len(a)
    of the divisor, whose leading coefficient b[-1] has inverse inv."""
    size = len(a)
    q = [0] * size
    for j in range(size - 1, -1, -1):
        c = q[j] = a[j] * inv % m
        if c:
            for t in range(1, j + 1):
                a[j - t] -= c * b[size - 1 - t]
    return q


def _scaled(s: int, inv: int, width: int, m: int) -> ModPoly:
    # the polynomial packed in s, times inv
    return ModPoly(m, [c * inv for c in _unpack(s, width, s.bit_length() // (8 * width) + 1, m)])
