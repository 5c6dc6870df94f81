"""Exhaustive, exact censuses of the error events the tests bound.

Every probability the library's accuracy analysis relies on is backed here
by brute-force enumeration at desk scale: the fraction of Miller-Rabin
nonwitness bases, the fraction of polynomials h passing the identity
(h+1)^N = h^N + 1 mod (p, f) (and mod (N, f) for tiny instances), and the
scan of the p = 2k+1, q = 6k+1 semiprime family whose nonwitness fraction
stays above a constant.  The Miller-Rabin census enumerates each
prime-power component p^e of N and combines the counts by CRT, so its work
is the sum of the p^e rather than N.  Root counts of (x+1)^N - x^N - 1 in
F_p[x]/(f) come from a gcd instead, at O(min(N/p^v, p^d)^2) F_p operations
in Euclid for p^v the power of p dividing N, on a polynomial written down
by Lucas's theorem, and check the mod-(p, f) census, which enumerates at
the true N, by an independent method.

Counts are exact integers and fractions are exact rationals; a report also
carries the applicable analytic bound so callers can flag any violation
(the falsification signal).

Size limits are fixed constants: FACTOR_LIMIT bounds n for factoring,
MR_LIMIT the Miller-Rabin census, EXTENSION_LIMIT the field size p^d of the
root count and the irreducibility check, and ENUMERATION_LIMIT the work of
an identity census, (number of h) * 2 binary_method_mults(n) * deg f, which
the numpy-batched enumeration, whose ring product folds its top
coefficients down once and reduces deg f rows mod m, does at 0.005 to 0.012
microseconds a unit near the cap.  Larger instances raise DeskLimitError
before any enumeration starts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instrument import active_counter, binary_method_mults, binary_power
from .intarith import decompose_two_power, factorize, strip_power
from .periodsys import is_small_prime
from .polyring import ModPoly, _euclid, poly_pow_mod
from .pseudofield import is_irreducible_mod_p

__all__ = [
    "DeskLimitError",
    "BoundViolation",
    "CensusReport",
    "factorize_desk",
    "mr_nonwitness_census",
    "root_count_in_extension",
    "ab_failure_census_mod_p",
    "ab_failure_census_mod_N",
    "heuristic_class_scan",
]

FACTOR_LIMIT = 10**12
MR_LIMIT = 10**6
EXTENSION_LIMIT = 10**6
ENUMERATION_LIMIT = 2 * 10**7


class DeskLimitError(ValueError):
    """The instance is too large for exhaustive desk-scale enumeration."""


class BoundViolation(Exception):
    """A proven bound failed on an exhaustively computed value."""


@dataclass(frozen=True)
class CensusReport:
    """Exact enumeration result plus the bound it is measured against."""

    subject: int
    total: int
    failing: int
    bound: Fraction
    factorization: tuple[tuple[int, int], ...]

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.failing, self.total)

    def to_json_dict(self) -> dict:
        return {
            "n": self.subject,
            "total": self.total,
            "failing": self.failing,
            "fraction": f"{self.fraction.numerator}/{self.fraction.denominator}",
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "factors": [[p, e] for p, e in self.factorization],
        }


def factorize_desk(n: int) -> list[tuple[int, int]]:
    """Complete factorization by trial division; refuses n above FACTOR_LIMIT."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > FACTOR_LIMIT:
        raise DeskLimitError(f"{n} exceeds the desk factorization limit {FACTOR_LIMIT}")
    return factorize(n)


def _count_nonwitnesses(factors: list[tuple[int, int]], s: int, t: int) -> int:
    """Nonwitness bases a in [1, n) of n = prod p^e, for n - 1 = 2^s t,
    counted one prime-power component at a time.

    By CRT, a^t = 1 mod n iff a^t = 1 mod every p^e, and a^(2^j t) = -1
    mod n iff it is -1 mod every p^e.  These s + 1 events are disjoint, and
    no non-unit residue, 0 included, satisfies any of them, so the count is
    prod ones + sum over j < s of prod minus_j, each factor counted over all
    of Z/p^eZ by one vectorized ladder of width 1: a wider window would
    hold each odd power as one more array of p^e residues, 8 MB at
    p^e = 10^6.  The work is sum p^e, not n.
    p^e <= n <= MR_LIMIT, so every product of two residues, below
    (p^e)^2 < 2^40, fits in int64.
    """
    # imported here: numpy costs most of `import abprime`
    import numpy as np

    ones, minus = 1, [1] * s
    for p, e in factors:
        q = p**e
        a = np.arange(q, dtype=np.int64)
        x = binary_power(a, t, lambda y, z: y * z % q)
        ones *= int((x == 1).sum())
        for j in range(s):
            minus[j] *= int((x == q - 1).sum())
            x = x * x % q
    return ones + sum(minus)


def mr_nonwitness_census(n: int) -> CensusReport:
    """Exact count of Miller-Rabin nonwitness bases a in [1, n-1], counted
    per prime-power factor of n and combined by CRT.

    n must be odd and composite.  The bound is min(1/4, the group-theoretic
    bound 1 / (2^(r-1) * prod p_i^(e_i - 1))) over the factorization
    n = prod p_i^e_i.  n above MR_LIMIT raises DeskLimitError.
    """
    if n > MR_LIMIT:
        raise DeskLimitError(f"{n} exceeds the census limit {MR_LIMIT}")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    factors = factorize_desk(n)
    if len(factors) == 1 and factors[0][1] == 1:
        raise ValueError(f"{n} is prime; the census needs a composite")
    s, t = decompose_two_power(n - 1)
    failing = _count_nonwitnesses(factors, s, t)
    group_bound = Fraction(1)
    for p, e in factors:
        group_bound /= p ** (e - 1)
    group_bound /= 2 ** (len(factors) - 1)
    return CensusReport(
        subject=n,
        total=n - 1,
        failing=failing,
        bound=min(Fraction(1, 4), group_bound),
        factorization=tuple(factors),
    )


def _check_extension_args(n: int, p: int, f: ModPoly) -> tuple[ModPoly, int]:
    # the O(1) checks first: certifying p by trial division is O(sqrt p)
    if p < 2 or n % p != 0:
        raise ValueError(f"p = {p} must be a prime divisor of {n}")
    fp = ModPoly(p, f.coeffs)
    d = fp.degree
    if d < 1:
        raise ValueError("f must have degree >= 1")
    if p**d > EXTENSION_LIMIT:
        raise DeskLimitError(f"field size {p}^{d} exceeds the limit {EXTENSION_LIMIT}")
    if not is_small_prime(p):
        raise ValueError(f"p = {p} must be a prime divisor of {n}")
    if not is_irreducible_mod_p(fp, p):
        raise ValueError(f"f is reducible mod {p}; the residue ring is not a field")
    return fp, d


def _g_mod_p(m: int, p: int) -> ModPoly:
    """g = (x+1)^m - x^m - 1 over F_p, for m >= 1, written down by Lucas's
    theorem instead of multiplied out.

    binom(m, k) mod p is the product of binom(m_i, k_i) over the base-p
    digits m_i of m and k_i of k (zero where some k_i > m_i), so the
    binomials are the Kronecker product of one row binom(m_i, b), b < p, per
    digit of m, each row read from factorials mod p up to the largest
    digit; the top digit's row stops at b = m_i, which keeps the product
    below 2(m + 1) entries.  The terms 1 and x^m cancel, so m = 1 gives 0.
    """
    digits = []
    rest = m
    while rest:
        rest, r = divmod(rest, p)
        digits.append(r)
    top = max(digits)
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * (top + 1)
    inv[top] = pow(fact[top], -1, p)
    for i in range(top, 0, -1):
        inv[i - 1] = inv[i] * i % p
    out = [1]
    for i, a in enumerate(digits):
        row = [fact[a] * inv[b] * inv[a - b] % p for b in range(a + 1)]
        if i < len(digits) - 1:
            row += [0] * (p - 1 - a)
        # digit i is the coefficient of p^i: out's index k becomes b p^i + k
        out = [r * c % p for r in row for c in out]
    return ModPoly(p, [0] + out[1:m])


def root_count_in_extension(n: int, p: int, f: ModPoly) -> int:
    """Number of roots of g = (x+1)^n - x^n - 1 in the field F_p[x]/(f).

    Counted without enumeration as deg gcd(g, x^(p^d) - x) over F_p, the
    distinct-degree step of Cantor-Zassenhaus.  Over F_p,
    g_n(beta) = g_(n/p)(beta)^p, so beta is a root for n iff it is one for
    n' = n / p^v, v the p-adic valuation of n.  g is built with exponent
    m = (n'-1) mod (p^d-1) + 1, which agrees with n' on every beta in
    F_(p^d) (beta = -1 included, as m and n' share their parity for odd p),
    so deg g < min(n', p^d) and Euclid costs O(min(n', p^d)^2) F_p
    operations.  g is written down by Lucas's theorem (_g_mod_p), so only
    x^(p^d) mod g multiplies.  n' = 1 leaves g = 0: every element is a root.
    """
    _, d = _check_extension_args(n, p, f)
    q = p**d
    _, n = strip_power(n, p)
    m = (n - 1) % (q - 1) + 1
    g = _g_mod_p(m, p)
    if g.is_zero():
        return q
    inv = pow(g.coeffs[-1], -1, p)
    g = ModPoly(p, [c * inv for c in g.coeffs])
    if g.degree == 1:
        return 1  # g(0) = 0, so g = x
    # Euclid over the field F_p: only the gcd is read
    x = ModPoly.x(p)
    gcd, _ = _euclid(poly_pow_mod(x, q, g) - x, g, bezout=False)
    return len(gcd) - 1


def _check_work(n: int, m: int, d: int) -> None:
    """DeskLimitError when the identity census of the m^d elements of degree
    < d over Z/mZ, counted as (m^d) * 2 binary_method_mults(n) * d units of
    work, exceeds ENUMERATION_LIMIT."""
    work = m**d * 2 * binary_method_mults(n) * d
    if work > ENUMERATION_LIMIT:
        raise DeskLimitError(f"census work {work} for {m}^{d} elements "
                             f"exceeds the limit {ENUMERATION_LIMIT}")


def _ring_mul(f: ModPoly):
    """The product of Z/mZ[x]/(f) (m = f.modulus, monic f of degree d) on
    blocks of elements: int64 arrays of shape (d, count), one row per
    coefficient, each in [0, m).

    The schoolbook product's d - 1 top coefficients are folded down
    unreduced, each times its column x^(d+j) mod f (j = 0..d-2, computed
    once per f), and the d remaining coefficients are reduced mod m once:
    d row reductions a product.  Before that reduction a coefficient is at
    most d(m-1)^2 + (d-1) d (m-1)^3 < d^2 m^3.  The census work cap holds
    d m^d to 10^7, so for d >= 2 that is below 4.5*10^10 (d = 2, m = 2236)
    and for d = 1, with nothing to fold, below m^2 <= 10^14: int64 holds.
    """
    import numpy as np

    m, d = f.modulus, f.degree
    f_low = f.coeffs[:d]
    power = [-c % m for c in f_low]  # x^d mod f
    columns = []
    for _ in range(d - 1):
        columns.append(power)
        top = power[-1]
        power = [(c - top * fc) % m for c, fc in zip([0] + power[:-1], f_low)]
    columns = np.array(columns, dtype=np.int64).reshape(d - 1, d, 1)

    def mul(a, b):
        c = np.zeros((2 * d - 1, a.shape[1]), dtype=np.int64)
        for i in range(d):
            c[i:i + d] += a[i] * b
        low = c[:d]
        for j in range(d - 1):
            low += c[d + j] * columns[j]
        return low % m

    return mul


def _identity_count(n: int, f: ModPoly) -> int:
    """Count every h over Z/mZ (m = f.modulus), deg h < d = deg f, with
    (h+1)^n = h^n + 1 mod f, for monic f and n >= 2; _check_work first.

    h is numbered by its coefficients as base-m digits, the constant term
    lowest.  A block of consecutive numbers is held as an int64 array of
    shape (d, count), one row per coefficient, and T = h^n is computed for
    the whole block by the binary_power ladder at width 1 over _ring_mul's
    product, which folds each product down once and reduces d rows mod m;
    the width-1 ladder holds no table of odd powers the size of the block,
    and is tallied as binary_method_mults(n) ring multiplications per h.
    h + 1 changes the constant digit only, mod m, so it stays in the block
    of h when a block is a whole number of runs of m numbers:
    max(1, 2^16 // m) runs.  The count is the number of h with
    T[h+1] = T[h] + 1.

    A block exceeds 2^16 elements only when m > 2^16, where the work cap
    leaves d = 1 and m below 6*10^5.  The two largest inputs under the cap
    take 0.012 (7^6 elements) and 0.005 (409^2) microseconds a unit of work
    at the reference CPU speed of perfbench/calibrate.py; a census of a few
    hundred elements is bound by numpy's per-call overhead instead, about
    0.3 ms (BENCH_census.json).
    """
    # imported here, as in _count_nonwitnesses
    import numpy as np

    m, d = f.modulus, f.degree
    mul = _ring_mul(f)
    total = m**d
    counter = active_counter()
    if counter is not None:
        counter.poly_mults += total * binary_method_mults(n)
    step = max(1, (1 << 16) // m) * m
    count = 0
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total), dtype=np.int64)
        h = np.empty((d, len(index)), dtype=np.int64)
        for j in range(d):
            h[j] = index // m**j % m
        t = binary_power(h, n, mul)
        # the position of h + 1 in the block: one on, or m - 1 back at a
        # constant digit of m - 1
        after = np.arange(1, len(index) + 1)
        after[m - 1::m] -= m
        plus_one = t.copy()
        plus_one[0] = (plus_one[0] + 1) % m
        count += int((t[:, after] == plus_one).all(axis=0).sum())
    return count


def _deg_g_mod_p(n: int, p: int) -> int:
    """Degree of (x+1)^n - x^n - 1 over F_p (p | n), via Lucas' theorem.

    binom(n, k) is nonzero mod p iff every base-p digit of k is at most the
    corresponding digit of n, so the top surviving term is k = n - p^v with
    v the p-adic valuation of n.
    """
    v, m = strip_power(n, p)
    if m == 1:
        raise ValueError(f"(x+1)^n - x^n - 1 vanishes mod {p} for n = {n}")
    return n - p**v


def ab_failure_census_mod_p(n: int, p: int, f: ModPoly) -> CensusReport:
    """Exact count of h over F_p, deg h < deg f, with (h+1)^n = h^n + 1 mod (p, f).

    The bound recorded is deg g / p^d for g = (x+1)^n - x^n - 1 reduced
    mod p (its true degree, from Lucas' theorem), the quantity the
    root-counting argument actually controls.
    """
    fp, d = _check_extension_args(n, p, f)
    _check_work(n, p, d)
    deg_g = _deg_g_mod_p(n, p)
    factors = factorize_desk(n)
    total = p**d
    failing = _identity_count(n, fp)
    return CensusReport(
        subject=n,
        total=total,
        failing=failing,
        bound=Fraction(deg_g, total),
        factorization=tuple(factors),
    )


def ab_failure_census_mod_N(n: int, f: ModPoly) -> CensusReport:
    """Exact count of h over Z/NZ, deg h < deg f, passing the identity mod (N, f).

    Tiny instances only (the work is capped).  The bound is the multi-factor
    form N^r / prod p_i^(deg f) over the r distinct prime factors.
    """
    if f.modulus != n:
        raise ValueError("f must be a polynomial over Z/nZ")
    d = f.degree
    if d < 1:
        raise ValueError("f must have degree >= 1")
    if not f.is_monic():
        raise ValueError("f must be monic")
    factors = factorize_desk(n)
    if len(factors) == 1 and factors[0][1] == 1:
        raise ValueError(f"{n} is prime; the census needs a composite")
    _check_work(n, n, d)
    total = n**d
    failing = _identity_count(n, f)
    r = len(factors)
    bound = Fraction(n**r)
    for p, _ in factors:
        bound /= p**d
    return CensusReport(
        subject=n,
        total=total,
        failing=failing,
        bound=bound,
        factorization=tuple(factors),
    )


def heuristic_class_scan(k_max: int) -> list[CensusReport]:
    """Census the family N = (2k+1)(6k+1), k odd, both factors prime.

    For each instance the nonwitness fraction must be at least
    (1/12)(1 - 1/p)(1 - 1/q) >= 1/21, and N - 1 = 2^s t must have s = 2,
    t = (N-1)/4; a violation raises BoundViolation.  Reports carry the
    class lower bound in the bound field.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    reports = []
    for k in range(1, k_max + 1, 2):
        p, q = 2 * k + 1, 6 * k + 1
        if not (is_small_prime(p) and is_small_prime(q)):
            continue
        n = p * q
        census = mr_nonwitness_census(n)
        lower = Fraction(1, 12) * Fraction(p - 1, p) * Fraction(q - 1, q)
        if lower < Fraction(1, 21):
            raise BoundViolation(
                f"class bound below 1/21 at k={k}: {lower}")
        if census.fraction < lower:
            raise BoundViolation(
                f"nonwitness fraction {census.fraction} < class bound {lower} "
                f"for N={n} (k={k})")
        s, t = decompose_two_power(n - 1)
        if s != 2 or t != (n - 1) // 4:
            raise BoundViolation(
                f"N-1 = 2^s t decomposition off for N={n}: s={s}, t={t}")
        reports.append(CensusReport(
            subject=n,
            total=census.total,
            failing=census.failing,
            bound=lower,
            factorization=((p, 1), (q, 1)),
        ))
    return reports
