"""Gaussian periods, period polynomials, pseudofields and tensor products.

For a period pair (r, q) of N (r prime, r not dividing N, q a prime
dividing r - 1), let g be the smallest primitive root mod r and H = <g^q>
the k = (r-1)/q q-th power residues.  The Gaussian period eta_{r,q} is the
sum of zeta_r^h over H, and the period polynomial f_{r,q} is the monic
degree-q product of (x - tau^c eta) over the q cosets g^c H, where tau is
zeta -> zeta^g.  The ring (Z/NZ)[eta] has one representation: a
polynomial in eta modulo x^r - 1 is fixed by zeta -> zeta^h for h in H, so
it is kept as its q + 1 values on the classes {0} and g^c H of one class
table per (r, q).  Multiplying by eta is one gather-and-sum of O(r) terms,
tau rotates the cosets, and an element is 0 in (Z/NZ)[zeta_r] exactly
when all its values are equal.

f_{r,q} is built mod N from its power sums, which the constant terms of
eta's powers give exactly; f(eta) = 0 is asserted once per call.  A
period system's defining polynomial, the composed
product of (x - alpha_i beta_j ...) over the roots of its period
polynomials, is built mod N from power sums too: p_k of the product is the
product of the factors' p_k, and its recomputed power sums are asserted.
One loop of Newton's identities turns power sums into coefficients for
both.  One Euclid then checks the composed product squarefree; the tensor
product of two pseudofields is built the same way.

A Pseudofield packages (N, f, deg f) for a monic f; its generator alpha is
the residue of x and its distinguished endomorphism sigma is determined by
sigma(alpha) = alpha^N.  Pseudofields built from period pairs carry their
period system.  The axiom checks then realize sigma through it: sigma
shifts each pair's periods by tau^c for c the class of N, and
tau^c(eta), an indicator of a coset, is written on the basis 1, eta, ...,
eta^(q-1) by one elimination over the class values.  The Frobenius index
reads the classes of p and N off the same table.  For a pseudofield
without that provenance the checks fall back to realizing sigma-powers as
iterated x -> x^N exponentiation, which is equivalent when N is prime.

Everything that must invert an element of Z/NZ does so through try_invert,
so a composite N can always short-circuit the construction by surfacing a
proper divisor -- for a primality-testing library that by-product is a
correct and welcome outcome, reported as FactorFound.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, mul
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .intarith import FactorFound, factorize, least_divisor, try_invert
from .periodsys import (
    PeriodPair,
    PeriodSystem,
    find_period_system,
    is_period_pair,
    is_small_prime,
    system_degree,
)
from .polyring import (
    ModPoly,
    Unit,
    UnitOutcome,
    _euclid,
    poly_is_unit_mod,
    poly_mul_mod,
    poly_pow_mod,
)

__all__ = [
    "smallest_primitive_root",
    "period_polynomial",
    "Pseudofield",
    "AxiomReport",
    "Constructed",
    "TensorDependency",
    "pseudofield_from_period_pair",
    "tensor_product",
    "verify_axioms",
    "frobenius_index_mod_p",
    "is_irreducible_mod_p",
    "construct_poly_pipeline",
]


class TensorDependency(Exception):
    """The composed product of a tensor product or a construction is not
    squarefree mod N, and the Euclid that found it exposed no factor.

    This means the input rings were not genuine coprime-degree pseudofields;
    it is reported distinctly because no divisor of N is learned from it.
    """


class _FactorHit(Exception):
    """Internal carrier for a divisor found mid-computation."""

    def __init__(self, divisor: int):
        super().__init__(divisor)
        self.divisor = divisor


def _invert_or_hit(a: int, m: int) -> int:
    out = try_invert(a, m)
    if isinstance(out, FactorFound):
        raise _FactorHit(out.divisor)
    return out.value


# ---------------------------------------------------------------------------
# the class table of a period pair
# ---------------------------------------------------------------------------

def smallest_primitive_root(r: int) -> int:
    """Least primitive root modulo the prime r."""
    if not is_small_prime(r):
        raise ValueError(f"r must be prime, got {r}")
    if r == 2:
        return 1
    divisors = [p for p, _ in factorize(r - 1)]
    for g in range(2, r):
        if all(pow(g, (r - 1) // p, r) != 1 for p in divisors):
            return g
    raise ValueError(f"no primitive root mod {r}")  # unreachable for prime r


def _check_pair_args(r: int, q: int, n: int) -> None:
    if not is_small_prime(r) or n % r == 0:
        raise ValueError(f"r must be a prime not dividing N, got r={r}")
    if not is_small_prime(q) or (r - 1) % q != 0:
        raise ValueError(f"q must be a prime divisor of r-1, got q={q}")


class _Classes(NamedTuple):
    """The class table of a period pair (r, q), from _eta_classes."""

    q: int
    label: list[int]  # the class of t, for each t mod r
    gather: itemgetter
    k: int  # (r - 1) / q, the size of each coset


def _eta_classes(r: int, q: int) -> _Classes:
    """The class table of (r, q).

    With g the smallest primitive root mod r and H = <g^q> the k q-th power
    residues, the classes are {0}, labelled 0, and the cosets g^c H,
    labelled 1 + c for c = 0..q-1.  eta is the indicator of class 1, and
    tau^s(eta) that of class 1 + (s mod q).  The coefficient of x^t in
    eta acc sums acc's at x^(t-h) over h in H, so gather(acc), read at one
    t per class, returns those k values for each class in turn, r + k - 1
    in all."""
    g = smallest_primitive_root(r)
    powers = [1]  # g^j, j = 0..r-2
    for _ in range(r - 2):
        powers.append(powers[-1] * g % r)
    label = [0] * r
    for j, t in enumerate(powers):
        label[t] = 1 + j % q
    subgroup = powers[::q]
    gather = itemgetter(*[label[(t - h) % r] for t in [0] + powers[:q] for h in subgroup])
    return _Classes(q, label, gather, len(subgroup))


def _coset_class(a: int, classes: _Classes) -> int:
    """The class of a in (Z/rZ)^x modulo q-th powers, as the exponent c with
    a in g^c H: the automorphism zeta -> zeta^a shifts the period
    conjugates by tau^c.  -1 when r divides a."""
    return classes.label[a % len(classes.label)] - 1


# ---------------------------------------------------------------------------
# period polynomials and composed products
# ---------------------------------------------------------------------------

def period_polynomial(r: int, q: int, n: int) -> ModPoly:
    """The monic degree-q polynomial with the conjugate periods as roots.

    Its power sums come from the constant terms S_j of eta^j modulo
    x^r - 1: summing sigma_a(eta^j) over all a in (Z/rZ)^x counts each
    conjugate k = (r-1)/q times and sends zeta^t, t != 0, to -1, so
    k p_j = r S_j - k^j over Z.  Newton's identities then divide step j by
    j: the n-smooth part s_j of j exactly, which costs that factor of
    precision, and the rest as a unit mod n.  So p_j is taken mod m_j =
    n s_j s_(j+1) ... s_q, and the coefficients come out right mod n for
    every n (every s_j = 1 when n has no prime factor <= q).  That
    f(eta) = 0 in (Z/NZ)[zeta_r] is asserted; a failure is a hard internal
    error (RuntimeError), not a recoverable condition.
    """
    _check_pair_args(r, q, n)
    k = (r - 1) // q
    # the n-smooth part of j, as no prime divides j bits(j) times
    smooth = [1] + [math.gcd(j, pow(n, j.bit_length(), j)) for j in range(1, q + 1)]
    mods = list(accumulate(reversed(smooth), mul, initial=n))[::-1]
    classes = _eta_classes(r, q)
    consts = [acc[0] for acc in
              _eta_horner(classes, [1] + [0] * q, [k * m for m in mods[:-1]])]
    sums = [(r * s - pow(k, j, k * m)) % (k * m) // k
            for j, (s, m) in enumerate(zip(consts, mods))]
    coeffs = [c % n for c in reversed(_newton(sums, mods))]
    _check_period_root(r, q, n, coeffs, classes)
    return ModPoly(n, coeffs)


def _eta_horner(
    classes: _Classes, addends: Sequence[int], moduli: Sequence[int]
) -> Iterator[list[int]]:
    """Horner's rule acc <- eta acc + c in (Z/mZ)[x]/(x^r - 1), from acc = 0,
    for c, m in zip(addends, moduli), each m a multiple of the next: acc
    after every step.

    acc, a polynomial in eta, is fixed by x -> x^h for each h in H, so it
    is kept as its q + 1 values on the classes, the constant term first.
    A step sums the gathered values class by class: O(r) additions
    whatever q is.
    """
    gather, k = classes.gather, classes.k
    acc = [0] * (classes.q + 1)
    for c, m in zip(addends, moduli):
        acc = [s % m for s in map(sum, zip(*[iter(gather(acc))] * k))]
        acc[0] = (acc[0] + c) % m
        yield acc


def _check_period_root(r: int, q: int, n: int, coeffs: Sequence[int],
                       classes: _Classes) -> None:
    """Raise RuntimeError unless f(eta) = 0 in (Z/nZ)[zeta_r].

    _eta_horner evaluates f at eta modulo x^r - 1, to a(x) of degree < r.
    Phi_r = 1 + x + ... + x^(r-1) is monic of degree r - 1, so a mod Phi_r
    is a - a_{r-1} Phi_r, whose coefficients are a_i - a_{r-1}: a is 0 in
    (Z/nZ)[x]/(Phi_r) exactly when all r coefficients, so all its class
    values, are equal.
    """
    value = deque(_eta_horner(classes, coeffs[::-1], [n] * len(coeffs)), maxlen=1)[0]
    if len(set(value)) != 1:
        raise RuntimeError(
            f"period polynomial does not vanish at eta for (r={r}, q={q}, N={n})")


def _power_sums(f: ModPoly, count: int) -> list[int]:
    """p_k mod N, k = 1..count (p[0] is unused), of the roots of the monic f,
    by Newton's identities."""
    n, q = f.modulus, f.degree
    a = f.coeffs[::-1]  # a[i] is the coefficient of x^(q-i)
    p = [0] * (count + 1)
    for k in range(1, count + 1):
        m = min(k - 1, q)
        s = sum(map(mul, a[1:m + 1], reversed(p[k - m:k])))
        p[k] = (-s - k * a[k] if k <= q else -s) % n
    return p


def _newton(sums: Sequence[int], mods: Sequence[int]) -> list[int]:
    """b[k], the coefficient of x^(d-k), of the monic degree-d polynomial
    whose power sums are sums[1..d], by Newton's identities
    k b[k] = -sum(b[k-i] p_i, i = 1..k).  Step k works mod mods[k] (p_k
    must be right modulo it; the operands are reduced when it drops) and
    divides by s = mods[k] / mods[k+1] exactly, leaving b[k] right mod
    mods[k+1], and by k / s through _invert_or_hit, which raises _FactorHit
    when that shares a factor with mods[k]."""
    b, p = [1], list(sums)
    for k in range(1, len(p)):
        m = mods[k]
        if m != mods[k - 1]:
            b, p = [x % m for x in b], [x % m for x in p]
        s = m // mods[k + 1]
        t = -sum(map(mul, b, reversed(p[1:k + 1]))) % m
        b.append(t // s * _invert_or_hit(k // s % m, m) % mods[k + 1])
    return b


def _composed_product(fs: Sequence[ModPoly]) -> ModPoly:
    """The monic polynomial over Z/NZ whose roots are the products of one
    root of each monic polynomial in fs.

    Its power sums are the products of theirs, and Newton's identities
    (_newton) give back its coefficients, dividing by k = 1..deg (a k
    sharing a factor with N raises _FactorHit).  That the result has the
    product sums is asserted, by recomputing them from it.
    """
    if len(fs) == 1:
        return fs[0]
    n = fs[0].modulus
    d = math.prod(f.degree for f in fs)
    sums = [math.prod(col) % n for col in zip(*(_power_sums(f, d) for f in fs))]
    f = ModPoly(n, _newton(sums, [n] * (d + 2))[::-1])
    if _power_sums(f, d) != sums:
        raise RuntimeError(f"the composed product mod {n} lost its power sums")
    return f


def _squarefree_composed_product(fs: Sequence[ModPoly]) -> Union[ModPoly, FactorFound]:
    """The composed product of fs, and for several factors one Euclid that
    decides whether f' is a unit mod f, i.e. whether f is squarefree modulo
    every p | N.

    It is polyring's packed gcd-only Euclid, whose remainders are unit
    multiples of the monic ones, so it meets the same non-unit leading
    coefficient first.  A divisor of N met in Newton's identities or in the
    Euclid is returned as FactorFound, and a nonconstant gcd raises
    TensorDependency, a distinct failure that neither certifies
    compositeness nor produces a polynomial.
    """
    try:
        f = _composed_product(fs)
    except _FactorHit as hit:
        return FactorFound(hit.divisor)
    if len(fs) > 1:
        n = f.modulus
        derivative = ModPoly(n, [k * c for k, c in enumerate(f.coeffs)][1:])
        out = _euclid(derivative, f, bezout=False)
        if isinstance(out, FactorFound):
            return out
        if len(out[0]) > 1:
            raise TensorDependency(
                f"the composed product of degree {f.degree} is not squarefree mod {n}")
    return f


# ---------------------------------------------------------------------------
# linear solving over Z/NZ
# ---------------------------------------------------------------------------

def _solve_columns(
    cols: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
    m: int,
) -> Optional[list[list[int]]]:
    """Solve cols @ c == t for each target t by Gauss elimination over Z/mZ.

    Pivots are the first nonzero entry in each column; a non-invertible
    pivot raises _FactorHit with its gcd against m.  Returns one coefficient
    vector per target, or None when the columns are dependent or a target
    is inconsistent.
    """
    ncols = len(cols)
    dim = len(cols[0])
    width = ncols + len(targets)
    rows = [[cols[j][i] % m for j in range(ncols)]
            + [t[i] % m for t in targets] for i in range(dim)]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, dim) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = _invert_or_hit(rows[rank][col], m)
        if inv != 1:
            rows[rank] = [v * inv % m for v in rows[rank]]
        lead = rows[rank]
        for i in range(dim):
            if i != rank and rows[i][col]:
                t = rows[i][col]
                row = rows[i]
                rows[i] = [(row[k] - t * lead[k]) % m for k in range(width)]
        rank += 1
    for i in range(rank, dim):
        if any(rows[i][ncols:]):
            return None
    return [[rows[i][ncols + t] for i in range(ncols)]
            for t in range(len(targets))]


# ---------------------------------------------------------------------------
# pseudofields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pseudofield:
    """(Z/NZ[x])/(f) with generator alpha = residue of x and sigma(alpha) = alpha^N.

    system records the period pairs the ring was built from, when known;
    the axiom checks exploit it.
    """

    modulus: int
    f: ModPoly
    degree: int
    system: Optional[PeriodSystem] = None

    def __post_init__(self):
        if self.f.modulus != self.modulus:
            raise ValueError("defining polynomial has the wrong modulus")
        if not self.f.is_monic() or self.f.degree < 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        if self.degree != self.f.degree:
            raise ValueError("degree must equal deg f")


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking sigma^d(alpha) = alpha and the unit conditions.

    unit_checks maps each prime l | d to the classification of
    sigma^(d/l)(alpha) - alpha in the ring.  verdict is "verified",
    "refuted", or "composite_found" (with the divisor)."""

    sigma_power_identity: bool
    unit_checks: tuple[tuple[int, UnitOutcome], ...]
    verdict: str
    divisor: Optional[int] = None


@dataclass(frozen=True)
class Constructed:
    """Successful polynomial construction: f plus its provenance."""

    f: ModPoly
    pseudofield: Pseudofield
    system: PeriodSystem


def pseudofield_from_period_pair(n: int, pair: PeriodPair) -> Pseudofield:
    """The degree-q pseudofield defined by the period polynomial of (r, q)."""
    if not is_period_pair(n, pair.r, pair.q):
        raise ValueError(f"({pair.r}, {pair.q}) is not a period pair for {n}")
    f = period_polynomial(pair.r, pair.q, n)
    return Pseudofield(n, f, pair.q, PeriodSystem((pair,), pair.q))


def _x_residue(f: ModPoly) -> ModPoly:
    """The residue of x in (Z/NZ[x])/(f), reduced (nontrivial when deg f = 1)."""
    if f.degree >= 2:
        return ModPoly.x(f.modulus)
    return ModPoly(f.modulus, [-f.coeffs[0]])


def _power_columns(f: ModPoly, count: int) -> list[list[int]]:
    """Coefficient vectors of x^k mod f, k = 0..count-1, padded to deg f."""
    d = f.degree
    m = f.modulus
    cols = []
    cur = ModPoly.one(m)
    x = _x_residue(f)
    for _ in range(count):
        cols.append([cur.coefficient(i) for i in range(d)])
        cur = poly_mul_mod(cur, x, f)
    return cols


def _kron(u: Sequence[int], v: Sequence[int], m: int) -> list[int]:
    out = [0] * (len(u) * len(v))
    lv = len(v)
    for i, ui in enumerate(u):
        if ui:
            base = i * lv
            for j, vj in enumerate(v):
                if vj:
                    out[base + j] = ui * vj % m
    return out


def tensor_product(a1: Pseudofield, a2: Pseudofield) -> Union[Pseudofield, FactorFound]:
    """Pseudofield generated by alpha1 (x) alpha2, of degree d1*d2.

    Its defining polynomial is the composed product of a1.f and a2.f,
    checked squarefree, as construct_poly_pipeline builds it
    (_squarefree_composed_product): a divisor of N met on the way is
    returned as FactorFound, and a nonconstant gcd of f and f' raises
    TensorDependency.
    """
    if a1.modulus != a2.modulus:
        raise ValueError("pseudofields over different moduli")
    if a1.degree <= 1 or a2.degree <= 1:
        raise ValueError("both degrees must exceed 1")
    if math.gcd(a1.degree, a2.degree) != 1:
        raise ValueError("degrees must be coprime")
    n = a1.modulus
    if n <= a1.degree * a2.degree:
        raise ValueError("need N > d1*d2")
    f = _squarefree_composed_product([a1.f, a2.f])
    if isinstance(f, FactorFound):
        return f
    system = None
    if (a1.system is not None and a2.system is not None
            and system_degree(a1.system) == a1.degree
            and system_degree(a2.system) == a2.degree):
        pairs = tuple(sorted(a1.system.pairs + a2.system.pairs, key=lambda p: p.q))
        qs = [p.q for p in pairs]
        if len(set(qs)) == len(qs):
            system = PeriodSystem(pairs, a1.degree * a2.degree)
    return Pseudofield(n, f, f.degree, system)


# -- structural sigma machinery ---------------------------------------------

def _shifted_periods(
    n: int, classes: _Classes, shifts: Sequence[int]
) -> Optional[list[list[int]]]:
    """Coordinates of tau^s(eta) on the basis 1, eta, ..., eta^(q-1) of the
    pair's ring over Z/nZ, one per s in shifts; None when the powers of eta
    do not span them (a non-invertible pivot raises _FactorHit).

    An element with class values v has the coordinate
    v[label[t]] - v[label[r-1]] at zeta^t, t < r - 1, on the power basis
    1..zeta^(r-2) of (Z/nZ)[zeta_r]; it takes one value per class.  The
    rows are the q classes other than label[r-1], whose coordinate is 0, in
    the order they first occur for t = 0..r-2, as the power basis orders
    its rows: a pivot is the first nonzero entry of its column, so the
    order decides which non-unit pivot, if any, is met for composite n."""
    q, label = classes.q, classes.label
    top = label[-1]
    rows = [c for c in dict.fromkeys(label[:-1]) if c != top]

    def coords(v: Sequence[int]) -> list[int]:
        return [v[c] - v[top] for c in rows]

    powers = _eta_horner(classes, [1] + [0] * (q - 1), [n] * q)
    periods = ([int(c == 1 + s % q) for c in range(q + 1)] for s in shifts)
    return _solve_columns([coords(v) for v in powers], [coords(v) for v in periods], n)


def _report_from_checks(
    identity: bool,
    checks: list[tuple[int, UnitOutcome]],
) -> AxiomReport:
    divisor = next((c.divisor for _, c in checks if isinstance(c, FactorFound)), None)
    if divisor is not None:
        verdict = "composite_found"
    elif identity and all(isinstance(c, Unit) for _, c in checks):
        verdict = "verified"
    else:
        verdict = "refuted"
    return AxiomReport(identity, tuple(checks), verdict, divisor)


def verify_axioms(a: Pseudofield) -> AxiomReport:
    """Check sigma^d(alpha) = alpha and sigma^(d/l)(alpha) - alpha in A^x.

    With period-system provenance, sigma-powers are realized through the
    cyclotomic action (sigma shifts each factor's period conjugates by the
    class of N), carried to the power basis of alpha by one elimination.
    Without provenance, or when the provenance does not define a.f, they
    are realized as the iterated power chain beta_{i+1} = beta_i^N mod f,
    which agrees for prime N.  Any divisor of N exposed along the way
    yields the composite_found verdict.
    """
    n, f, d = a.modulus, a.f, a.degree
    try:
        if a.system is not None and system_degree(a.system) == d:
            report = _verify_structural(a)
            if report is not None:
                return report
        return _verify_power_chain(n, f, d)
    except _FactorHit as hit:
        return AxiomReport(False, (), "composite_found", hit.divisor)


def _verify_structural(a: Pseudofield) -> Optional[AxiomReport]:
    """sigma-powers of alpha through the period system, or None when the
    system cannot realize sigma on a.f.

    sigma^i shifts each pair's periods by tau^(i * class of N).  On the
    product of the pairs' power bases, alpha^k is the Kronecker product of
    the pairs' x^k mod f_j and sigma^i(alpha) that of the shifted periods,
    so one _solve_columns call over alpha's d powers writes every
    sigma^i(alpha) on alpha's power basis.  Before sigma is expressed, the
    pairs must be period pairs for N and their composed product must be
    a.f: expressing sigma inverts pivots of its own, and on a ring the
    pairs do not define, a divisor or a dependency met there would replace
    the power chain's verdict.  With d >= N some k <= d is 0 mod N, so the
    composed product cannot be formed and the power chain decides.
    """
    n, d = a.modulus, a.degree
    pairs = sorted(a.system.pairs, key=lambda p: p.q)
    if d >= n or not all(is_period_pair(n, p.r, p.q) for p in pairs):
        return None
    polys = [period_polynomial(pair.r, pair.q, n) for pair in pairs]
    if _composed_product(polys) != a.f:
        return None  # provenance does not match f; use the power chain
    primes = sorted({pair.q for pair in pairs})
    exponents = [d] + [d // l for l in primes]
    cols, targets = [[1]] * d, [[1]] * len(exponents)
    for pair, g in zip(pairs, polys):
        classes = _eta_classes(pair.r, pair.q)
        c = _coset_class(n, classes)
        shifted = _shifted_periods(n, classes, [i * c for i in exponents])
        if shifted is None:
            return None
        cols = [_kron(u, v, n) for u, v in zip(cols, _power_columns(g, d))]
        targets = [_kron(u, v, n) for u, v in zip(targets, shifted)]
    vecs = _solve_columns(cols, targets, n)
    if vecs is None:
        return None
    x = _x_residue(a.f)
    identity = ModPoly(n, vecs[0]) == x
    checks: list[tuple[int, UnitOutcome]] = []
    for l, v in zip(primes, vecs[1:]):
        u = ModPoly(n, v) - x
        checks.append((l, poly_is_unit_mod(u, a.f)))
    return _report_from_checks(identity, checks)


def _rabin_chain(
    f: ModPoly, e: int, d: int
) -> tuple[bool, list[tuple[int, ModPoly]]]:
    """Rabin's data for x -> x^e on (Z/mZ[x])/(f), from x^(e^i) for i <= d:
    whether x^(e^d) = x, and x^(e^(d/l)) - x for each prime l | d."""
    x = _x_residue(f)
    primes = [l for l, _ in factorize(d)]
    wanted = {d // l for l in primes}
    stops: dict[int, ModPoly] = {}
    g = x
    for i in range(1, d + 1):
        g = poly_pow_mod(g, e, f)
        if i in wanted or i == d:
            stops[i] = g
    return stops[d] == x, [(l, stops[d // l] - x) for l in primes]


def _verify_power_chain(n: int, f: ModPoly, d: int) -> AxiomReport:
    identity, diffs = _rabin_chain(f, n, d)
    return _report_from_checks(
        identity, [(l, poly_is_unit_mod(u, f)) for l, u in diffs])


def frobenius_index_mod_p(a: Pseudofield, p: int) -> int:
    """The unique i in [0, d) with beta^p = sigma^i(beta) mod pA.

    For period-pair provenance the index is computed per factor from the
    classes of p and N in (Z/rZ)^x modulo q-th powers (each verified
    against the Frobenius identity eta^p = tau^class(p)(eta) in the
    cyclotomic ring mod p) and assembled by CRT.  Without provenance the
    power chain x^(N^i) mod (p, f) is searched directly; failure to find a
    match refutes pseudofield-ness over p.
    """
    if p < 2 or a.modulus % p != 0 or not is_small_prime(p):
        raise ValueError(f"p = {p} must be a prime divisor of N = {a.modulus}")
    if a.system is not None and system_degree(a.system) == a.degree:
        index, mod = 0, 1
        for pair in a.system.pairs:
            i_j = _pair_frobenius_index(a.modulus, pair, p)
            # CRT-combine i = i_j mod q_j across the pairwise coprime q's
            delta = (i_j - index) * pow(mod, -1, pair.q) % pair.q
            index += mod * delta
            mod *= pair.q
        return index
    return _frobenius_index_search(a, p)


def _pair_frobenius_index(n: int, pair: PeriodPair, p: int) -> int:
    r, q = pair.r, pair.q
    if p % r == 0:
        raise ValueError(f"p = {p} ramifies in the r = {r} cyclotomic ring")
    classes = _eta_classes(r, q)
    class_n = _coset_class(n, classes)
    class_p = _coset_class(p, classes)
    if class_n < 1:
        raise ValueError(f"({r}, {q}) is not a period pair for {n}")
    i_j = class_p * pow(class_n, -1, q) % q
    # sanity: Frobenius must shift the periods by the class of p, eta^p =
    # tau^class_p(eta) mod (p, Phi_r); the indicator slots of a class, with
    # zeta^(r-1) eliminated, are its period on the power basis 1..zeta^(r-2)
    label = classes.label
    eta, shifted = (ModPoly(p, [(label[t] == c) - (label[-1] == c) for t in range(r - 1)])
                    for c in (1, 1 + class_p))
    if poly_pow_mod(eta, p, ModPoly(p, [1] * r)) != shifted:
        raise ValueError(
            f"Frobenius consistency check failed mod {p} for pair ({r}, {q})")
    return i_j


def _frobenius_index_search(a: Pseudofield, p: int) -> int:
    fp = a.f.reduce_to_modulus(p)
    if fp.degree != a.degree:
        raise ValueError("f degenerates mod p")
    x = _x_residue(fp)
    target = poly_pow_mod(x, p, fp)
    beta = x
    for i in range(a.degree):
        if beta == target:
            return i
        beta = poly_pow_mod(beta, a.modulus, fp)
    raise ValueError(
        f"no i in [0, {a.degree}) with x^p = x^(N^i) mod ({p}, f): "
        f"not a pseudofield over {p}")


def is_irreducible_mod_p(f: ModPoly, p: int) -> bool:
    """Irreducibility of f mod p: x^(p^d) = x and, for every prime l | d,
    x^(p^(d/l)) - x a unit mod (p, f)."""
    if not is_small_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    fp = ModPoly(p, f.coeffs)
    d = fp.degree
    if d < 1 or not fp.is_monic():
        raise ValueError("f must stay monic of degree >= 1 mod p")
    return _verify_power_chain(p, fp, d).verdict == "verified"


def construct_poly_pipeline(
    n: int, degree_target: int, system: Optional[PeriodSystem] = None
) -> Union[Constructed, FactorFound, None]:
    """Find a period system for n, unless the one find_period_system(n,
    degree_target) found is given, and build its defining polynomial.

    f is the composed product of the pairs' period polynomials, built mod n
    from power sums.  For a system of several pairs, Newton's identities
    for that product divide by every k <= deg f, so the least prime p <=
    deg f dividing n is returned as FactorFound(p) before the period
    polynomials are built.  Then one Euclid checks that f is squarefree
    modulo every p | n (_squarefree_composed_product, which tensor_product
    runs too): a divisor of n met there is returned as FactorFound(d), and
    a nonconstant gcd raises TensorDependency.  Returns
    Constructed(f, ...) with deg f in [D, 2D) on success, and None when no
    period system of the target degree exists within the search caps of
    find_period_system.
    """
    if degree_target < 2:
        raise ValueError("degree target must be >= 2")
    if n <= 2 * degree_target:
        raise ValueError(f"need N > 2D = {2 * degree_target}, got {n}")
    if system is None:
        system = find_period_system(n, degree_target)
        if system is None:
            return None
    if len(system.pairs) > 1 and (p := least_divisor(n, system.degree)):
        return FactorFound(p)
    f = _squarefree_composed_product(
        [period_polynomial(pair.r, pair.q, n) for pair in system.pairs])
    if isinstance(f, FactorFound):
        return f
    if not degree_target <= f.degree < 2 * degree_target:
        raise RuntimeError(
            f"constructed degree {f.degree} escaped [{degree_target}, "
            f"{2 * degree_target})")
    return Constructed(f, Pseudofield(n, f, f.degree, system), system)
