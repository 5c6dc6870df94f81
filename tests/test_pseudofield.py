import functools
import math
import random
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abprime import (
    AxiomReport,
    Constructed,
    FactorFound,
    ModPoly,
    PeriodPair,
    Pseudofield,
    Unit,
    construct_poly_pipeline,
    frobenius_index_mod_p,
    is_irreducible_mod_p,
    is_period_pair,
    period_polynomial,
    pseudofield_from_period_pair,
    tensor_product,
    verify_axioms,
)
from abprime.intarith import factorize
from abprime.periodsys import PeriodSystem, find_period_system, is_small_prime
from abprime.polyring import _mul_coeffs
from abprime.primality import Divisor, Outcome, PipelineConfig, full_pipeline
from abprime.pseudofield import (
    TensorDependency,
    _FactorHit,
    _check_period_root,
    _composed_product,
    _coset_class,
    _eta_classes,
    _kron,
    _power_columns,
    _solve_columns,
    _verify_power_chain,
    _verify_structural,
    smallest_primitive_root,
)
from cyclotomic_oracle import (
    CyclotomicAut,
    CyclotomicElt,
    cyc_apply_aut,
    gaussian_period,
    min_poly_mod_prime,
    period_conjugates,
    qth_powers,
    shifted_periods,
)


def cyclo(m, r, *coords):
    return CyclotomicElt(m, r, coords)


# ---------------------------------------------------------------------------
# cyclotomic ring
# ---------------------------------------------------------------------------

def test_apply_aut_examples():
    zeta = CyclotomicElt.zeta(11, 5)
    assert cyc_apply_aut(zeta, CyclotomicAut(5, 1)) == zeta
    assert cyc_apply_aut(zeta, CyclotomicAut(5, 2)) == cyclo(11, 5, 0, 0, 1, 0)
    # zeta^3 under sigma_3: zeta^9 = zeta^4 = -1 - zeta - zeta^2 - zeta^3
    z3 = cyclo(11, 5, 0, 0, 0, 1)
    assert cyc_apply_aut(z3, CyclotomicAut(5, 3)) == cyclo(11, 5, -1, -1, -1, -1)


def test_cyclotomic_arithmetic_basics():
    r, m = 7, 13
    zeta = CyclotomicElt.zeta(m, r)
    # zeta^7 == 1
    assert zeta.pow(7) == CyclotomicElt.one(m, r)
    # sum over all powers of zeta is zero: 1 + zeta + ... + zeta^6 = 0
    total = CyclotomicElt.zero(m, r)
    cur = CyclotomicElt.one(m, r)
    for _ in range(7):
        total = total + cur
        cur = cur * zeta
    assert total == CyclotomicElt.zero(m, r)


def test_cyclotomic_pow_matches_repeated_mul():
    # deg Phi_r = r - 1 lies below _KRONECKER_MIN for r = 7 and above it for
    # r = 31, 101, so both the schoolbook and the fused path are exercised
    from abprime.polyring import _KRONECKER_MIN
    assert 7 - 1 < _KRONECKER_MIN <= 31 - 1 < 101 - 1
    rng = random.Random(41)
    for m in (15, 341, 97, 2**61 - 1):
        for r in (7, 31, 101):
            a = CyclotomicElt(m, r, [rng.randrange(m) for _ in range(r - 1)])
            assert a.pow(0) == CyclotomicElt.one(m, r)
            want = CyclotomicElt.one(m, r)
            for e in range(1, 40):
                want = want * a
                assert a.pow(e) == want, (m, r, e)


def test_cyclotomic_mul_matches_naive():
    # r = 31, 101 put the fused Kronecker product mod Phi_r under this
    # independent slot oracle as well as the schoolbook one
    rng = random.Random(40)
    for _ in range(50):
        r = rng.choice([3, 5, 7, 11, 31, 101])
        m = rng.randint(2, 100)
        a = CyclotomicElt(m, r, [rng.randrange(m) for _ in range(r - 1)])
        b = CyclotomicElt(m, r, [rng.randrange(m) for _ in range(r - 1)])
        # naive slot product with explicit zeta^(r-1) elimination
        slots = [0] * r
        for i, ai in enumerate(a.coords):
            for j, bj in enumerate(b.coords):
                slots[(i + j) % r] = (slots[(i + j) % r] + ai * bj) % m
        top = slots[r - 1]
        want = CyclotomicElt(m, r, [slots[i] - top for i in range(r - 1)])
        assert a * b == want


def test_gaussian_period_examples():
    # quadratic residues mod 5 are {1, 4}: eta = zeta + zeta^4
    got = gaussian_period(5, 2, 11)
    assert got == cyclo(11, 5, -1, 0, -1, -1)  # zeta^4 folded into the basis
    # quadratic residues mod 7 are {1, 2, 4}
    assert gaussian_period(7, 2, 11) == cyclo(11, 7, 0, 1, 1, 0, 1, 0)
    # cubes mod 7 are {1, 6}: eta = zeta + zeta^6
    assert gaussian_period(7, 3, 11) == cyclo(11, 7, -1, 0, -1, -1, -1, -1)


def test_gaussian_period_validation():
    with pytest.raises(ValueError):
        gaussian_period(7, 3, 14)  # r | N
    with pytest.raises(ValueError):
        gaussian_period(7, 4, 11)  # q not prime
    with pytest.raises(ValueError):
        gaussian_period(7, 5, 11)  # q does not divide r-1


# ---------------------------------------------------------------------------
# period polynomials
# ---------------------------------------------------------------------------

def test_period_polynomial_classical_values():
    rng = random.Random(41)
    picked = 0
    while picked < 10:
        n = rng.randint(2, 10**9)
        if n % 5 == 0 or n % 7 == 0:
            continue
        picked += 1
        assert period_polynomial(5, 2, n) == ModPoly(n, [n - 1, 1, 1])
        assert period_polynomial(7, 2, n) == ModPoly(n, [2, 1, 1])
    # classical cubic: x^3 + x^2 - 2x - 1
    assert period_polynomial(7, 3, 341) == ModPoly(341, [340, 339, 1, 1])


def test_period_polynomial_monic_of_degree_q():
    rng = random.Random(42)
    cases = [(5, 2), (7, 2), (7, 3), (11, 2), (11, 5), (13, 2), (13, 3), (31, 5)]
    for r, q in cases:
        n = rng.randint(2, 10**6)
        while n % r == 0:
            n += 1
        f = period_polynomial(r, q, n)
        assert f.degree == q
        assert f.is_monic()
        assert f.modulus == n


def test_period_polynomial_against_minimal_poly_oracle():
    # over prime fields, the expanded product equals the minimal polynomial
    for r, q, n in [(5, 2, 13), (7, 2, 11), (7, 3, 11), (11, 2, 7),
                    (11, 5, 23), (13, 2, 5), (13, 3, 7)]:
        eta = gaussian_period(r, q, n)
        assert period_polynomial(r, q, n) == min_poly_mod_prime(eta, n, q)


def cyclotomic_period_polynomial(r, q, n):
    """Oracle: expand prod (x - tau^m eta) inside (Z/nZ)[zeta_r] and require
    every coefficient to collapse to a constant."""
    coeffs = [CyclotomicElt.one(n, r)]
    for eta in period_conjugates(r, q, n):
        shifted = [CyclotomicElt.zero(n, r)] + coeffs
        coeffs = [s - c * eta for s, c in
                  zip(shifted, coeffs + [CyclotomicElt.zero(n, r)])]
    return ModPoly(n, [c.constant_value() for c in coeffs])


def test_period_polynomial_matches_cyclotomic_expansion():
    # 1000003 is prime and 1000001 = 101 * 9901; the expansion runs once
    # modulo their product, which reduces to the expansion modulo each
    moduli = (1000003, 1000001)
    for r, q in [(5, 2), (7, 3), (173, 43), (367, 61), (607, 101)]:
        want = cyclotomic_period_polynomial(r, q, moduli[0] * moduli[1])
        for n in moduli:
            assert period_polynomial(r, q, n) == want.reduce_to_modulus(n), (r, q, n)


@pytest.mark.parametrize("j", [0, 1, 30, 60])
def test_period_polynomial_corrupted_coefficient_is_caught(monkeypatch, j):
    # +1 on coefficient j of the power-sum route's output, on its way into
    # the check; the check f(eta) = 0 must reject it
    import abprime.pseudofield as pf
    real = pf._check_period_root

    def corrupted(r, q, n, coeffs, classes):
        coeffs = list(coeffs)
        coeffs[min(j, len(coeffs) - 2)] += 1
        real(r, q, n, coeffs, classes)

    monkeypatch.setattr(pf, "_check_period_root", corrupted)
    for r, q, n in [(7, 3, 341), (7, 3, 97), (367, 61, 2111), (367, 61, 1000001)]:
        with pytest.raises(RuntimeError, match="does not vanish"):
            period_polynomial(r, q, n)
    with pytest.raises(RuntimeError, match="does not vanish"):
        construct_poly_pipeline(2111, 121)


def _reference_period_root(r, q, n, coeffs):
    # the list Horner: slot vectors modulo x^r - 1, multiplying by eta sums
    # its (r-1)/q rotations, then zeta^(r-1) eliminated by from_slots
    shifts = qth_powers(r, q)
    acc = [0] * r
    for c in reversed(coeffs):
        acc = [s % n for s in map(sum, zip(*[acc[-h:] + acc[:-h] for h in shifts]))]
        acc[0] = (acc[0] + c) % n
    if any(CyclotomicElt.from_slots(n, r, acc).coords):
        raise RuntimeError(
            f"period polynomial does not vanish at eta for (r={r}, q={q}, N={n})")


def _raises(check, *args):
    try:
        check(*args)
    except RuntimeError as exc:
        assert "does not vanish" in str(exc)
        return True
    return False


_SMALL_PRIMES = [p for p in range(3, 500) if is_small_prime(p)]
_NAMED_MODULI = [2, 3, 4, 9, 15, 255, 256, 257, 341, 561, 2**61 - 1, 2**64 + 1]


def _period_pair_draw(rnd):
    # r a prime below 500 and q any prime divisor of r - 1 (q = r - 1 = 2 at r = 3)
    r = rnd.choice(_SMALL_PRIMES)
    return r, rnd.choice([p for p, _ in factorize(r - 1)])


@st.composite
def _period_root_inputs(draw):
    # drawn from rnd, not by hypothesis, which favours the smallest values
    rnd = random.Random(draw(st.integers(0, 2**64)))
    r, q = _period_pair_draw(rnd)
    n = (rnd.choice(_NAMED_MODULI) if rnd.random() < 0.6
         else rnd.randrange(2, 2**rnd.randint(2, 200) + 1))
    return r, q, n, rnd.randrange(q + 1), rnd.choice([1, -1])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_period_root_inputs())
def test_period_root_check_matches_list_horner_property(inputs):
    # the packed check raises exactly where the list Horner does: never on
    # f_{r,q}, always on f +- x^j, and on f + (n/p) x^j for a prime p | n,
    # which vanishes modulo n/p but not modulo n, wherever the oracle does
    r, q, n, j, sign = inputs
    f = integer_period_polynomial(r, q)
    inputs = [(f, False), ([c + sign * (i == j) for i, c in enumerate(f)], True)]
    # a prime p | n by trial division, plus 274177, the least factor of 2^64 + 1
    p = next((d for d in [*range(2, 10**4), 274177] if n % d == 0), n)
    if p < n:
        inputs.append(([c + (n // p) * (i == j) for i, c in enumerate(f)], None))
    for coeffs, want in inputs:
        got = _raises(_check_period_root, r, q, n, coeffs, _eta_classes(r, q))
        assert got == _raises(_reference_period_root, r, q, n, coeffs), (r, q, n, j)
        assert want is None or got == want, (r, q, n, j)


def integer_power_sums(coeffs, count):
    """Oracle: p_k, k = 1..count (p[0] is unused), of the roots of the monic
    integer polynomial coeffs (constant term first), by Newton's identities."""
    q = len(coeffs) - 1
    a = coeffs[::-1]  # a[i] is the coefficient of x^(q-i)
    p = [0] * (count + 1)
    for k in range(1, count + 1):
        m = min(k - 1, q)
        s = sum(map(mul, a[1:m + 1], reversed(p[k - m:k])))
        p[k] = -s - k * a[k] if k <= q else -s
    return p


def integer_composed_product(polys):
    """Oracle: the composed product over Z, each division by k asserted
    exact; constant terms first."""
    if len(polys) == 1:
        return list(polys[0])
    d = math.prod(len(c) - 1 for c in polys)
    sums = [math.prod(col) for col in zip(*(integer_power_sums(c, d) for c in polys))]
    b = [1]  # b[k] is the coefficient of x^(d-k)
    for k in range(1, d + 1):
        b_k, rem = divmod(-sum(map(mul, b, reversed(sums[1:k + 1]))), k)
        assert rem == 0, k
        b.append(b_k)
    return b[::-1]


def _fold(fs):
    """Oracle: the elimination route to the composed product mod N.  Tensor
    the rings (Z/NZ[x])/(f_j) left to right: each step writes the powers of
    alpha (x) x_j on the product basis and solves for alpha's next minimal
    polynomial over Z/NZ.  A non-invertible pivot raises _FactorHit and
    dependent powers raise TensorDependency."""
    m, f = fs[0].modulus, fs[0]
    for g in fs[1:]:
        d = f.degree * g.degree
        p1, p2 = _power_columns(f, d + 1), _power_columns(g, d + 1)
        cols = [_kron(p1[k], p2[k], m) for k in range(d)]
        sol = _solve_columns(cols, [_kron(p1[d], p2[d], m)], m)
        if sol is None:
            raise TensorDependency(f"dependent powers before degree {d}")
        f = ModPoly(m, [(-c) % m for c in sol[0]] + [1])
    return f


@functools.lru_cache(maxsize=None)
def integer_period_polynomial(r, q):
    """Oracle: f_{r,q} over Z, constant term first, by CRT over primes,
    independent of the power sums.  In F_P, P = 1 (mod r), the periods are
    plain residues: zeta = h^((P-1)/r) for the least h giving zeta != 1,
    eta_m sums zeta^i over the m-th coset of the q-th powers, and the q
    linear factors are multiplied pairwise up a product tree.  Each period
    sums k = (r-1)/q roots of unity, so |e_j| <= C(q, j) k^j; primes P
    above 2^24 are combined until their product exceeds twice that bound,
    then the residues are lifted to symmetric representatives."""
    residues = qth_powers(r, q)
    g = smallest_primitive_root(r)
    cosets = [[i * pow(g, m, r) % r for i in residues] for m in range(q)]
    bound = max(math.comb(q, j) * len(residues) ** j for j in range(q + 1))
    coeffs, modulus = [0] * (q + 1), 1
    p = (1 << 24) // r * r + 1
    while modulus <= 2 * bound:
        p += r
        if not is_small_prime(p):
            continue
        h = 2
        while (zeta := pow(h, (p - 1) // r, p)) == 1:
            h += 1
        powers = [1] * r
        for i in range(1, r):
            powers[i] = powers[i - 1] * zeta % p
        factors = [[-sum(powers[i] for i in coset) % p, 1] for coset in cosets]
        while len(factors) > 1:
            paired = [_mul_coeffs(a, b, p) for a, b in zip(factors[::2], factors[1::2])]
            factors = paired + factors[2 * len(paired):]
        t = pow(modulus, -1, p)
        coeffs = [c + modulus * ((v - c) * t % p) for c, v in zip(coeffs, factors[0])]
        modulus *= p
    return tuple(c - modulus if 2 * c > modulus else c for c in coeffs)


@st.composite
def _period_polynomial_inputs(draw):
    # drawn from rnd, not by hypothesis, which favours the smallest values;
    # n is a named modulus, a power of 2, a product of primes <= q (so that
    # Newton's divisions by j <= q meet n's primes), or random
    rnd = random.Random(draw(st.integers(0, 2**64)))
    r, q = _period_pair_draw(rnd)
    small = [p for p in range(2, q + 1) if is_small_prime(p)]
    n = r
    while n % r == 0:
        n = rnd.choice([
            lambda: rnd.choice(_NAMED_MODULI),
            lambda: 2**rnd.randint(1, 300),
            lambda: math.prod(rnd.choices(small, k=rnd.randint(1, 4))),
            lambda: rnd.randrange(2, 2**rnd.randint(2, 200) + 1),
        ])()
    return r, q, n


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_period_polynomial_inputs())
@example((3, 2, 256))
@example((3, 2, 2**64 + 1))
@example((241, 5, 2 * 3 * 5))
def test_period_polynomial_matches_crt_oracle_property(inputs):
    # the power sums and Newton's identities mod n against the CRT over Z
    r, q, n = inputs
    assert period_polynomial(r, q, n) == ModPoly(n, integer_period_polynomial(r, q)), inputs


def test_composed_product_examples(monkeypatch):
    import abprime.pseudofield as pf
    # roots +-sqrt2 times +-sqrt3: +-sqrt6, each twice
    p = 1000003
    got = _composed_product([ModPoly(p, [-2, 0, 1]), ModPoly(p, [-3, 0, 1])])
    assert got == ModPoly(p, [36, 0, -12, 0, 1])
    assert integer_composed_product([[-2, 0, 1], [-3, 0, 1]]) == [36, 0, -12, 0, 1]
    real = pf._power_sums

    def corrupted(f, count):
        sums = real(f, count)
        sums[2] += 1
        return sums

    monkeypatch.setattr(pf, "_power_sums", corrupted)
    # x^2 + x - 1 and x^3 + x^2 - 2x - 1: p_2 = 4 and 6 instead of 3 and 5;
    # the sums recomputed from the result then miss the corrupted products
    with pytest.raises(RuntimeError, match="lost its power sums"):
        _composed_product([ModPoly(p, [-1, 1, 1]), ModPoly(p, [-1, -2, 1, 1])])


def test_period_conjugates_are_roots():
    n = 101
    f = period_polynomial(11, 5, n)
    for eta in period_conjugates(11, 5, n):
        # evaluate f at eta inside the cyclotomic ring
        acc = CyclotomicElt.zero(n, 11)
        for c in reversed(f.coeffs):
            acc = acc * eta + CyclotomicElt.one(n, 11).scale(c)
        assert acc == CyclotomicElt.zero(n, 11)


def test_smallest_primitive_root():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(13) == 2


@pytest.mark.parametrize("r, q", [(3, 2), (7, 3), (31, 5), (53, 13), (607, 101)])
def test_coset_class_is_the_discrete_log(r, q):
    # the class of a unit a is its discrete log base g mod q, by a scan
    # over the powers of g; a multiple of r has no class
    classes = _eta_classes(r, q)
    g = smallest_primitive_root(r)
    for a in range(1, r):
        dlog = next(j for j in range(r - 1) if pow(g, j, r) == a)
        assert _coset_class(a, classes) == _coset_class(a + 3 * r, classes) == dlog % q
    assert _coset_class(0, classes) == _coset_class(r, classes) == -1


# ---------------------------------------------------------------------------
# pseudofields
# ---------------------------------------------------------------------------

def test_pseudofield_from_period_pair():
    a = pseudofield_from_period_pair(11, PeriodPair(7, 3))
    assert a.degree == 3
    a = pseudofield_from_period_pair(7, PeriodPair(5, 2))
    assert a.f == ModPoly(7, [6, 1, 1])
    with pytest.raises(ValueError):
        pseudofield_from_period_pair(21, PeriodPair(5, 2))  # 21 = 1 mod 5
    with pytest.raises(ValueError):
        pseudofield_from_period_pair(11, PeriodPair(5, 2))  # 11 = 1 mod 5


def test_pseudofield_341_irreducible_mod_factors():
    a = pseudofield_from_period_pair(341, PeriodPair(7, 3))
    assert is_irreducible_mod_p(a.f, 11)
    assert is_irreducible_mod_p(a.f, 31)


def test_tensor_product_prime_modulus():
    a1 = pseudofield_from_period_pair(97, PeriodPair(13, 3))
    a2 = pseudofield_from_period_pair(97, PeriodPair(11, 5))
    t = tensor_product(a1, a2)
    assert isinstance(t, Pseudofield)
    assert t.degree == 15
    # x^(97^15) == x mod f, checked through the sigma-power chain
    assert _verify_power_chain(97, t.f, 15).verdict == "verified"
    assert verify_axioms(t).verdict == "verified"
    assert is_irreducible_mod_p(t.f, 97)


def test_tensor_product_validation():
    a1 = pseudofield_from_period_pair(97, PeriodPair(13, 3))
    a2 = pseudofield_from_period_pair(97, PeriodPair(19, 3))
    with pytest.raises(ValueError):
        tensor_product(a1, a2)  # degrees not coprime
    small = pseudofield_from_period_pair(13, PeriodPair(11, 5))
    other = pseudofield_from_period_pair(13, PeriodPair(19, 3))
    with pytest.raises(ValueError):
        tensor_product(small, other)  # 13 <= 15 = d1*d2


def test_tensor_product_factor_extraction():
    # over N = 15 the composed product's Newton identities divide by k = 3
    a1 = pseudofield_from_period_pair(15, PeriodPair(13, 2))
    a2 = pseudofield_from_period_pair(15, PeriodPair(19, 3))
    out = tensor_product(a1, a2)
    assert isinstance(out, FactorFound)
    assert out.divisor in (3, 5)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def test_verify_axioms_prime_pair():
    a = pseudofield_from_period_pair(7, PeriodPair(5, 2))
    report = verify_axioms(a)
    assert report.verdict == "verified"
    assert report.sigma_power_identity
    assert all(isinstance(out, Unit) for _, out in report.unit_checks)
    # without provenance the power chain gives the same answer for prime N
    bare = Pseudofield(7, a.f, a.degree)
    assert verify_axioms(bare).verdict == "verified"


def test_verify_axioms_refutes_degenerate():
    a = Pseudofield(7, ModPoly(7, [0, 0, 1]), 2)  # f = x^2
    report = verify_axioms(a)
    assert report.verdict == "refuted"


def test_verify_axioms_composite_found():
    # power-route unit check over N = 15 hits a pivot sharing a factor
    a = Pseudofield(15, ModPoly(15, [0, 2, 1]), 2)  # f = x^2 + 2x
    report = verify_axioms(a)
    assert report.verdict == "composite_found"
    assert report.divisor == 3


def test_verify_axioms_composite_with_provenance():
    # composite N with a per-factor-valid pair: the cyclotomic realization
    # of sigma verifies; the bare power chain (sigma as x -> x^N) cannot,
    # and either refutes or stumbles onto a factor
    a = pseudofield_from_period_pair(341, PeriodPair(7, 3))
    assert verify_axioms(a).verdict == "verified"
    bare = Pseudofield(341, a.f, a.degree)
    report = verify_axioms(bare)
    assert report.verdict in ("refuted", "composite_found")
    if report.verdict == "composite_found":
        assert 341 % report.divisor == 0


def test_verify_axioms_mismatched_provenance_falls_back():
    from abprime.periodsys import PeriodSystem
    sys_wrong = PeriodSystem((PeriodPair(5, 2),), 2)
    a = Pseudofield(7, ModPoly(7, [1, 0, 1]), 2, sys_wrong)  # f is not f_{5,2}
    assert verify_axioms(a).verdict == "verified"  # x^2+1 over F_7 is fine
    # the provenance check comes before sigma is expressed: expressing it
    # for (31, 5) over 55 first would surface the divisor 5 instead
    f = ModPoly(55, [13, 9, 46, 4, 16, 1])
    a = Pseudofield(55, f, 5, PeriodSystem((PeriodPair(31, 5),), 5))
    report = verify_axioms(a)
    assert report.verdict == "refuted"
    assert report == _verify_power_chain(55, f, 5)
    # (5, 2) is no period pair for 35 (5 | 35): the period polynomial cannot
    # be built, so the power chain decides, and it meets the divisor 5
    f = ModPoly(35, [3, 1, 1])
    report = verify_axioms(Pseudofield(35, f, 2, PeriodSystem((PeriodPair(5, 2),), 2)))
    assert report == _verify_power_chain(35, f, 2)
    assert report.verdict == "composite_found" and report.divisor == 5


# ---------------------------------------------------------------------------
# Frobenius index
# ---------------------------------------------------------------------------

def test_frobenius_index_composite_341():
    a = pseudofield_from_period_pair(341, PeriodPair(7, 3))
    i11 = frobenius_index_mod_p(a, 11)
    i31 = frobenius_index_mod_p(a, 31)
    assert i11 in (1, 2) and i11 % 3 != 0
    assert i31 in (1, 2) and i31 % 3 != 0
    assert i11 == 2 and i31 == 2


def test_frobenius_index_prime_is_one():
    for (r, q, p) in [(5, 2, 7), (7, 3, 11), (13, 3, 23)]:
        a = pseudofield_from_period_pair(p, PeriodPair(r, q))
        assert frobenius_index_mod_p(a, p) == 1
        bare = Pseudofield(p, a.f, a.degree)
        assert frobenius_index_mod_p(bare, p) == 1


def test_frobenius_index_tensor_crt():
    a1 = pseudofield_from_period_pair(97, PeriodPair(13, 3))
    a2 = pseudofield_from_period_pair(97, PeriodPair(11, 5))
    t = tensor_product(a1, a2)
    assert frobenius_index_mod_p(t, 97) == 1


def test_frobenius_index_validation(monkeypatch):
    a = pseudofield_from_period_pair(341, PeriodPair(7, 3))
    with pytest.raises(ValueError):
        frobenius_index_mod_p(a, 4)  # not prime
    with pytest.raises(ValueError):
        frobenius_index_mod_p(a, 7)  # does not divide 341
    # 341 = 1 mod 5 is a square mod 5, and 5 divides 55: neither has a
    # class that generates the quotient of (Z/5Z)^x by its squares
    for n in (341, 55):
        b = Pseudofield(n, ModPoly(n, [-1, 1, 1]), 2, PeriodSystem((PeriodPair(5, 2),), 2))
        with pytest.raises(ValueError, match=rf"\(5, 2\) is not a period pair for {n}"):
            frobenius_index_mod_p(b, 11)
    # a class of p off by one: eta^p is not the period it names
    import abprime.pseudofield as pf
    real = pf._coset_class
    monkeypatch.setattr(pf, "_coset_class",
                        lambda x, classes: (real(x, classes) + (x == 11)) % classes.q)
    assert frobenius_index_mod_p(a, 31) == 2
    with pytest.raises(ValueError, match="Frobenius consistency check failed mod 11"):
        frobenius_index_mod_p(a, 11)


def test_frobenius_index_search_refutes_non_pseudofield():
    # provenance-free composite ring: x^p is not on the power chain
    a = pseudofield_from_period_pair(341, PeriodPair(7, 3))
    bare = Pseudofield(341, a.f, a.degree)
    with pytest.raises(ValueError):
        frobenius_index_mod_p(bare, 11)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def brute_roots(f, p):
    return [x for x in range(p) if
            sum(c * x**i for i, c in enumerate(f.coeffs)) % p == 0]


def test_is_irreducible_examples():
    assert is_irreducible_mod_p(ModPoly(3, [1, 0, 1]), 3)
    assert not is_irreducible_mod_p(ModPoly(5, [1, 0, 1]), 5)
    # x^2 + x + 2 has roots {6, 4} mod 11 and none mod 31
    f = ModPoly(11, [2, 1, 1])
    assert brute_roots(f, 11) == [4, 6]
    assert not is_irreducible_mod_p(f, 11)
    assert brute_roots(ModPoly(31, [2, 1, 1]), 31) == []
    assert is_irreducible_mod_p(ModPoly(31, [2, 1, 1]), 31)
    with pytest.raises(ValueError):
        is_irreducible_mod_p(ModPoly(4, [1, 0, 1]), 4)


def brute_force_irreducible(coeffs, p):
    import itertools
    f = ModPoly(p, coeffs)
    d = f.degree
    for deg in range(1, d):
        for tail in itertools.product(range(p), repeat=deg):
            g = list(tail) + [1]
            rem = list(f.coeffs)
            while len(rem) - 1 >= deg and any(rem):
                t = rem[-1]
                shift = len(rem) - 1 - deg
                for j, c in enumerate(g):
                    rem[shift + j] = (rem[shift + j] - t * c) % p
                while rem and rem[-1] == 0:
                    rem.pop()
            if not rem:
                return False
    return True


def test_is_irreducible_against_brute_force():
    import itertools
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            for tail in itertools.product(range(p), repeat=d):
                coeffs = list(tail) + [1]
                assert is_irreducible_mod_p(ModPoly(p, coeffs), p) == \
                    brute_force_irreducible(coeffs, p), (p, coeffs)


# ---------------------------------------------------------------------------
# construction pipeline
# ---------------------------------------------------------------------------

def test_construct_pipeline_prime_degree15():
    result = construct_poly_pipeline(97, 15)
    assert isinstance(result, Constructed)
    assert 15 <= result.f.degree < 30
    assert is_irreducible_mod_p(result.f, 97)
    assert verify_axioms(result.pseudofield).verdict == "verified"


def test_construct_pipeline_three_pairs():
    # a three-pair system: sigma is tensored over three factors
    result = construct_poly_pipeline(101, 30)
    assert isinstance(result, Constructed)
    pairs = [PeriodPair(3, 2), PeriodPair(7, 3), PeriodPair(11, 5)]
    assert list(result.system.pairs) == pairs
    a1, a2, a3 = (pseudofield_from_period_pair(101, p) for p in pairs)
    chained = tensor_product(tensor_product(a1, a2), a3)
    assert chained.f == result.f and chained.system == result.system
    # for prime N the cyclotomic sigma is x -> x^N: same report, same inverses
    structural = _verify_structural(result.pseudofield)
    assert structural is not None and structural.verdict == "verified"
    assert structural == verify_axioms(Pseudofield(101, result.f, 30))


def test_structural_sigma_matches_power_chain_on_primes():
    # for prime N sigma is x -> x^N: the one-elimination structural sigma
    # gives the power chain's report, inverses included, on systems of two
    # and three pairs; the pairwise tensor_product chain builds the same f
    rng = random.Random(19)
    seen = {6: 0, 15: 0, 30: 0}
    while min(seen.values()) < 3:
        n = rng.randint(10**3, 10**6)
        d = rng.choice(sorted(seen))
        if seen[d] >= 3 or not is_small_prime(n):
            continue
        result = construct_poly_pipeline(n, d)
        if result is None or len(result.system.pairs) < 2:
            continue
        seen[d] += 1
        a, f = result.pseudofield, result.f
        structural = _verify_structural(a)
        assert structural is not None and structural.verdict == "verified", (n, d)
        assert structural == _verify_power_chain(n, f, f.degree), (n, d)
        fields = [pseudofield_from_period_pair(n, p) for p in result.system.pairs]
        chained = functools.reduce(tensor_product, fields)
        assert chained.f == f and chained.system == result.system, (n, d)


def _oracle_sigma(n, classes, shifts):
    # the power-basis oracle in place of the class-value shifted periods
    return shifted_periods(n, PeriodPair(len(classes.label), classes.q), shifts)


@pytest.mark.parametrize("n", [20923, 51107, 43279, 1455])
def test_structural_sigma_matches_oracle_on_composites(monkeypatch, n):
    # composites whose system at D = 12 is the one pair (53, 13): the
    # elimination over the q class rows, taken in the order of the power
    # basis, meets the pivots of the oracle's r - 1 rows, so the reports
    # agree; the rows v_c - v_0 turn 51107 and 43279 into verified
    import abprime.pseudofield as pf
    result = construct_poly_pipeline(n, 12)
    assert result.system.pairs == (PeriodPair(53, 13),)
    report = verify_axioms(result.pseudofield)
    assert report.verdict == "composite_found"
    monkeypatch.setattr(pf, "_shifted_periods", _oracle_sigma)
    assert report == verify_axioms(result.pseudofield), n


def test_construct_pipeline_341():
    result = construct_poly_pipeline(341, 3)
    assert isinstance(result, Constructed)
    assert result.f == ModPoly(341, [340, 339, 1, 1])
    assert is_irreducible_mod_p(result.f, 11)
    assert is_irreducible_mod_p(result.f, 31)


def test_construct_pipeline_factor_found():
    result = construct_poly_pipeline(1001, 6)  # 1001 = 7 * 11 * 13
    assert result == FactorFound(7)


def test_construct_pipeline_matches_tensor_fold():
    # the composed product mod N against the integer oracle reduced mod N
    # and against the elimination over Z/NZ, wherever both build f
    rng = random.Random(45)
    compared = multi = 0
    for _ in range(400):
        n = rng.randrange(1001, 60000) | 1
        d = rng.choice([4, 6, 9, 15])
        system = find_period_system(n, d)
        result = construct_poly_pipeline(n, d)
        if system is None:
            assert result is None
            continue
        if isinstance(result, Constructed):
            oracle = integer_composed_product(
                [integer_period_polynomial(p.r, p.q) for p in system.pairs])
            assert result.f == ModPoly(n, oracle), (n, d)
        try:
            folded = _fold([period_polynomial(p.r, p.q, n) for p in system.pairs])
        except (_FactorHit, TensorDependency):
            continue
        if isinstance(result, Constructed):
            assert result.f == folded, (n, d)
            compared += 1
            multi += len(system.pairs) > 1
    assert compared >= 150 and multi >= 50, (compared, multi)


def test_construct_pipeline_newton_divisor():
    # 20255 = 5 * 4051 with the system (3, 2), (7, 3): going back from the
    # power sums would divide by k = 5, so the divisor 5 is returned
    assert find_period_system(20255, 6) == PeriodSystem(
        (PeriodPair(3, 2), PeriodPair(7, 3)), 6)
    assert construct_poly_pipeline(20255, 6) == FactorFound(5)
    v = full_pipeline(20255, PipelineConfig(degree_override=6), 0)
    assert v.outcome is Outcome.COMPOSITE and v.evidence == Divisor(5)


def test_construct_pipeline_divisor_before_period_polynomials(monkeypatch):
    # with several pairs, the least prime <= deg f dividing N is returned
    # before any period polynomial is built; 3 * 127267195311317681 at its
    # default D gets (29, 7), (53, 13), (149, 37); each q would cost
    # 3^(v_3(q!)) of extra precision in its period polynomial
    import abprime.pseudofield as pf

    def unbuilt(r, q, n):
        raise AssertionError(f"built the period polynomial ({r}, {q}) for {n}")

    monkeypatch.setattr(pf, "period_polynomial", unbuilt)
    assert construct_poly_pipeline(20255, 6) == FactorFound(5)
    n = 3 * 127267195311317681
    assert find_period_system(n, 3364) == PeriodSystem(
        (PeriodPair(29, 7), PeriodPair(53, 13), PeriodPair(149, 37)), 3367)
    assert construct_poly_pipeline(n, 3364) == FactorFound(3)


def test_verify_structural_degree_not_below_modulus():
    # deg f = 6 >= N = 5: the composed product mod 5 would divide by 5, so
    # the power chain decides, and for prime N it verifies
    system = PeriodSystem((PeriodPair(3, 2), PeriodPair(7, 3)), 6)
    coeffs = integer_composed_product(
        [integer_period_polynomial(p.r, p.q) for p in system.pairs])
    f = ModPoly(5, coeffs)
    report = verify_axioms(Pseudofield(5, f, 6, system))
    assert report.verdict == "verified"
    assert report == _verify_power_chain(5, f, 6)


def test_construct_pipeline_not_squarefree(monkeypatch):
    # no input is known where f' and f share a monic factor mod N without
    # exposing a divisor; the outcome is TensorDependency, as for
    # tensor_product
    import abprime.pseudofield as pf
    monkeypatch.setattr(pf, "_euclid", lambda u, f, bezout: (list(f.coeffs), None))
    with pytest.raises(TensorDependency, match="not squarefree"):
        construct_poly_pipeline(101, 30)


def test_verify_structural_folds_once(monkeypatch):
    # sigma is written on alpha's power basis by one elimination over its
    # d = 30 powers, after the per-pair shifts (q = 2, 3, 5 columns); the
    # provenance check compares the composed product with f and eliminates
    # nothing, so on a mismatched f no elimination runs
    import abprime.pseudofield as pf
    calls = []
    real = pf._solve_columns

    def counting_solve(cols, targets, m):
        calls.append(len(cols))
        return real(cols, targets, m)

    a = construct_poly_pipeline(101, 30).pseudofield
    monkeypatch.setattr(pf, "_solve_columns", counting_solve)
    assert verify_axioms(a).verdict == "verified"
    assert calls == [2, 3, 5, 30]
    calls.clear()
    f = ModPoly(101, [a.f.coeffs[0] + 1] + list(a.f.coeffs[1:]))
    report = verify_axioms(Pseudofield(101, f, 30, a.system))
    assert report == _verify_power_chain(101, f, 30)
    assert calls == []


def test_construct_pipeline_not_found():
    assert construct_poly_pipeline(64, 2) is None


def test_construct_pipeline_validation():
    with pytest.raises(ValueError):
        construct_poly_pipeline(9, 5)  # N <= 2D
    with pytest.raises(ValueError):
        construct_poly_pipeline(97, 1)


def test_construct_degree_lands_in_window():
    rng = random.Random(43)
    hits = 0
    while hits < 8:
        n = rng.randint(10**3, 10**6) | 1
        d = rng.choice([4, 6, 8, 12])
        if n <= 2 * d:
            continue
        result = construct_poly_pipeline(n, d)
        if isinstance(result, Constructed):
            assert d <= result.f.degree < 2 * d
            hits += 1
