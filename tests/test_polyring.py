import collections
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abprime import (
    FactorFound,
    ModPoly,
    NonUnit,
    Unit,
    count_operations,
    poly_is_unit_mod,
    poly_mul_mod,
    poly_pow_mod,
    poly_pow_mod_many,
    random_poly,
)
from abprime.instrument import binary_method_mults, window_mults, window_width
from abprime import polyring
from abprime.polyring import (
    _KRONECKER_MIN,
    _ROUNDING_LIMIT,
    _TRANSFORM_MIN,
    _KS1,
    _KS2,
    _Reducer,
    _Transform,
    _divmod_schoolbook,
    _euclid,
    _mul_coeffs,
    _mul_kronecker,
    _mul_schoolbook,
    _pack,
    _reducer_for,
    _unpack,
)


def P(m, *coeffs):
    return ModPoly(m, coeffs)


def test_canonical_form():
    assert P(5, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(5, 6, 7).coeffs == (1, 2)
    assert P(5).degree == -1
    assert P(5, 0).is_zero()
    assert P(5, 0, 0, 1).is_monic()
    with pytest.raises(ValueError):
        ModPoly(1, [1])


def test_mul_mod_examples():
    f = P(5, 1, 0, 1)  # x^2 + 1
    x = ModPoly.x(5)
    assert poly_mul_mod(x, x, f) == P(5, 4)
    x1 = P(5, 1, 1)
    assert poly_mul_mod(x1, x1, f) == P(5, 0, 2)
    # (2x+1)(3x+4) mod (x^2+x+1) over Z/7: 6x^2+4x+4, x^2 = -x-1 -> 5x+5
    got = poly_mul_mod(P(7, 1, 2), P(7, 4, 3), P(7, 1, 1, 1))
    assert got == P(7, 5, 5)


def test_mul_mod_validation():
    f_nonmonic = P(5, 1, 2)
    with pytest.raises(ValueError):
        poly_mul_mod(P(5, 1), P(5, 1), f_nonmonic)
    with pytest.raises(ValueError):
        poly_mul_mod(P(5, 1), P(7, 1), P(5, 1, 0, 1))
    with pytest.raises(ValueError):
        poly_mul_mod(P(5, 1, 1, 1), P(5, 1), P(5, 1, 0, 1))


def test_pow_mod_examples():
    # x^7 mod (x^2+1) over Z/7: x^2 = -1, so x^7 = -x = 6x
    assert poly_pow_mod(ModPoly.x(7), 7, P(7, 1, 0, 1)) == P(7, 0, 6)
    assert poly_pow_mod(P(13, 5, 3), 0, P(13, 1, 1, 1)) == ModPoly.one(13)
    # (x+1)^6 over Z/6 mod x^7: binomial row C(6,k) mod 6
    f = ModPoly(6, [0] * 7 + [1])
    got = poly_pow_mod(P(6, 1, 1), 6, f)
    assert got == ModPoly(6, [math.comb(6, k) for k in range(7)])
    assert got.coeffs == (1, 0, 3, 2, 3, 0, 1)


def test_pow_additivity():
    rng = random.Random(10)
    for _ in range(100):
        m = rng.randint(2, 50)
        d = rng.randint(1, 5)
        f = ModPoly(m, [rng.randrange(m) for _ in range(d)] + [1])
        a = ModPoly(m, [rng.randrange(m) for _ in range(d)])
        e1, e2 = rng.randint(0, 40), rng.randint(0, 40)
        lhs = poly_pow_mod(a, e1 + e2, f)
        rhs = poly_mul_mod(poly_pow_mod(a, e1, f), poly_pow_mod(a, e2, f), f)
        assert lhs == rhs


def test_pow_multiplication_bound():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(2, 1000)
        f = ModPoly(m, [rng.randrange(m), rng.randrange(m), 1])
        a = ModPoly(m, [rng.randrange(m), rng.randrange(m)])
        e = rng.randint(1, 10**9)
        with count_operations() as ops:
            poly_pow_mod(a, e, f)
        assert ops.poly_mults <= 2 * e.bit_length()


def test_pow_exact_multiplication_count():
    rng = random.Random(13)
    for e in [0, 1, 2, 3, 10006, 12345, 2**20 + 1] + \
            [rng.randint(0, 10**9) for _ in range(50)]:
        m = rng.randint(2, 1000)
        f = ModPoly(m, [rng.randrange(m), rng.randrange(m), 1])
        a = ModPoly(m, [rng.randrange(m), rng.randrange(m)])
        with count_operations() as ops:
            poly_pow_mod(a, e, f)
        want = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
        assert ops.poly_mults == want, e


def test_ring_laws():
    rng = random.Random(12)
    for _ in range(100):
        m = rng.randint(2, 30)
        d = rng.randint(1, 4)
        f = ModPoly(m, [rng.randrange(m) for _ in range(d)] + [1])
        a, b, c = (ModPoly(m, [rng.randrange(m) for _ in range(d)]) for _ in range(3))
        assert poly_mul_mod(a, b, f) == poly_mul_mod(b, a, f)
        assert poly_mul_mod(poly_mul_mod(a, b, f), c, f) == \
            poly_mul_mod(a, poly_mul_mod(b, c, f), f)
        assert poly_mul_mod(a + b, c, f) == \
            poly_mul_mod(a, c, f) + poly_mul_mod(b, c, f)


def test_multiplication_paths_agree():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(2, 10**6)
        la, lb = rng.randint(1, 80), rng.randint(1, 80)
        a = [rng.randrange(m) for _ in range(la)]
        b = [rng.randrange(m) for _ in range(lb)]
        assert _mul_schoolbook(a, b, m) == _mul_kronecker(a, b, m)
    # unbalanced shapes, which _mul_coeffs sends to schoolbook by the
    # shorter operand's length
    for _ in range(40):
        m = rng.randint(2, 2**128)
        a = [rng.randrange(m) for _ in range(rng.randint(1, 7))]
        b = [rng.randrange(m) for _ in range(rng.randint(41, 300))]
        if rng.random() < 0.5:
            a, b = b, a
        assert _mul_schoolbook(a, b, m) == _mul_kronecker(a, b, m) \
            == _mul_coeffs(a, b, m)


def test_reduction_paths_agree():
    rng = random.Random(14)
    for _ in range(20):
        m = rng.randint(2, 10**6)
        # deg f on both sides of _KRONECKER_MIN: full-length operands take
        # the schoolbook division below it and the fused pass from it on
        d = rng.randint(_KRONECKER_MIN // 2, 4 * _KRONECKER_MIN)
        f = ModPoly(m, [rng.randrange(m) for _ in range(d)] + [1])
        a = ModPoly(m, [rng.randrange(m) for _ in range(d)])
        b = ModPoly(m, [rng.randrange(m) for _ in range(d)])
        prod = _mul_schoolbook(list(a.coeffs), list(b.coeffs), m)
        school = prod[:]
        dd = f.degree
        fl = list(f.coeffs)
        for i in range(len(school) - 1, dd - 1, -1):
            t = school[i]
            if t:
                school[i] = 0
                for j in range(dd):
                    school[i - dd + j] = (school[i - dd + j] - t * fl[j]) % m
        assert poly_mul_mod(a, b, f) == ModPoly(m, school[:dd])
        _reducer_for.cache_clear()


# -- property tests of the coefficient kernels -------------------------------

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
_MODULI = st.one_of(st.sampled_from([2, 15, 341, 97, 2**61 - 1]),
                    st.integers(2, 2**256))


def _vector(rnd, m, size):
    # the extreme coefficients 0 and m - 1 are drawn often, not by luck
    return [rnd.choice((0, m - 1)) if rnd.random() < 0.25 else rnd.randrange(m)
            for _ in range(size)]


@st.composite
def _mul_operands(draw):
    # the shorter length straddles _KRONECKER_MIN; the longer one is either
    # equal (balanced) or anything up to 300
    m, rnd = draw(_MODULI), draw(st.randoms(use_true_random=False))
    short = draw(st.integers(1, 2 * _KRONECKER_MIN))
    long = draw(st.one_of(st.just(short), st.integers(short, 300)))
    a, b = _vector(rnd, m, short), _vector(rnd, m, long)
    return (m, b, a) if draw(st.booleans()) else (m, a, b)


@st.composite
def _division_operands(draw):
    m, rnd = draw(_MODULI), draw(st.randoms(use_true_random=False))
    d = draw(st.integers(1, 60))
    size = draw(st.integers(d, 2 * d + 40))
    return m, _vector(rnd, m, size), _vector(rnd, m, d) + [1]


@st.composite
def _ring_operands(draw):
    # deg f on both sides of _KRONECKER_MIN
    m, rnd = draw(_MODULI), draw(st.randoms(use_true_random=False))
    d = draw(st.integers(1, 6 * _KRONECKER_MIN))
    a = _vector(rnd, m, draw(st.integers(0, d)))
    b = _vector(rnd, m, draw(st.integers(0, d)))
    return m, a, b, _vector(rnd, m, d) + [1]


def _schoolbook_remainder(c, f, m):
    c, d = list(c), len(f) - 1
    for i in range(len(c) - 1, d - 1, -1):
        t, c[i] = c[i], 0
        for j in range(d):
            c[i - d + j] = (c[i - d + j] - t * f[j]) % m
    return c[:d]


@_PROPERTY
@given(_mul_operands())
def test_mul_kernels_agree_property(operands):
    m, a, b = operands
    assert _mul_schoolbook(a, b, m) == _mul_kronecker(a, b, m) \
        == _mul_coeffs(a, b, m)


@_PROPERTY
@given(_division_operands())
def test_divmod_schoolbook_property(operands):
    m, c, f = operands
    d = len(f) - 1
    out = list(c)
    _divmod_schoolbook(out, f, m)
    r, q = out[:d], out[d:]
    assert len(r) == d
    assert all(0 <= v < m for v in out)
    qf = _mul_schoolbook(q, f, m) if q else [0] * len(c)
    padded = r + [0] * (len(c) - d)
    assert [(u + v) % m for u, v in zip(qf, padded)] == c


@_PROPERTY
@given(_ring_operands())
def test_mul_mod_matches_schoolbook_remainder_property(operands):
    m, a, b, f = operands
    expected = _schoolbook_remainder(
        _mul_schoolbook(a, b, m) if a and b else [], f, m)
    got = poly_mul_mod(ModPoly(m, a), ModPoly(m, b), ModPoly(m, f))
    assert got == ModPoly(m, expected)


def _reference_pow(a, e, f, m):
    # right to left, by schoolbook products and schoolbook division
    result, square = [1], list(a)
    while e:
        if e & 1:
            result = _schoolbook_remainder(_mul_schoolbook(result, square, m), f, m) \
                if result and square else []
        e >>= 1
        if e:
            square = _schoolbook_remainder(_mul_schoolbook(square, square, m), f, m) \
                if square else []
    return result


def _stress_vector(rnd, m, size):
    # all m - 1 a quarter of the time: the largest slot sums the fused
    # reduction's bias has to cover
    return [m - 1] * size if rnd.random() < 0.25 else _vector(rnd, m, size)


@st.composite
def _pow_operands(draw):
    # deg f on both sides of _KRONECKER_MIN; bases of odd and even
    # length, and the short bases x, x + 1, a constant and zero.  Hypothesis
    # draws only a seed, so the shapes spread as evenly as random.Random's.
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = (rnd.choice([2, 15, 341, 2**61 - 1]) if rnd.random() < 0.4
         else rnd.randrange(2, 2**rnd.randint(2, 256) + 1))
    d = (rnd.randint(1, _KRONECKER_MIN - 1) if rnd.random() < 0.3
         else rnd.randint(_KRONECKER_MIN, _KRONECKER_MIN + 92))
    f = _stress_vector(rnd, m, d) + [1]
    kind = rnd.choice(["long", "long", "long", "x", "x+1", "const", "zero"])
    if kind == "long":
        a = _stress_vector(rnd, m, rnd.randint(min(_KRONECKER_MIN, d), d))
    else:
        a = {"x": [0, 1], "x+1": [1, 1], "const": [rnd.randrange(m)], "zero": []}[kind][:d]
    b = _stress_vector(rnd, m, rnd.randint(0, d))
    return m, a, b, f, rnd.randrange(601)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_pow_operands())
def test_pow_and_mul_match_schoolbook_property(operands):
    m, a, b, f, e = operands
    fp, ap, bp = ModPoly(m, f), ModPoly(m, a), ModPoly(m, b)
    assert poly_pow_mod(ap, e, fp) == ModPoly(m, _reference_pow(a, e, f, m))
    assert poly_mul_mod(ap, bp, fp) == ModPoly(m, _schoolbook_remainder(
        _mul_schoolbook(a, b, m) if a and b else [], f, m))


def test_full_length_pow_takes_fused_pass(monkeypatch):
    # one kernel rule: at deg f = 20 >= _KRONECKER_MIN the ladder runs on
    # packed elements: the base is packed once, every ring multiplication
    # of the sliding-window ladder is a packed product, and the result is
    # unpacked once
    rng = random.Random(18)
    m, d = 2**61 - 1, 20
    assert d >= _KRONECKER_MIN
    f = ModPoly(m, [rng.randrange(m) for _ in range(d)] + [1])
    a = ModPoly(m, [rng.randrange(m) for _ in range(d - 1)] + [1])
    _reducer_for.cache_clear()
    calls = collections.Counter()
    for name in ("mul", "_packed", "_unpacked", "_mul"):
        def spy(self, *args, _orig=getattr(_Reducer, name), _name=name):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(_Reducer, name, spy)
    got = poly_pow_mod(a, 1000, f)
    assert calls == {"_packed": 1, "_unpacked": 1,
                     "_mul": window_mults(1000, window_width(1000))}
    assert got == ModPoly(m, _reference_pow(list(a.coeffs), 1000, list(f.coeffs), m))


def _counted_pow(a, e, f):
    # poly_pow_mod's result, its poly_mults tally and its _Reducer._mul calls
    calls = [0]
    orig = _Reducer._mul

    def spy(self, *args):
        calls[0] += 1
        return orig(self, *args)

    with mock.patch.object(_Reducer, "_mul", spy), count_operations() as ops:
        got = poly_pow_mod(a, e, f)
    return got, ops.poly_mults, calls[0]


# exponent bit lengths at which window_width picks the width often enough
# for a short rejection draw
_WIDTH_BITS = {1: (1, 12), 2: (4, 30), 3: (8, 100), 4: (40, 250), 5: (150, 700),
               6: (500, 900)}


@st.composite
def _window_pow_operands(draw, w):
    # deg f in 16..40, a base with all deg f coefficients, prime and
    # composite moduli, and an exponent for which window_width picks w
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = rnd.choice([97, 2**61 - 1, 2**127 - 1, 341, 2**64 + 1, rnd.randrange(2, 2**200)])
    d = rnd.randint(_KRONECKER_MIN, 40)
    f = _stress_vector(rnd, m, d) + [1]
    a = _stress_vector(rnd, m, d - 1) + [rnd.randrange(1, m)]
    lo, hi = _WIDTH_BITS[w]
    while True:
        bits = rnd.randint(lo, hi)
        e = rnd.getrandbits(bits) | 1 << (bits - 1)
        if window_width(e) == w:
            return m, a, f, e


@pytest.mark.parametrize("w", range(1, 7))
def test_window_pow_matches_reference_and_tally_property(w):
    # the ladder of every width gives the reference power, and each ring
    # multiplication it tallies is one packed product
    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(_window_pow_operands(w))
    def check(operands):
        m, a, f, e = operands
        got, tally, calls = _counted_pow(ModPoly(m, a), e, ModPoly(m, f))
        assert got == ModPoly(m, _reference_pow(a, e, f, m))
        assert tally == calls == window_mults(e, w)

    check()


def test_short_base_pow_keeps_binary_method():
    # x, x + 1 and a constant take the width-1 ladder, whose products with
    # the base are linear passes, whatever width a full base would take
    rng = random.Random(21)
    m, d = 2**127 - 1, 24
    f = ModPoly(m, [rng.randrange(m) for _ in range(d)] + [1])
    for e in [3, 1000, 2**80 + 12345, rng.getrandbits(300)]:
        for a in ([0, 1], [1, 1], [rng.randrange(2, m)]):
            got, tally, calls = _counted_pow(ModPoly(m, a), e, f)
            assert got == ModPoly(m, _reference_pow(a, e, list(f.coeffs), m)), (e, a)
            assert tally == calls == binary_method_mults(e), (e, a)


# -- the transform tier ---------------------------------------------------------

# primes, a composite, and composites with a small factor (3, 11, 31)
_TIER_MODULI = (2**61 - 1, 2**89 - 1, 2**127 - 1, 2**64 + 1, 3 * (2**89 - 1), 341 * (2**107 - 1))


def _width(m, d):
    # the slot width W, in bytes, of a reducer mod an f of degree d
    return (2 * m.bit_length() + d.bit_length() + 2 + 7) // 8


def _pack_bits(m, d):
    # the bits of the pack of d slots that a reducer mod an f of degree d uses
    return 8 * d * _width(m, d)


def _edge(m):
    # the least deg f whose pack reaches _TRANSFORM_MIN
    return next(d for d in itertools.count(1) if _pack_bits(m, d) >= _TRANSFORM_MIN)


@st.composite
def _tier_operands(draw):
    # deg f around the one at which the pack reaches _TRANSFORM_MIN, so both
    # tiers are drawn; a base with all deg f coefficients and an exponent
    # for window widths 1 to 3
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = rnd.choice(_TIER_MODULI + (rnd.randrange(2**60, 2**200),))
    edge = _edge(m)
    d = rnd.randint(2 * edge // 3, 3 * edge // 2)
    f = _stress_vector(rnd, m, d) + [1]
    a = _stress_vector(rnd, m, d - 1) + [rnd.randrange(1, m)]
    b = _stress_vector(rnd, m, rnd.randint(1, d))
    bits = rnd.randint(2, 12)
    return m, a, b, f, rnd.getrandbits(bits) | 1 << (bits - 1)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_tier_operands())
def test_transform_tier_matches_schoolbook_property(operands):
    # below and above _TRANSFORM_MIN: the same powers and products as
    # schoolbook, and the same tally of ring multiplications
    m, a, b, f, e = operands
    fp = ModPoly(m, f)
    got, tally, calls = _counted_pow(ModPoly(m, a), e, fp)
    assert got == ModPoly(m, _reference_pow(a, e, f, m))
    assert tally == calls == window_mults(e, window_width(e))
    assert poly_mul_mod(ModPoly(m, a), ModPoly(m, b), fp) == \
        ModPoly(m, _schoolbook_remainder(_mul_schoolbook(a, b, m), f, m))
    reducer = _reducer_for(fp)
    assert (reducer._fft is not None) == (_pack_bits(m, len(f) - 1) >= _TRANSFORM_MIN) \
        == isinstance(reducer._form, _KS1)


def _digit(m, d):
    # the digit width of the transform for an f of degree d mod m
    return _Transform.fitting(m, d, _width(m, d)).digit


def _longest_16_bit(m):
    # the largest deg f whose transform keeps 16-bit digits
    lo, hi = _edge(m), 4000
    assert _digit(m, lo) == 16 and _digit(m, hi) == 8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _digit(m, mid) == 16 else (lo, mid)
    return lo


def _spied_products(monkeypatch):
    # every row _Transform.product returns, None for a tripped guard, and
    # the number of its calls and of its wrapped calls (q*f mod x^L - 1)
    outcomes, calls = [], [0, 0]
    orig = _Transform.product

    def spy(self, sa, sb, ns, wrapped=False):
        calls[0] += 1
        calls[1] += wrapped
        rows = orig(self, sa, sb, ns, wrapped)
        outcomes.extend(rows)
        return rows

    monkeypatch.setattr(_Transform, "product", spy)
    return outcomes, calls


@pytest.mark.parametrize("m", [2**61 - 1, 3 * (2**89 - 1)], ids=["2^61-1", "3(2^89-1)"])
def test_worst_case_operands_at_the_longest_16_bit_length(m, monkeypatch):
    # every coefficient m - 1, the largest digits Percival's bound allows
    # for: at the longest deg f that keeps 16-bit digits and at the next,
    # which takes 8-bit ones, every transform product, the wrapped q*f of
    # each ring product included, passes the guard and the ring products
    # are schoolbook's
    lo = _longest_16_bit(m)
    outcomes, calls = _spied_products(monkeypatch)
    for d in (lo, lo + 1):
        f = [m - 1] * d + [1]
        a = [m - 1] * d
        expected = ModPoly(m, _schoolbook_remainder(_mul_schoolbook(a, a, m), f, m))
        fp, ap = ModPoly(m, f), ModPoly(m, a)
        assert poly_mul_mod(ap, ap, fp) == poly_mul_mod(ap, ModPoly(m, a), fp) == expected
    assert calls == [12, 4] and len(outcomes) == 12 and None not in outcomes


def test_tripped_guard_falls_back_to_int_products(monkeypatch):
    # with the rounding limit at 0 every transform product fails its guard,
    # and every ring product and power comes back exact from int.__mul__
    rng = random.Random(22)
    m, d = 2**127 - 1, 100
    assert _pack_bits(m, d) >= _TRANSFORM_MIN
    f = [rng.randrange(m) for _ in range(d)] + [1]
    a = [rng.randrange(m) for _ in range(d)]
    b = [rng.randrange(m) for _ in range(d)]
    fp = ModPoly(m, f)
    _reducer_for(fp)._setup()
    assert isinstance(_reducer_for(fp)._form, _KS1)
    outcomes, _ = _spied_products(monkeypatch)
    monkeypatch.setattr(polyring, "_ROUNDING_LIMIT", 0.0)
    assert poly_mul_mod(ModPoly(m, a), ModPoly(m, b), fp) == \
        ModPoly(m, _schoolbook_remainder(_mul_schoolbook(a, b, m), f, m))
    assert poly_pow_mod(ModPoly(m, a), 1000, fp) == ModPoly(m, _reference_pow(a, 1000, f, m))
    assert outcomes and all(out is None for out in outcomes)


@st.composite
def _lockstep_operands(draw):
    # deg f across _KRONECKER_MIN or across the transform break-even, one
    # or two bases: full length, shorter (unequal lengths), or short ones
    # such as x + 1 that take the width-1 ladder beside a windowed base
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = rnd.choice(_TIER_MODULI + (rnd.randrange(2**60, 2**200),))
    if rnd.random() < 0.3:
        d = rnd.randint(_KRONECKER_MIN // 2, 2 * _KRONECKER_MIN)
    else:
        edge = _edge(m)
        d = rnd.randint(2 * edge // 3, 3 * edge // 2)
    f = _stress_vector(rnd, m, d) + [1]

    def base():
        kind = rnd.choice(["full", "full", "shorter", "short"])
        if kind == "short":
            return rnd.choice([[0, 1], [1, 1], [rnd.randrange(1, m)]])
        size = d if kind == "full" else rnd.randint(1, d)
        return _stress_vector(rnd, m, size - 1) + [rnd.randrange(1, m)]

    bits = rnd.randint(2, 40)
    return m, f, [base() for _ in range(rnd.randint(1, 2))], rnd.getrandbits(bits) | 1 << (bits - 1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_lockstep_operands())
def test_lockstep_powers_match_schoolbook_property(operands):
    # poly_pow_mod_many against independent schoolbook powers; the tally
    # stays per base, at its own width, and the bases of one width share
    # one ladder: one _Reducer._mul per step, and in the transform tier
    # one transform product per step for all their long rows
    m, f, bases, e = operands
    fp = ModPoly(m, f)
    _reducer_for.cache_clear()
    calls, rows = [0], []
    orig_mul, orig_product = _Reducer._mul, _Transform.product

    def spy_mul(self, *args):
        calls[0] += 1
        return orig_mul(self, *args)

    def spy_product(self, sa, sb, ns, *args):
        rows.append(len(ns))
        return orig_product(self, sa, sb, ns, *args)

    with mock.patch.object(_Reducer, "_mul", spy_mul), \
            mock.patch.object(_Transform, "product", spy_product), count_operations() as ops:
        got = poly_pow_mod_many([ModPoly(m, a) for a in bases], e, fp)
    assert got == [ModPoly(m, _reference_pow(a, e, f, m)) for a in bases]
    widths = [window_width(e) if len(a) >= _KRONECKER_MIN else 1 for a in bases]
    assert ops.poly_mults == sum(window_mults(e, w) for w in widths)
    reducer, d = _reducer_for(fp), len(f) - 1
    if d < _KRONECKER_MIN:
        assert reducer._width is None and calls == [0] and not rows
        return
    assert calls == [sum(window_mults(e, w) for w in set(widths))]
    assert (reducer._fft is not None) == (_pack_bits(m, d) >= _TRANSFORM_MIN) \
        == isinstance(reducer._form, _KS1)
    assert all(r <= len(bases) for r in rows)
    if reducer._fft is not None and len(bases) == 2 and widths[0] == widths[1] \
            and len(bases[0]) == len(bases[1]) == d:
        assert rows and set(rows) == {2}


def _convolution(x, y, size=None):
    # the convolution of the digit vectors x and y, cyclic of length size
    # when given, by one integer product with 64-bit spacing (every column
    # sum here is below 2^64)
    z = _pack(x, 8) * _pack(y, 8)
    out = _unpack(z, 8, len(x) + len(y) - 1, 2**64)
    if size is not None:
        out = [sum(out[i::size]) for i in range(size)]
    return out


def _digits(v, digit, count):
    return [(v >> s) & (2**digit - 1) for s in range(0, count * digit, digit)]


def test_wrapped_product_carries_end_around():
    # q*f mod x^L - 1 with q of d - 1 coefficients, all m - 1, and f all
    # m - 1 with its leading 1: the convolution's top digit exceeds
    # 2^(2w), so the top word carries out into the spare word, and the
    # pack is that of the integer product mod 2^(8 W L) - 1; a product
    # that is 0 mod 2^(8 W L) - 1 comes back as 0, never as the all-ones
    # residue
    m, d = 2**61 - 1, 300
    reducer = _Reducer(ModPoly(m, [m - 1] * d + [1]))
    width = reducer._setup()
    fft, bits = reducer._fft, 8 * width
    assert fft is not None and fft.wrap > d and isinstance(reducer._form, _KS1)
    q = _pack([m - 1] * (d - 1), width)
    [got] = fft.product(fft.spectrum([(q, d - 1)], True, "a"), reducer._f_kept[3], [fft.wrap], True)
    size = fft.wrap_size
    top = _convolution(_digits(q, fft.digit, size), _digits(_pack(reducer.f, width), fft.digit, size), size)[-1]
    assert top >= 2**(2 * fft.digit)
    assert got == q * _pack(reducer.f, width) % (2**(bits * fft.wrap) - 1)
    assert fft.product(fft.spectrum([(0, 1)], True, "a"), reducer._f_kept[3], [fft.wrap], True) == [0]
    ones = 2**(bits * fft.wrap) - 1
    assert fft.product(fft.spectrum([(ones, fft.wrap)], True, "a"), fft.spectrum([(1, 1)], True, "b"),
                       [fft.wrap], True) == [0]


@pytest.mark.parametrize("n", [877, 879, 440], ids=["odd-count", "even-count", "short"])
def test_odd_digit_counts_carry_exactly(n):
    # with W = 17 bytes and 16-bit digits a product of n coefficients has
    # ceil(17 n / 2) digits, odd for n = 1 mod 4, and at deg f = 440 the
    # wrapped length 17 L / 2 is odd (L = 450): the zero digit that pads an
    # odd count, and a wrap that falls inside a word, leave every product
    # exact.  All operands are m - 1, so the top words carry the most.
    m, d = 2**61 - 1, 440
    reducer = _Reducer(ModPoly(m, [m - 1] * d + [1]))
    width = reducer._setup()
    fft = reducer._fft
    assert (width, fft.digit, fft.wrap, fft.wrap_size % 2) == (17, 16, 450, 1)
    assert -(-8 * width * n // fft.digit) % 2 == (n % 4 == 1)
    x, y = [m - 1] * d, [m - 1] * (n - d + 1)
    px, py = _pack(x, width), _pack(y, width)
    sa = fft.spectrum([(px, len(x)), (py, len(y))], False, "a")
    sb = fft.spectrum([(py, len(y)), (px, len(x))], False, "b")
    assert fft.product(sa, sb, [n, n]) == [px * py] * 2
    # wrapped: q of d - 1 coefficients times f, mod 2^(8 W L) - 1
    q = _pack([m - 1] * (n - d), width)
    [got] = fft.product(fft.spectrum([(q, n - d)], True, "a"), reducer._f_kept[3], [fft.wrap], True)
    assert got == q * _pack(reducer.f, width) % (2**(8 * width * fft.wrap) - 1)


@pytest.mark.parametrize("m", [2**61 - 1, 3 * (2**89 - 1)], ids=["2^61-1", "3(2^89-1)"])
def test_words_fit_int64_at_the_longest_16_bit_length(m):
    # all-(m - 1) operands at the longest deg f that keeps 16-bit digits:
    # every digit of a square and of the wrapped q*f is at most
    # (d + 1) t (2^w - 1)^2, below 2^44, so every word of two digits is
    # below 2^61 and fits int64
    d = _longest_16_bit(m)
    width = _width(m, d)
    fft = _Transform.fitting(m, d, width)
    w = fft.digit
    t = -(-(m.bit_length() + 8 * width % w) // w)
    bound = (d + 1) * t * (2**w - 1) ** 2
    assert bound < 2**44
    a = _pack([m - 1] * d, width)
    f = _pack([m - 1] * d + [1], width)
    q = _pack([m - 1] * (d - 1), width)
    full = -(-16 * width * d // w)
    for digits in (_convolution(_digits(a, w, full // 2), _digits(a, w, full // 2)),
                   _convolution(_digits(q, w, fft.wrap_size), _digits(f, w, fft.wrap_size), fft.wrap_size)):
        digits += [0] * (len(digits) % 2)
        assert max(digits) <= bound
        assert max(lo + (hi << w) for lo, hi in zip(digits[0::2], digits[1::2])) < 2**61


def test_tripped_row_alone_falls_back(monkeypatch):
    # a guard that trips on one row of a batch: that row comes back None
    # from _Transform.product, is recomputed by one int product of KS1
    # packs alone, and the other row of the batch is kept
    rng = random.Random(23)
    m, d = 2**127 - 1, 100
    f = [rng.randrange(m) for _ in range(d)] + [1]
    a, b = ([rng.randrange(m) for _ in range(d)] for _ in range(2))
    reducer = _Reducer(ModPoly(m, f))
    width = reducer._setup()
    fft = reducer._fft
    rows = [(_pack(v, width), d) for v in (a, b)]
    spectra = fft.spectrum(rows, False, "a")
    spectra[0, 0] += fft.size / 2  # every digit of row 0 off by 1/2
    tripped, kept = fft.product(spectra, spectra, [2 * d - 1] * 2)
    assert tripped is None
    # the product's slots are the column sums of b*b, not reduced
    assert kept == _pack([sum(b[i] * b[k - i] for i in range(max(0, k - d + 1), min(k, d - 1) + 1))
                          for k in range(2 * d - 1)], width)
    # through the ladder: every batched call trips on its first row only
    orig, int_products = _Transform.product, [0]

    def trip_first(self, *args):
        out = orig(self, *args)
        return [None] + out[1:] if len(out) == 2 else out

    orig_times = _KS1.times

    def count_times(self, *args):
        int_products[0] += 1
        return orig_times(self, *args)

    fp = ModPoly(m, f)
    _reducer_for(fp)._setup()
    monkeypatch.setattr(_Transform, "product", trip_first)
    monkeypatch.setattr(_KS1, "times", count_times)
    e = 1000
    got = poly_pow_mod_many([ModPoly(m, a), ModPoly(m, b)], e, fp)
    assert got == [ModPoly(m, _reference_pow(v, e, f, m)) for v in (a, b)]
    assert int_products[0] == 3 * window_mults(e, window_width(e))


@st.composite
def _ks1_operands(draw):
    # a reducer of the transform tier, whose elements are KS1 packs, with
    # 16-bit digits (deg f from the break-even to the longest length that
    # keeps them) or 8-bit ones (past it); two rows of unequal lengths, and
    # a short base beside a full one
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = rnd.choice(_TIER_MODULI + (rnd.randrange(2**60, 2**200),))
    longest = _longest_16_bit(m)
    digit = rnd.choice((16, 8))
    d = rnd.randint(_edge(m), min(longest, 2 * _edge(m))) if digit == 16 else rnd.randint(longest + 1, longest + 40)
    f = _stress_vector(rnd, m, d) + [1]

    def element(size):
        return _stress_vector(rnd, m, size - 1) + [rnd.randrange(1, m)]

    rows = [element(d), element(rnd.randint(1, d)), element(d), element(rnd.randint(1, d))]
    short = rnd.choice([[0, 1], [1, 1], [rnd.randrange(1, m)]])
    return m, f, digit, rows, short, rnd.randint(2, 7)


@settings(derandomize=True, deadline=None, max_examples=16)
@given(_ks1_operands())
def test_ks1_reducer_matches_schoolbook_property(operands):
    # the transform tier's KS1 packs against schoolbook: two-row products of
    # unequal lengths, two-row squares, and a lockstep power of a full and
    # a short base
    m, f, digit, (a, b, c, e_), short, e = operands
    fp = ModPoly(m, f)
    reducer = _reducer_for(fp)
    reducer._setup()
    assert isinstance(reducer._form, _KS1) and reducer._fft.digit == digit
    xs = [reducer._packed(v) for v in (a, c)]
    ys = [reducer._packed(v) for v in (b, e_)]
    for got, u, v in zip(reducer._mul(xs, ys), (a, c), (b, e_)):
        assert reducer._unpacked(got) == _schoolbook_remainder(_mul_schoolbook(u, v, m), f, m)
    for got, u in zip(reducer._mul(xs, xs), (a, c)):
        assert reducer._unpacked(got) == _schoolbook_remainder(_mul_schoolbook(u, u, m), f, m)
    assert poly_pow_mod_many([ModPoly(m, a), ModPoly(m, short)], e, fp) == \
        [ModPoly(m, _reference_pow(v, e, f, m)) for v in (a, short)]


@pytest.mark.parametrize("limit", [_ROUNDING_LIMIT, 1e-12], ids=["fitting", "no-digit-fits"])
def test_reducer_takes_ks1_packs_exactly_in_the_transform_tier(limit, monkeypatch):
    # _reducer_for's reducer packs KS1 exactly when the size rule gives it a
    # _Transform: d B >= _TRANSFORM_MIN and fitting admits a digit; with a
    # rounding limit that no digit meets, every reducer keeps KS2 packs
    monkeypatch.setattr(polyring, "_ROUNDING_LIMIT", limit)
    _reducer_for.cache_clear()
    tiers = set()
    for m in _TIER_MODULI + (2**20 + 7, 2**256 - 189):
        edge = _edge(m)
        for d in sorted({_KRONECKER_MIN, max(_KRONECKER_MIN, edge - 1), max(_KRONECKER_MIN, edge), edge + 1}):
            reducer = _reducer_for(ModPoly(m, [1] * (d + 1)))
            reducer._setup()
            width = _width(m, d)
            rule = 8 * width * d >= _TRANSFORM_MIN and _Transform.fitting(m, d, width) is not None
            assert isinstance(reducer._form, _KS1 if rule else _KS2)
            assert (reducer._fft is not None) == rule
            tiers.add(rule)
    _reducer_for.cache_clear()
    assert tiers == ({True, False} if limit == _ROUNDING_LIMIT else {False})


@pytest.mark.parametrize("eight_first", [True, False], ids=["8-then-16", "16-then-8"])
def test_digit_widths_share_scratch_rows_exactly(eight_first):
    # a power mod a deg-590 f at 2^61 - 1 (8-bit digits, its wrapped q*f of
    # 10200 digits) and a product mod a deg-302 f at 2^127 - 1 (16-bit
    # digits, its mu quotient product of 10200 digits) both carry one row of
    # 5100 words; in either order, each is schoolbook's
    rng = random.Random(24)
    cases = []
    for m, d, sizes in ((2**61 - 1, 590, (590,)), (2**127 - 1, 302, (302, 301))):
        f = [rng.randrange(m) for _ in range(d)] + [1]
        operands = [[rng.randrange(m) for _ in range(n - 1)] + [rng.randrange(1, m)] for n in sizes]
        _reducer_for(ModPoly(m, f))._setup()
        assert _reducer_for(ModPoly(m, f))._fft.digit == (8 if d == 590 else 16)
        cases.append((m, f, operands))
    (m8, f8, (a8,)), (m16, f16, (a16, b16)) = cases

    def eight():
        assert poly_pow_mod(ModPoly(m8, a8), 5, ModPoly(m8, f8)) == ModPoly(m8, _reference_pow(a8, 5, f8, m8))

    def sixteen():
        assert poly_mul_mod(ModPoly(m16, a16), ModPoly(m16, b16), ModPoly(m16, f16)) == \
            ModPoly(m16, _schoolbook_remainder(_mul_schoolbook(a16, b16, m16), f16, m16))

    vars(polyring._SCRATCH).clear()
    for run in ((eight, sixteen) if eight_first else (sixteen, eight)):
        run()
    packed = {key[-1].itemsize for key in vars(polyring._SCRATCH) if key[:3] == ("packed", 1, 5100)}
    assert packed == {2, 4}


@st.composite
def _slot_operands(draw):
    # the moduli cross the byte boundaries of the slot width W
    m = draw(st.one_of(
        st.sampled_from([2, 3, 255, 256, 257, 2**61 - 1, 2**64 - 1, 2**64 + 1]),
        st.integers(2, 2**256)))
    d = draw(st.integers(_KRONECKER_MIN, 4 * _KRONECKER_MIN))
    return m, d, draw(st.integers(1, d)), draw(st.randoms(use_true_random=False))


@_PROPERTY
@given(_slot_operands())
def test_reduce_slots_matches_per_slot_mod_property(operands):
    # slots up to the stated bounds: c + BIAS as _remainder forms it, at
    # most 2 d m^2, and the 2^B - 1 that the slot reduction accepts, in
    # both forms of packed element
    m, d, n, rnd = operands
    width = _width(m, d)
    cap, bound = 1 << 8 * width, d * (m - 1) ** 2 + d * m * m
    assert 2 * d * m * m < cap
    values = [rnd.choice((0, m - 1, m, bound, bound - rnd.randrange(m), cap - 1,
                          rnd.randrange(bound + 1), rnd.randrange(cap)))
              for _ in range(n)]
    for form in (_KS2(m, d, width), _KS1(m, d, width, _Transform(width, 16, 4 * d, 2 * d))):
        assert form.reduce(*form.pack(values)) == form.pack([v % m for v in values])


@st.composite
def _quotient_operands(draw):
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = (rnd.choice([2, 15, 341, 2**61 - 1]) if rnd.random() < 0.4
         else rnd.randrange(2, 2**rnd.randint(2, 256) + 1))
    d = draw(st.integers(16, 120))
    c = _stress_vector(rnd, m, rnd.randint(d + 1, 2 * d - 1))
    return m, c, _stress_vector(rnd, m, d) + [1], rnd


@_PROPERTY
@given(_quotient_operands())
def test_mu_quotient_matches_schoolbook_property(operands):
    # c's slots carry multiples of m up to d (m-1)^2, the largest column
    # sum of a product, as the slots of a packed product do; the reducer
    # packs KS1 or KS2 by its tier
    m, c, f, rnd = operands
    d = len(f) - 1
    reducer = _Reducer(ModPoly(m, f))
    reducer._setup()
    slots = [v + m * rnd.randrange((d * (m - 1) ** 2 - v) // m + 1)
             if rnd.random() < 0.5 else v for v in c]
    expected = list(c)
    _divmod_schoolbook(expected, f, m)
    assert reducer._quotient([reducer._form.pack(slots)]) == [reducer._form.pack(expected[d:])]


def _reference_euclid(u, f, bezout):
    # the list Euclid: each remainder made monic, then long division by
    # _divmod_schoolbook, the s-track updated alongside
    m = f.modulus
    r0, s0 = list(f.coeffs), ModPoly.zero(m) if bezout else None
    r1, s1 = list(u.coeffs), ModPoly.one(m) if bezout else None
    while r1:
        lead = r1[-1]
        if lead != 1:
            if math.gcd(lead, m) != 1:
                return FactorFound(math.gcd(lead, m))
            inv = pow(lead, -1, m)
            r1 = [c * inv % m for c in r1]
            if bezout:
                s1 = ModPoly(m, [c * inv for c in s1.coeffs])
        if len(r1) == 1:
            return r1, s1
        db = len(r1) - 1
        _divmod_schoolbook(r0, r1, m)
        if bezout:
            s0, s1 = s1, s0 - ModPoly(m, _mul_schoolbook(r0[db:], s1.coeffs, m))
        del r0[db:]
        while r0 and r0[-1] == 0:
            r0.pop()
        r0, r1 = r1, r0
    return r0, s0


def _times_mod(a, b, f):
    # a*b mod f by schoolbook product and division
    m = f.modulus
    return ModPoly(m, _schoolbook_remainder(
        _mul_schoolbook(a.coeffs, b.coeffs, m) if a.coeffs and b.coeffs else [],
        f.coeffs, m))


@st.composite
def _euclid_operands(draw):
    # drawn from rnd, not by hypothesis, which favours m = 2 and small d
    rnd = random.Random(draw(st.integers(0, 2**64)))
    m = (rnd.choice([2, 3, 4, 9, 15, 255, 256, 257, 341, 561, 2**61 - 1, 2**64 + 1])
         if rnd.random() < 0.6 else rnd.randrange(2, 2**rnd.randint(2, 200) + 1))
    d = rnd.randint(1, 80)
    kind = rnd.choice(["random", "common", "drop", "zero", "constant"])
    k = rnd.randint(1, d - 1) if d > 1 else 0
    if kind == "common" and k:
        # a planted common factor g of degree k: f = g h and u = g w
        g = _stress_vector(rnd, m, k) + [1]
        f = _mul_schoolbook(g, _stress_vector(rnd, m, d - k) + [1], m)
        u = _mul_schoolbook(g, _stress_vector(rnd, m, rnd.randint(1, d - k)), m)
    elif kind == "drop" and k:
        # f = v w + r with deg r far below deg v - 1 and u = v: the step
        # that divides v by r has a long quotient, whatever the modulus
        v = _stress_vector(rnd, m, k) + [1]
        f = _mul_schoolbook(v, _stress_vector(rnd, m, d - k) + [1], m)
        r = _stress_vector(rnd, m, rnd.randint(0, k // 4))
        f = [(c + (r[i] if i < len(r) else 0)) % m for i, c in enumerate(f)]
        u = v
    else:
        f = _stress_vector(rnd, m, d) + [1]
        u = _stress_vector(rnd, m, {"zero": 0, "constant": 1}.get(kind, rnd.randint(0, d)))
    return ModPoly(m, u), ModPoly(m, f)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_euclid_operands())
def test_euclid_matches_list_euclid_property(operands):
    # the packed Euclid against the list one, with and without the s-track
    u, f = operands
    for bezout in (False, True):
        out = _euclid(u, f, bezout)
        assert out == _reference_euclid(u, f, bezout)
    if isinstance(out, FactorFound):
        assert 1 < out.divisor < f.modulus and f.modulus % out.divisor == 0
        assert poly_is_unit_mod(u, f) == out
        return
    g, s = out
    # s u = g mod f; for u = 0 the gcd is f itself, 0 mod f
    m = f.modulus
    assert _times_mod(s, u, f) == ModPoly(m, _schoolbook_remainder(g, f.coeffs, m))
    unit = poly_is_unit_mod(u, f)
    if len(g) > 1:
        assert unit == NonUnit(ModPoly(f.modulus, g))
    else:
        assert unit.inverse.degree < f.degree
        assert _times_mod(unit.inverse, u, f) == ModPoly.one(f.modulus)


def test_random_poly_determinism_and_support():
    a = random_poly(5, 97, 12345)
    b = random_poly(5, 97, 12345)
    assert a == b
    assert a.degree < 5
    for seed in range(50):
        p = random_poly(1, 2, seed)
        assert p.coeffs in ((), (1,))


def test_random_poly_distribution_multinomial():
    # 10^4 draws of a pair of coefficients mod 3; each of the 9 outcomes
    # within 5 sigma of n/9, checked in exact integer arithmetic:
    # |9*count - n| <= 5*sqrt(8n)  <=>  (9*count - n)^2 <= 200n
    n = 10**4
    counts = {}
    for seed in range(n):
        p = random_poly(2, 3, seed)
        key = (p.coefficient(0), p.coefficient(1))
        counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == n
    assert len(counts) == 9
    for key, c in counts.items():
        assert (9 * c - n) ** 2 <= 200 * n, (key, c)


def test_unit_classification_examples():
    f = P(5, 1, 0, 1)
    out = poly_is_unit_mod(P(5, 2), f)
    assert isinstance(out, Unit)
    assert poly_mul_mod(P(5, 2), out.inverse, f) == ModPoly.one(5)
    assert poly_is_unit_mod(ModPoly.x(5), P(5, 0, 0, 1)) == NonUnit(ModPoly.x(5))
    assert poly_is_unit_mod(ModPoly.zero(5), f) == NonUnit(f)
    # x^2 + 1 = (x - 2)(x - 3) mod 5: the monic gcd with 2x - 4 is x - 2
    assert poly_is_unit_mod(P(5, 1, 2), f) == NonUnit(P(5, 3, 1))
    # leading coefficient sharing a factor with 15 surfaces that factor
    out = poly_is_unit_mod(P(15, 1, 5), P(15, 1, 1, 1))
    assert out == FactorFound(5)


def test_unit_certificates_randomized():
    rng = random.Random(15)
    for _ in range(300):
        m = rng.randint(2, 200)
        d = rng.randint(1, 4)
        f = ModPoly(m, [rng.randrange(m) for _ in range(d)] + [1])
        u = ModPoly(m, [rng.randrange(m) for _ in range(d)])
        out = poly_is_unit_mod(u, f)
        if isinstance(out, Unit):
            assert poly_mul_mod(u, out.inverse, f) == ModPoly.one(m)
        elif isinstance(out, FactorFound):
            assert 1 < out.divisor < m and m % out.divisor == 0


def brute_force_irreducible(f):
    # tiny-field irreducibility: no monic divisor of degree 1..d-1
    p, d = f.modulus, f.degree
    import itertools
    for deg in range(1, d):
        for tail in itertools.product(range(p), repeat=deg):
            g = ModPoly(p, list(tail) + [1])
            # trial divide f by g
            rem = list(f.coeffs)
            while len(rem) - 1 >= g.degree and any(rem):
                t = rem[-1]
                shift = len(rem) - 1 - g.degree
                for j, c in enumerate(g.coeffs):
                    rem[shift + j] = (rem[shift + j] - t * c) % p
                while rem and rem[-1] == 0:
                    rem.pop()
            if not rem:
                return False
    return True


def test_units_in_prime_field_quotients():
    # over a true field with irreducible f, every nonzero u is a unit
    rng = random.Random(16)
    for p in (2, 3, 5):
        import itertools
        irreducibles = [
            ModPoly(p, list(tail) + [1])
            for tail in itertools.product(range(p), repeat=2)
            if brute_force_irreducible(ModPoly(p, list(tail) + [1]))
        ]
        assert irreducibles
        for f in irreducibles:
            for _ in range(20):
                u = ModPoly(p, [rng.randrange(p) for _ in range(2)])
                if u.is_zero():
                    continue
                assert isinstance(poly_is_unit_mod(u, f), Unit)


def test_serialization_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(2, 10**9)
        d = rng.randint(0, 8)
        p = ModPoly(m, [rng.randrange(m) for _ in range(d)])
        assert ModPoly.from_line(p.to_line()) == p
    z = ModPoly.zero(41)
    assert z.to_line() == "41; "
    assert ModPoly.from_line(z.to_line()) == z


def test_serialization_rejects_bad_input():
    with pytest.raises(ValueError):
        ModPoly.from_line("10; 3,10")  # coefficient == modulus
    with pytest.raises(ValueError):
        ModPoly.from_line("10; 3,-1")
    with pytest.raises(ValueError):
        ModPoly.from_line("10: 3,1")
    with pytest.raises(ValueError):
        ModPoly.from_line("1; 0")
