import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abprime import (
    BoundViolation,
    DeskLimitError,
    ModPoly,
    ab_failure_census_mod_N,
    ab_failure_census_mod_p,
    count_operations,
    factorize_desk,
    heuristic_class_scan,
    is_irreducible_mod_p,
    mr_nonwitness_census,
    poly_mul_mod,
    poly_pow_mod,
    root_count_in_extension,
)
from abprime.census import _check_work, _deg_g_mod_p, _g_mod_p, _identity_count, _ring_mul
from abprime.instrument import binary_power
from abprime.intarith import decompose_two_power


def loop_identity_count(n, f):
    """Reference for census._identity_count: two exponentiations per h."""
    m, d = f.modulus, f.degree
    count = 0
    for coeffs in itertools.product(range(m), repeat=d):
        h = ModPoly(m, coeffs)
        if poly_pow_mod(h.add_constant(1), n, f) == poly_pow_mod(h, n, f).add_constant(1):
            count += 1
    return count


def test_factorize_examples():
    assert factorize_desk(341) == [(11, 1), (31, 1)]
    assert factorize_desk(9) == [(3, 2)]
    assert factorize_desk(97) == [(97, 1)]
    assert factorize_desk(2**10 * 3**4 * 17) == [(2, 10), (3, 4), (17, 1)]
    with pytest.raises(ValueError):
        factorize_desk(1)
    with pytest.raises(DeskLimitError):
        factorize_desk(10**13)


def naive_nonwitness_count(n):
    s, t = 0, n - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    count = 0
    for a in range(1, n):
        x = pow(a, t, n)
        if x == 1:
            count += 1
            continue
        for _ in range(s):
            if x == n - 1:
                count += 1
                break
            x = x * x % n
    return count


def range_nonwitness_count(n):
    """Reference for the per-component census: every base a in [1, n)
    raised mod n by one numpy ladder, the whole range at once."""
    import numpy as np

    s, t = decompose_two_power(n - 1)
    a = np.arange(1, n, dtype=np.int64)
    x = binary_power(a, t, lambda y, z: y * z % n)
    nonwit = x == 1
    for _ in range(s):
        nonwit |= x == n - 1
        x = x * x % n
    return int(nonwit.sum())


def test_mr_census_matches_range_enumeration():
    rng = random.Random(1980)
    seeded = []
    while len(seeded) < 12:
        n = rng.randrange(10 ** rng.randint(2, 5), 10**6) | 1
        if factorize_desk(n) != [(n, 1)]:
            seeded.append(n)
    prime_powers = [9, 27, 25, 125, 49, 11**3, 13**4, 11**5, 3**12, 5**8, 7**7]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911]
    # one component of 333331 residues beside one of 3
    one_large = [3 * 333331, 5 * 199999]
    for n in seeded + prime_powers + carmichael + one_large:
        assert mr_nonwitness_census(n).failing == range_nonwitness_count(n), n


def test_mr_census_pins():
    rep = mr_nonwitness_census(9)
    assert (rep.failing, rep.total) == (2, 8)
    assert rep.fraction == Fraction(1, 4)
    assert mr_nonwitness_census(15).failing == 2
    rep = mr_nonwitness_census(341)
    assert rep.failing == 50
    assert rep.fraction == Fraction(50, 340)
    assert rep.factorization == ((11, 1), (31, 1))
    # 341: 25 solutions of a^85 = 1 plus 25 of a^85 = -1
    ones = sum(1 for a in range(1, 341) if pow(a, 85, 341) == 1)
    negs = sum(1 for a in range(1, 341) if pow(a, 85, 341) == 340)
    assert (ones, negs) == (25, 25)


def test_mr_census_matches_naive_loop():
    composites = [n for n in range(9, 1000, 2)
                  if any(n % p == 0 for p in range(3, math.isqrt(n) + 1, 2))]
    assert {9, 15, 21, 25, 27, 33, 45, 91, 105, 341, 561} <= set(composites)
    for n in composites:
        assert mr_nonwitness_census(n).failing == naive_nonwitness_count(n), n


def test_mr_census_bound_fields():
    rep = mr_nonwitness_census(9)
    assert rep.bound == Fraction(1, 4)  # min(1/4, 1/3)
    assert rep.fraction <= Fraction(1, 3)
    rep = mr_nonwitness_census(3 * 5 * 7)
    assert rep.bound == Fraction(1, 4)  # min(1/4, 1/(2^2))
    rep = mr_nonwitness_census(3**2 * 5)
    assert rep.bound == Fraction(1, 6)  # 1/(2 * 3)
    assert rep.fraction <= rep.bound


def test_extension_checks_precede_primality(monkeypatch, tmp_path, capsys):
    # p = 2^61 - 1: certifying p by trial division would take minutes, and
    # the field-size cap rejects p^2 first
    import abprime.census as census
    from abprime.cli import main

    def no_trial_division(p):
        raise AssertionError(f"is_small_prime({p}) ran before the O(1) checks")

    monkeypatch.setattr(census, "is_small_prime", no_trial_division)
    p = 2**61 - 1
    f = ModPoly(p, [1, 0, 1])
    with pytest.raises(DeskLimitError):
        root_count_in_extension(3 * p, p, f)
    poly = tmp_path / "f.poly"
    poly.write_text(f.to_line() + "\n")
    assert main(["census", "ab-p", str(3 * p), str(p), "--f", str(poly)]) == 64
    assert "exceeds the limit" in capsys.readouterr().err


def test_mr_census_validation():
    with pytest.raises(ValueError):
        mr_nonwitness_census(10)  # even
    with pytest.raises(ValueError):
        mr_nonwitness_census(97)  # prime
    with pytest.raises(DeskLimitError):
        mr_nonwitness_census(10**6 + 3)


def test_import_leaves_numpy_unloaded():
    # numpy is loaded by the censuses and by polyring's transform tier when
    # they run, not by `import abprime`, nor by a 14-bit full_pipeline,
    # whose packs stay below _TRANSFORM_MIN; a product above it loads it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import abprime, sys\n"
            "assert 'numpy' not in sys.modules\n"
            "v = abprime.full_pipeline(13187, abprime.PipelineConfig(), 1)\n"
            "assert v.outcome is abprime.Outcome.PRIME\n"
            "assert 'numpy' not in sys.modules\n"
            "m = 2**127 - 1\n"
            "a = abprime.ModPoly(m, range(1, 101))\n"
            "abprime.poly_mul_mod(a, a, abprime.ModPoly(m, [1] * 101))\n"
            "assert 'numpy' in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), check=True)


def test_root_count_example():
    f = ModPoly(15, [1, 0, 1])
    assert root_count_in_extension(15, 3, f) == 3
    with pytest.raises(ValueError):
        root_count_in_extension(15, 7, f)  # 7 does not divide 15
    with pytest.raises(ValueError):
        root_count_in_extension(15, 5, f)  # x^2+1 splits mod 5
    # the field-size cap: 3^12 <= 10^6 < 3^13
    f12 = ModPoly(3, [2, 0, 1] + [0] * 9 + [1])
    f13 = ModPoly(3, [1, 2] + [0] * 11 + [1])
    assert root_count_in_extension(15, 3, f12) == 3
    with pytest.raises(DeskLimitError):
        root_count_in_extension(15, 3, f13)
    with pytest.raises(DeskLimitError):
        ab_failure_census_mod_p(15, 3, f13)
    # against the census's enumeration: n > p^d, p = 2, and exponents whose
    # reduced form m = (n-1) mod (p^d-1) + 1 leaves g = 2x (n = 6) or g = 0
    # (n = 15) over F_3
    for n, p, f, roots in [
        (5 * (10**6 + 3), 5, ModPoly(5, [1, 1, 0, 1]), 32),
        (6, 2, ModPoly(2, [1, 1, 1]), 2),
        (2 * (10**6 + 3), 2, ModPoly(2, [1, 1, 0, 0, 1]), 4),
        (6, 3, ModPoly(3, [0, 1]), 1),
        (15, 3, ModPoly(3, [0, 1]), 3),
    ]:
        assert root_count_in_extension(n, p, f) == roots, (n, p)
        assert ab_failure_census_mod_p(n, p, f).failing == roots, (n, p)


def test_root_count_reduces_the_power_of_p():
    # the root count runs at n / p^v; the enumeration at the true n
    rng = random.Random(1810)
    for p in (3, 5, 7):
        for d in (2, 3):
            while True:
                f = ModPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
                if is_irreducible_mod_p(f, p):
                    break
            for v in (1, 2, 3):
                n = p**v * rng.choice([k for k in range(2, 40) if k % p])
                assert root_count_in_extension(n, p, f) == _identity_count(n, f), (n, f)
            # k = 1 leaves g = 0: every element is a root
            assert root_count_in_extension(p**2, p, f) == _identity_count(p**2, f) == p**d


def test_root_count_prime_everything_is_a_root():
    # for prime N = p the identity holds at every point of the field
    f = ModPoly(7, [1, 0, 1])
    assert root_count_in_extension(7, 7, f) == 49
    # likewise for any power of p, where g vanishes mod p
    assert root_count_in_extension(27, 3, ModPoly(3, [1, 2, 0, 1])) == 27


def test_ab_census_equals_root_count():
    f = ModPoly(15, [1, 0, 1])
    rep = ab_failure_census_mod_p(15, 3, f)
    assert rep.failing == 3
    assert rep.total == 9
    assert rep.failing == root_count_in_extension(15, 3, f)
    # true degree of (x+1)^15 - x^15 - 1 mod 3 is 15 - 3 = 12 (Lucas)
    assert rep.bound == Fraction(12, 9)


def test_deg_g_by_lucas_matches_brute_force():
    for n, p in [(15, 3), (15, 5), (21, 3), (21, 7), (45, 3), (45, 5),
                 (50, 5), (99, 3), (341, 11), (341, 31), (12, 3), (40, 5)]:
        got = _deg_g_mod_p(n, p)
        deg = max(k for k in range(n) if math.comb(n, k) % p != 0)
        assert got == deg, (n, p)
    with pytest.raises(ValueError):
        _deg_g_mod_p(27, 3)  # the polynomial vanishes mod 3


def test_ab_census_mod_p_341():
    f = ModPoly(341, [1, 0, 1])  # irreducible mod both 11 and 31
    rep = ab_failure_census_mod_p(341, 11, f)
    with count_operations() as ops:
        assert rep.failing == root_count_in_extension(341, 11, f)
    # the gcd count enumerates nothing; the census charges 121 * 12
    assert ops.poly_mults < 100
    assert rep.fraction < Fraction(341, 121)
    assert rep.fraction <= rep.bound


def test_ab_census_mod_N_crt():
    # f irreducible mod 3 and mod 5; the mod-N failing count factors by CRT
    f15 = ModPoly(15, [2, 1, 1])
    rep = ab_failure_census_mod_N(15, f15)
    mod3 = ab_failure_census_mod_p(15, 3, ModPoly(3, [2, 1, 1])).failing
    mod5 = ab_failure_census_mod_p(15, 5, ModPoly(5, [2, 1, 1])).failing
    assert rep.failing == mod3 * mod5
    assert rep.total == 225
    assert rep.bound == Fraction(15**2, 3**2 * 5**2)
    assert rep.fraction < rep.bound


def test_ab_census_mod_N_crt_with_reducible_parts():
    # x^2 + 1 splits mod 5, so the mod-5 side needs a raw enumeration
    f15 = ModPoly(15, [1, 0, 1])
    rep = ab_failure_census_mod_N(15, f15)
    assert rep.failing == loop_identity_count(15, ModPoly(3, [1, 0, 1])) * \
        loop_identity_count(15, ModPoly(5, [1, 0, 1]))


def test_identity_count_matches_loop():
    rng = random.Random(2018)
    cases = []
    for p in (2, 3, 5, 7, 11, 13, 17):
        for d in range(1, 5):
            if p**d <= 5000:
                f = ModPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
                cases += [(p ** rng.randint(1, 3), f), (rng.randrange(2, 500), f)]
    for n in (15, 21, 35):  # f = (x - a) g, reducible mod every factor of N
        for d in (2, 3) if n == 15 else (2,):
            a, g = rng.randrange(n), [rng.randrange(n) for _ in range(d - 1)] + [1]
            cases.append((n, ModPoly(n, [x - a * y for x, y in zip([0] + g, g + [0])])))
    for n, f in cases:
        assert _identity_count(n, f) == loop_identity_count(n, f), (n, f)
    # 257^2 elements make two blocks of whole runs of 257, the second
    # starting at 255 * 257; at n = 257 every h passes (Frobenius)
    f = ModPoly(257, [3, 1, 1])
    assert _identity_count(257, f) == loop_identity_count(257, f) == 257**2


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@st.composite
def _identity_count_inputs(draw):
    """(n, f): f monic of degree 1-4 over Z/mZ, m a prime up to 17 or a
    composite (the mod-N census), m^deg f <= 1500 to keep the loop short;
    f irreducible mod every prime factor of m, or (x - a) g, or as drawn;
    n drawn freely or as a multiple of m, as in the mod-p census."""
    m = draw(st.sampled_from(_SMALL_PRIMES + (4, 6, 9, 10, 12, 15, 21, 35)))
    d = draw(st.sampled_from([d for d in range(1, 5) if m**d <= 1500]))
    kind = draw(st.sampled_from(["irreducible", "reducible", "drawn"]))
    low = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
    if kind == "reducible" and d > 1:
        a = draw(st.integers(0, m - 1))
        g = low[:d - 1] + [1]
        f = ModPoly(m, [x - a * y for x, y in zip([0] + g, g + [0])])
    elif kind == "irreducible":
        primes = [p for p in _SMALL_PRIMES if m % p == 0]
        start = sum(c * m**i for i, c in enumerate(low))
        for k in range(m**d):
            number = (start + k) % m**d
            f = ModPoly(m, [number // m**i % m for i in range(d)] + [1])
            if all(is_irreducible_mod_p(f.reduce_to_modulus(p), p) for p in primes):
                break
    else:
        f = ModPoly(m, low + [1])
    n = draw(st.one_of(st.integers(2, 600), st.integers(1, 40).map(lambda k: k * m)))
    return n, f


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_identity_count_inputs())
@example((17 * 23, ModPoly(17, [3, 1, 1])))
@example((15, ModPoly(15, [1, 0, 1])))
def test_identity_count_matches_loop_property(inputs):
    # the one-fold block product against two poly_pow_mod per h
    n, f = inputs
    assert _identity_count(n, f) == loop_identity_count(n, f), inputs


@pytest.mark.parametrize("d, m", [(2, 2236), (3, 149), (6, 10)])
def test_ring_mul_at_the_work_cap(d, m):
    # the largest m the work cap admits at degree d (n = 2, one ring
    # multiplication per power); every coefficient and operand m - 1, and
    # f with x^d = (m - 1)(1 + x + ... + x^(d-1)), whose fold columns are
    # large, each against the Python-int product
    import numpy as np

    _check_work(2, m, d)
    with pytest.raises(DeskLimitError):
        _check_work(2, m + 1, d)
    a = ModPoly(m, [m - 1] * d)
    block = np.full((d, 3), m - 1, dtype=np.int64)
    for f in (ModPoly(m, [m - 1] * d + [1]), ModPoly(m, [1] * d + [1])):
        want = list(poly_mul_mod(a, a, f).coeffs)
        want += [0] * (d - len(want))
        got = _ring_mul(f)(block, block)
        assert got.tolist() == [[c] * 3 for c in want], (d, m, f)


def test_g_by_lucas_matches_the_ring_power():
    # g = (x+1)^m - x^m - 1 over F_p, against (x+1)^m mod x^(m+1)
    for p in _SMALL_PRIMES:
        x1 = ModPoly(p, [1, 1])
        for m in range(1, 601):
            power = poly_pow_mod(x1, m, ModPoly(p, [0] * (m + 1) + [1]))
            want = (power - ModPoly(p, [0] * m + [1])).add_constant(-1)
            assert _g_mod_p(m, p) == want, (p, m)
    assert _g_mod_p(1, 2).is_zero() and _g_mod_p(1, 17).is_zero()


def test_root_count_equals_census_on_the_benchmark_classes():
    # the (p, deg f) classes of the census-exact workload, three seeded
    # (n, f) each: n a multiple of p in [250, 500), not a power of p
    rng = random.Random(2022)
    for p, d in [(17, 2), (3, 4), (5, 4), (11, 3), (13, 3), (7, 4), (17, 3)]:
        for _ in range(3):
            while True:
                f = ModPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
                if is_irreducible_mod_p(f, p):
                    break
            n = p * rng.choice([k for k in range(-(-250 // p), 500 // p) if k % p])
            assert root_count_in_extension(n, p, f) == ab_failure_census_mod_p(n, p, f).failing, (n, f)


def test_ab_census_mod_N_validation():
    with pytest.raises(ValueError):
        ab_failure_census_mod_N(15, ModPoly(15, [3]))  # constant f
    with pytest.raises(ValueError):
        ab_failure_census_mod_N(13, ModPoly(13, [1, 0, 1]))  # prime N
    for d in (6, 7):  # 15^6 and 15^7 elements: work 8.2e8 and 1.4e10
        with pytest.raises(DeskLimitError):
            ab_failure_census_mod_N(15, ModPoly(15, [0] * d + [1]))


def _refuse_enumeration(monkeypatch):
    def enumerate_(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr("abprime.census._identity_count", enumerate_)


def test_identity_census_work_is_capped(monkeypatch):
    # inside the field-size cap (997^2, 7^7) and the old N^d cap (3161^2),
    # these ran for minutes; each is refused before the enumeration
    _refuse_enumeration(monkeypatch)
    with pytest.raises(DeskLimitError):
        ab_failure_census_mod_p(993012, 997, ModPoly(997, [-2, 0, 1]))
    with pytest.raises(DeskLimitError):
        ab_failure_census_mod_p(823536, 7, ModPoly(7, [-1, -1] + [0] * 5 + [1]))
    with pytest.raises(DeskLimitError):
        ab_failure_census_mod_N(3161, ModPoly(3161, [1, 1, 1]))


@pytest.mark.parametrize("n, error", [(3 * 10**12 + 3, DeskLimitError), (9, ValueError)])
def test_census_mod_p_refuses_before_enumerating(monkeypatch, n, error):
    # n above FACTOR_LIMIT, and n a power of p (g vanishes mod p)
    _refuse_enumeration(monkeypatch)
    with pytest.raises(error):
        ab_failure_census_mod_p(n, 3, ModPoly(3, [1, 0, 1]))


def test_ab_census_21():
    f = ModPoly(21, [1, 0, 1])
    assert is_irreducible_mod_p(f, 3) and is_irreducible_mod_p(f, 7)
    rep = ab_failure_census_mod_N(21, f)
    assert rep.bound == Fraction(21**2, 9 * 49)
    assert rep.fraction < Fraction(1)


def test_heuristic_class_scan():
    reports = heuristic_class_scan(9)
    assert [r.subject for r in reports] == [21, 133, 341]
    by_n = {r.subject: r for r in reports}
    assert by_n[21].failing == 2
    assert by_n[21].bound == Fraction(1, 12) * Fraction(2, 3) * Fraction(6, 7)
    assert by_n[21].bound == Fraction(1, 21)
    assert by_n[341].failing == 50
    assert by_n[341].fraction >= by_n[341].bound >= Fraction(1, 21)
    for rep in reports:
        assert rep.fraction >= rep.bound
        p, q = rep.factorization[0][0], rep.factorization[1][0]
        assert rep.subject == p * q and q == 3 * p - 2


def test_class_scan_even_k_excluded():
    # k = 2 gives p = 5, q = 13, both prime, but only odd k is in the class
    ns = [r.subject for r in heuristic_class_scan(25)]
    assert 65 not in ns
    assert all((n - 1) % 4 == 0 for n in ns)


def test_census_report_json_round_trip():
    rep = mr_nonwitness_census(341)
    js = rep.to_json_dict()
    assert js["n"] == 341
    assert js["failing"] == 50
    assert js["fraction"] == "5/34"
    assert js["bound"] == "1/4"
    assert js["factors"] == [[11, 1], [31, 1]]
    assert Fraction(*map(int, js["fraction"].split("/"))) == rep.fraction
