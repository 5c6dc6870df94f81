import math
import random
import re

import pytest

from abprime import (
    FactorFound,
    Inverse,
    count_operations,
    decompose_two_power,
    floor_log2,
    gcd,
    mod_pow,
    try_invert,
)
from abprime.intarith import factorize, least_divisor, strip_power


def naive_pow(a, e, m):
    # independent oracle: repeated multiplication
    out = 1 % m
    for _ in range(e):
        out = out * a % m
    return out


def test_mod_pow_examples():
    assert mod_pow(2, 10, 1000) == 24
    assert mod_pow(7, 0, 13) == 1
    assert mod_pow(123, 0, 2) == 1
    # 341 is a base-2 Fermat pseudoprime
    assert naive_pow(2, 340, 341) == 1
    assert mod_pow(2, 340, 341) == 1


def test_mod_pow_matches_oracle_randomized():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randint(2, 1000)
        a = rng.randint(0, 2 * m)
        e = rng.randint(0, 200)
        assert mod_pow(a, e, m) == naive_pow(a, e, m)


def test_mod_pow_counted_path_matches_builtin():
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(2, 10**6)
        a = rng.randint(0, m - 1)
        e = rng.randint(0, 10**6)
        with count_operations():
            counted = mod_pow(a, e, m)
        assert counted == pow(a, e, m)


def test_mod_pow_multiplication_bound():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(2, 10**9)
        a = rng.randint(0, m - 1)
        e = rng.randint(0, 10**12)
        with count_operations() as ops:
            mod_pow(a, e, m)
        assert ops.int_mults <= 2 * e.bit_length()


def binary_method_count(e):
    return 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1


def test_mod_pow_exact_multiplication_count():
    rng = random.Random(8)
    for e in [0, 1, 2, 3] + [rng.randint(0, 10**12) for _ in range(200)]:
        m = rng.randint(2, 10**12)
        with count_operations() as ops:
            mod_pow(rng.randrange(m), e, m)
        assert ops.int_mults == binary_method_count(e), e


def test_binary_power_spends_its_count():
    from abprime.instrument import binary_method_mults, binary_power

    rng = random.Random(9)
    exponents = list(range(1, 4097)) + [rng.randrange(1, 2**200) for _ in range(20)]
    for e in exponents:
        m = rng.randint(2, 10**12)
        x = rng.randrange(m)
        calls = [0, 0]

        def mul(y, z):
            # a square is mul(y, y), the same object twice
            calls[y is not z] += 1
            return y * z % m

        assert binary_power(x, e, mul) == pow(x, e, m), e
        assert calls == [e.bit_length() - 1, bin(e).count("1") - 1], e
        assert sum(calls) == binary_method_mults(e) == binary_method_count(e), e
    with pytest.raises(ValueError):
        binary_power(2, 0, None)


def window_recount(e, w):
    """Oracle: [squares, multiplies] of the sliding-window method of width
    w on e >= 1, from a regex split of e's bits into the longest windows of
    at most w bits that start and end in a 1 bit; x^2 is a square and the
    rest of the table x^3, x^5, ..., x^(2^w - 1) multiplies."""
    bits = bin(e)[2:]
    windows = [mt.group() for mt in
               re.finditer("1" if w == 1 else "1(?:[01]{0,%d}1)?" % (w - 2), bits)]
    table = [1, 2 ** (w - 1) - 1] if w > 1 else [0, 0]
    return [table[0] + len(bits) - len(windows[0]), table[1] + len(windows) - 1]


def test_window_ladder_matches_pow_and_recount():
    from abprime.instrument import binary_method_mults, binary_power, window_mults

    rng = random.Random(19)
    exponents = list(range(1, 300)) + [rng.randrange(1, 2**rng.randint(2, 200))
                                       for _ in range(200)]
    for e in exponents:
        # beyond 2^64, no residue the ladder forms is a cached small int
        m = rng.randrange(2**64, 2**128)
        x = rng.randrange(2**64, m)
        for w in range(1, 7):
            calls = [0, 0]

            def mul(y, z):
                calls[y is not z] += 1
                return y * z % m

            assert binary_power(x, e, mul, w) == pow(x, e, m), (e, w)
            assert calls == window_recount(e, w), (e, w)
            assert sum(calls) == window_mults(e, w), (e, w)
        assert window_mults(e, 1) == binary_method_mults(e), e


def test_window_width_never_costs_more_than_binary():
    from abprime.instrument import binary_method_mults, window_mults, window_width

    rng = random.Random(20)
    for e in list(range(2**13)) + [rng.randrange(2**200) for _ in range(200)]:
        w = window_width(e)
        counts = [window_mults(e, v) for v in range(1, 7)]
        # the least count, and the smallest width that reaches it
        assert counts[w - 1] == min(counts) and min(counts) not in counts[:w - 1], e
        assert window_mults(e, w) <= binary_method_mults(e), e


def test_mod_pow_additivity():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(2, 500)
        a = rng.randint(0, m - 1)
        e1 = rng.randint(0, 500)
        e2 = rng.randint(0, 500)
        assert mod_pow(a, e1 + e2, m) == mod_pow(a, e1, m) * mod_pow(a, e2, m) % m


def test_mod_pow_domain_errors():
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, 3, 0)


def test_gcd():
    assert gcd(12, 18) == 6
    assert gcd(1, 999) == 1
    assert gcd(85, 340) == 85
    assert gcd(0, 5) == 5
    with pytest.raises(ValueError):
        gcd(0, 0)


def test_try_invert_examples():
    assert try_invert(3, 10) == Inverse(7)
    assert try_invert(5, 15) == FactorFound(5)
    out = try_invert(2, 341)
    assert out == Inverse(171)
    assert 2 * 171 % 341 == 1


def test_try_invert_invariants():
    rng = random.Random(5)
    for _ in range(500):
        m = rng.randint(2, 10**6)
        a = rng.randint(1, m - 1)
        out = try_invert(a, m)
        if isinstance(out, Inverse):
            assert a * out.value % m == 1
        else:
            assert 1 < out.divisor < m
            assert m % out.divisor == 0


def test_try_invert_domain_errors():
    with pytest.raises(ValueError):
        try_invert(0, 7)
    with pytest.raises(ValueError):
        try_invert(7, 7)


def test_decompose_two_power():
    assert decompose_two_power(340) == (2, 85)
    assert decompose_two_power(1) == (0, 1)
    assert decompose_two_power(8) == (3, 1)
    with pytest.raises(ValueError):
        decompose_two_power(0)


def test_decompose_round_trip():
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randint(1, 10**12)
        s, t = decompose_two_power(n)
        assert t % 2 == 1
        assert (2**s) * t == n


def test_floor_log2():
    assert floor_log2(1) == 0
    assert floor_log2(25) == 4
    assert floor_log2(1024) == 10
    with pytest.raises(ValueError):
        floor_log2(0)
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10**15)
        k = floor_log2(n)
        assert 2**k <= n < 2 ** (k + 1)


def test_least_divisor():
    assert least_divisor(15, 4) == 3
    assert least_divisor(25, 4) is None
    assert least_divisor(1001, 30) == 7
    assert least_divisor(97, 96) is None
    assert least_divisor(2, 1) is None
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 10**6)
        limit = rng.randint(1, 200)
        # oracle: the least prime of n's factorization, kept when <= limit
        p = factorize(n)[0][0]
        assert least_divisor(n, limit) == (p if p <= limit else None), (n, limit)


def test_strip_power():
    assert strip_power(250, 5) == (3, 2)
    assert strip_power(7, 5) == (0, 7)
    assert strip_power(1, 3) == (0, 1)
    assert strip_power(3**40, 3) == (40, 1)
    rng = random.Random(9)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 97])
        v, m = rng.randint(0, 12), rng.randint(1, 10**6)
        m //= math.gcd(m, p**20)
        assert strip_power(p**v * m, p) == (v, m), (p, v, m)
    with pytest.raises(ValueError):
        strip_power(0, 3)
    with pytest.raises(ValueError):
        strip_power(12, 1)
