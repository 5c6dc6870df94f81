import random

import pytest

from abprime import (
    PeriodPair,
    find_period_system,
    is_period_pair,
    multiplicative_order,
    system_degree,
)
from abprime.periodsys import PeriodSystem, is_small_prime


def test_is_small_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_small_prime(n) == (n in primes)


def test_is_period_pair_examples():
    # ord_7(2^2) = ord_7(4) = 3 via 4, 2, 1
    assert multiplicative_order(4, 7) == 3
    assert is_period_pair(2, 7, 3)
    # ord_11(2^2) = ord_11(4) = 5 via 4, 5, 9, 3, 1
    assert multiplicative_order(4, 11) == 5
    assert is_period_pair(2, 11, 5)
    assert not is_period_pair(7, 7, 3)  # r | N
    assert not is_period_pair(2, 8, 7)  # r not prime
    assert not is_period_pair(2, 7, 6)  # q not prime
    assert not is_period_pair(2, 7, 1)
    assert not is_period_pair(2, 7, 2)  # 2^3 = 1 mod 7: order 1, not 2


def test_is_period_pair_against_brute_force_order():
    rng = random.Random(30)
    for _ in range(400):
        n = rng.randint(2, 10**6)
        r = rng.choice([r for r in range(3, 200) if is_small_prime(r)])
        divisors = [q for q in range(2, r) if (r - 1) % q == 0 and is_small_prime(q)]
        if not divisors:
            continue
        q = rng.choice(divisors)
        expected = (
            n % r != 0
            and multiplicative_order(pow(n, (r - 1) // q, r), r) == q
            if n % r
            else False
        )
        assert is_period_pair(n, r, q) == expected


def test_find_period_system_example_n2_d15():
    system = find_period_system(2, 15)
    assert system is not None
    assert system.degree == 15
    assert 15 <= system.degree < 30
    assert set(system.pairs) == {PeriodPair(7, 3), PeriodPair(11, 5)}


def test_find_period_system_small_window():
    system = find_period_system(2, 2)
    assert system is not None
    assert 2 <= system.degree < 4
    for pair in system.pairs:
        assert is_period_pair(2, pair.r, pair.q)


def test_find_period_system_none_when_bounds_exclude():
    # 64 = 8^2 = 4^3 is a square and a cube mod every r, so no q < 2D = 4
    # makes a period pair
    assert find_period_system(64, 2) is None


def test_found_systems_validate():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(10**3, 10**7) | 1
        d = rng.choice([4, 6, 8, 12, 16, 24, 32])
        system = find_period_system(n, d)
        if system is None:
            continue
        assert d <= system.degree < 2 * d
        assert system.degree == system_degree(system)
        qs = [p.q for p in system.pairs]
        assert len(set(qs)) == len(qs)
        for pair in system.pairs:
            assert is_period_pair(n, pair.r, pair.q)


def test_search_is_deterministic():
    for n, d in ((12345, 8), (97, 4), (10**6 + 3, 16)):
        assert find_period_system(n, d) == find_period_system(n, d)


def test_smallest_r_is_kept():
    system = find_period_system(2, 15)
    for pair in system.pairs:
        for r in range(3, pair.r):
            assert not is_period_pair(2, r, pair.q) or r == pair.r


def test_system_degree_empty_and_singleton():
    assert system_degree(PeriodSystem((), 1)) == 1
    assert system_degree(PeriodSystem((PeriodPair(7, 3),), 3)) == 3
    assert system_degree(
        PeriodSystem((PeriodPair(7, 3), PeriodPair(11, 5)), 15)) == 15


def test_validation_errors():
    with pytest.raises(ValueError):
        find_period_system(1, 4)
    with pytest.raises(ValueError):
        find_period_system(5, 1)
