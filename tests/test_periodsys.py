import itertools
import math
import random
import tracemalloc

import pytest

import abprime.periodsys as periodsys
from abprime import (
    PeriodPair,
    find_period_system,
    is_period_pair,
    multiplicative_order,
    system_degree,
)
from abprime.intarith import factorize, strong_probable_prime
from abprime.periodsys import (
    PSI_12,
    R_CAP,
    PeriodSystem,
    _smallest_system,
    is_small_prime,
    primes_below,
)

# pipeline-c2's primes (perfbench/workloads.py, seeds 1-10) and default
# isprime's bench primes of 12 to 64 bits (scripts/bench_pipeline.py)
PIPELINE_C2_PRIMES = (
    457, 983, 3499, 4327, 9619, 353, 709, 2081, 6563, 15443, 347, 641, 3299,
    7193, 10799, 379, 977, 2237, 6689, 14347, 419, 967, 3989, 6947, 8663, 503,
    1009, 2557, 5591, 12041, 383, 719, 4001, 5011, 11743, 263, 613, 3037, 5743,
    9403, 439, 587, 3793, 5807, 11863, 509, 929, 3217, 4493, 13309,
)
BENCH_PIPELINE_PRIMES = (
    3967, 5279, 13187, 22973, 63389, 105071, 164767, 280627, 525671, 1729391,
    2937553, 4967041, 13029407, 28652269, 40737217, 71118809, 175950767,
    319383367, 554421001, 1413153701, 2537562551, 7111428047, 13920864583,
    28275820669, 41515770391, 104957859497, 270179675429, 376723353889,
    566917851163, 1189623542743, 3830439914831, 6347042334229, 13716939432107,
    21807195019087, 62560273033351, 112881131169091, 171809559391159,
    531122215775617, 869890828921567, 1870268522281433, 2521951004103829,
    7472691586546793, 17690470182338069, 26389916572447507, 61287893347276481,
    127267195311317681, 217522023304179703, 307583309038089131,
    820980577081200967, 2240012127532507183, 3821818730509654519,
    6910683235813323331, 13491093241227964771,
)


def trial_division_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def trial_division_period_system(n: int, degree_target: int):
    """Oracle: the search loop before the sieve, r and q certified by trial
    division and the order test written out."""
    best_r: dict[int, int] = {}
    for r in range(3, max(64, 16 * degree_target)):
        if not trial_division_prime(r) or n % r == 0:
            continue
        for q, _ in factorize(r - 1):
            if q < 2 * degree_target and q not in best_r:
                y = pow(n, (r - 1) // q, r)
                if y != 1 and pow(y, q, r) == 1:
                    best_r[q] = r
    return _smallest_system(best_r, degree_target)


def test_is_small_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_small_prime(n) == (n in primes)


def test_is_small_prime_matches_trial_division(monkeypatch):
    for n in range(2 * 10**5):
        assert is_small_prime(n) == trial_division_prime(n), n
    # the progressions p = 1 (mod r) above 2^24 that period_polynomial walks
    for r in (61, 397, 1301):
        p = (1 << 24) // r * r + 1
        for _ in range(3000):
            p += r
            assert is_small_prime(p) == trial_division_prime(p), p
    # strong pseudoprimes to the first 4, 5, 6, 8 and 11 prime bases
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051):
        assert not is_small_prime(n), n
    n = 3825123056546413051
    assert all(strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert not strong_probable_prime(n, 37)
    assert is_small_prime(2**61 - 1)
    assert not is_small_prime(2**67 - 1)
    # PSI_12 passes all twelve bases, so it must go to trial division
    calls = []

    def recorded(n):
        calls.append(n)
        return [(399165290221, 1), (798330580441, 1)]

    monkeypatch.setattr(periodsys, "factorize", recorded)
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_small_prime(PSI_12)
    assert calls == [PSI_12]


def test_primes_below_matches_is_small_prime():
    cap = 3 * periodsys._SEGMENT + 7
    assert list(primes_below(cap)) == [n for n in range(cap) if is_small_prime(n)]
    for cap in range(12):
        assert list(primes_below(cap)) == [n for n in range(cap) if is_small_prime(n)]


def test_primes_below_memory_does_not_grow_with_the_cap():
    tracemalloc.start()
    try:
        primes = primes_below(16 * 10**8)
        for _, p in zip(range(10**5), primes):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p == 1299709  # the 100,000th prime
    assert peak < 2 * 2**20, peak


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


def test_find_period_system_matches_trial_division_search():
    rng = random.Random(32)
    cases = [(rng.randint(2, 10**12), d) for d in range(2, 40)]
    cases += [(rng.randint(2, 10**12), rng.randint(40, 4000)) for _ in range(8)]
    cases += [(n, (n.bit_length() - 1) ** 2)  # floor_log2(n)^2, as c = 2 sets it
              for n in PIPELINE_C2_PRIMES + BENCH_PIPELINE_PRIMES]
    for n, d in cases:
        assert find_period_system(n, d) == trial_division_period_system(n, d), (n, d)


def least_degree_by_subsets(best_r, degree_target):
    """Oracle for _smallest_system's rule: every subset of q's, keyed by
    (degree, ascending q-list), first among the pairs with r <= R_CAP."""
    def least(table):
        qs = sorted(table)
        fits = [(math.prod(c), c) for k in range(1, len(qs) + 1)
                for c in itertools.combinations(qs, k)
                if degree_target <= math.prod(c) < 2 * degree_target]
        if not fits:
            return None
        degree, chosen = min(fits)
        return PeriodSystem(tuple(PeriodPair(table[q], q) for q in chosen), degree)

    return least({q: r for q, r in best_r.items() if r <= R_CAP}) or least(best_r)


def test_smallest_system_prefers_pairs_within_the_cap():
    # (313, 13) has the least degree in [12, 24), but r = 313 > R_CAP, so
    # the least capped system, 2 * 7 = 14, wins
    best_r = {2: 3, 3: 7, 5: 11, 7: 29, 13: 313}
    assert _smallest_system(best_r, 12) == PeriodSystem(
        (PeriodPair(3, 2), PeriodPair(29, 7)), 14)
    # with no capped system in the window, the least degree overall is kept
    assert _smallest_system({2: 3, 13: 313}, 12) == PeriodSystem(
        (PeriodPair(313, 13),), 13)
    assert _smallest_system({2: 3, 3: 7, 13: 313, 17: 409}, 12) == PeriodSystem(
        (PeriodPair(313, 13),), 13)
    assert _smallest_system({2: 3, 13: 313}, 100) is None
    # the pair at the cap itself counts as capped
    assert R_CAP == 256
    assert _smallest_system({3: 7, 13: 313, 17: R_CAP}, 12) == PeriodSystem(
        (PeriodPair(R_CAP, 17),), 17)
    # equal degrees go to the lexicographically least q-list, in the capped
    # part as in the fallback (a real table holds prime q's, whose products
    # never tie; 6 stands in for a composite key here)
    assert _smallest_system({2: 3, 3: 7, 6: 13}, 5) == PeriodSystem(
        (PeriodPair(3, 2), PeriodPair(7, 3)), 6)
    assert _smallest_system({2: 300, 3: 700, 6: 1300}, 5) == PeriodSystem(
        (PeriodPair(300, 2), PeriodPair(700, 3)), 6)


def test_smallest_system_matches_subset_oracle():
    rng = random.Random(33)
    qs = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for _ in range(300):
        best_r = {q: rng.choice([rng.randint(3, R_CAP), rng.randint(R_CAP + 1, 4000)])
                  for q in rng.sample(qs, rng.randint(1, 8))}
        d = rng.randint(2, 400)
        assert _smallest_system(best_r, d) == least_degree_by_subsets(best_r, d), (best_r, d)


def test_capped_systems_of_pipeline_primes():
    # systems that the least degree alone would take with r > R_CAP
    assert find_period_system(3499, 121) == PeriodSystem(
        (PeriodPair(13, 3), PeriodPair(83, 41)), 123)  # was (7, 2) (367, 61), 122
    assert find_period_system(22973, 196) == PeriodSystem(
        (PeriodPair(29, 7), PeriodPair(59, 29)), 203)  # was (797, 199), 199
    # the 75-bit bench prime, which (76679, 5477) kept out of reach
    assert find_period_system(26324174142146632047871, 5476) == PeriodSystem(
        (PeriodPair(19, 2), PeriodPair(13, 3), PeriodPair(67, 11), PeriodPair(167, 83)),
        5478)


def test_search_stops_past_the_cap_once_a_capped_system_exists(monkeypatch):
    drawn = []

    def recorded(limit):
        for r in primes_below(limit):
            drawn.append(r)
            yield r

    monkeypatch.setattr(periodsys, "primes_below", recorded)
    find_period_system(3499, 121)
    assert drawn[-1] == 257  # the first prime past R_CAP, of those below 1936
    # 2^30030 is a q-th power for every q <= 13, so no capped product lands
    # in [128, 256) and every prime q there needs r >= 2q + 1 > R_CAP: the
    # scan runs to its end and falls back to the least degree
    drawn.clear()
    assert find_period_system(2**30030, 128) == PeriodSystem((PeriodPair(263, 131),), 131)
    assert drawn == list(primes_below(16 * 128))


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
