"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
[PASS]/[FAIL] line (run with -s to see them on success).  Expected values
asserted here are either exhaustively recomputed by the test itself or were
computed once with an independent oracle and frozen.
"""
import contextlib
import itertools
import math
import random
from fractions import Fraction

from abprime import (
    ABPolynomial,
    Constructed,
    ModPoly,
    Outcome,
    ab_failure_census_mod_p,
    ab_test,
    combined_test,
    construct_poly_pipeline,
    count_operations,
    factorize_desk,
    frobenius_index_mod_p,
    heuristic_class_scan,
    is_irreducible_mod_p,
    is_period_pair,
    miller_rabin,
    miller_rabin_round,
    mod_pow,
    mr_nonwitness_census,
    period_polynomial,
    root_count_in_extension,
    verify_axioms,
)
from abprime.cli import main as cli_main
from abprime.intarith import decompose_two_power
from cyclotomic_oracle import gaussian_period, min_poly_mod_prime


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(flags[i * i:: i])
    return flags


FLAGS_10K = sieve(10**4)
PRIMES_10K = [i for i, f in enumerate(FLAGS_10K) if f]


def test_criterion_1_completeness():
    """Every prime below 10^4 is called PRIME by all three tests."""
    with criterion("criterion 1: completeness on all primes < 10^4"):
        for p in PRIMES_10K:
            for seed in range(20):
                assert miller_rabin(p, 1, seed).outcome is Outcome.PRIME, p
            for deg in (2, 3, 4):
                if deg >= p:
                    continue  # the tests need deg f < N
                f = ModPoly(p, [1] * deg + [1])
                for seed in range(5):
                    assert ab_test(p, f, seed).outcome is Outcome.PRIME, (p, deg)
            f = ModPoly(p, [1, 1, 0, 1]) if p > 3 else ModPoly(p, [1, 1])
            for seed in range(3):
                v = combined_test(p, f, seed)
                assert v.outcome is Outcome.PRIME, p
                assert v.rounds_used == f.degree


def test_criterion_2_mr_bound_suite():
    """Exhaustive nonwitness fractions below both proven bounds."""
    with criterion("criterion 2: MR census bounds on all odd composites < 10^4"):
        pins = {9: (2, 8), 15: (2, 14), 341: (50, 340)}
        for n in range(9, 10**4, 2):
            if FLAGS_10K[n]:
                continue
            rep = mr_nonwitness_census(n)
            assert rep.fraction <= Fraction(1, 4), n
            group = Fraction(1, 2 ** (len(rep.factorization) - 1))
            for p, e in rep.factorization:
                group /= p ** (e - 1)
            assert rep.fraction <= group, n
            if n in pins:
                assert (rep.failing, rep.total) == pins[n], n


def first_irreducibles(p, d, count=3):
    out = []
    for tail in itertools.product(range(p), repeat=d):
        f = ModPoly(p, list(tail) + [1])
        if is_irreducible_mod_p(f, p):
            out.append(f)
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} irreducibles of degree {d} mod {p}")


def test_criterion_3_schwartz_zippel_equality():
    """Identity-failure census equals the extension-field root count."""
    with criterion("criterion 3: census/root-count equality, fraction < N/p^d"):
        for p in (3, 5, 7, 11):
            for d in (2, 3):
                fs = first_irreducibles(p, d)
                for n in range(2 * p, 500, p):
                    # prime powers of p make g vanish mod p (out of the
                    # proposition's nonzero-g hypothesis)
                    m = n
                    while m % p == 0:
                        m //= p
                    if m == 1:
                        continue
                    for f in fs:
                        failing = ab_failure_census_mod_p(n, p, f).failing
                        roots = root_count_in_extension(n, p, f)
                        assert failing == roots, (n, p, f)
                        assert Fraction(failing, p**d) < Fraction(n, p**d), \
                            (n, p, f)


def test_criterion_4_gaussian_period_pins():
    """Classical period polynomials for 10 random moduli coprime to 35."""
    with criterion("criterion 4: period polynomial pins f_{5,2}, f_{7,2}"):
        rng = random.Random(452)
        picked = 0
        while picked < 10:
            n = rng.randint(2, 10**12)
            if math.gcd(n, 35) != 1:
                continue
            picked += 1
            assert period_polynomial(5, 2, n) == ModPoly(n, [n - 1, 1, 1])
            assert period_polynomial(7, 2, n) == ModPoly(n, [2, 1, 1])
        # cross-check against the minimal polynomial over prime fields
        for r, q, p in [(5, 2, 13), (7, 2, 11), (7, 2, 13)]:
            eta = gaussian_period(r, q, p)
            assert period_polynomial(r, q, p) == min_poly_mod_prime(eta, p, q)


# 20 odd composites in [1e3, 1e9] whose period system (target degree D in
# [4, 32]) was found, constructed, and has every pair valid for every prime
# factor -- the hypothesis under which the construction provably yields a
# field mod p.  Generated deterministically from a fixed prime pool; the
# first five exercise the tensor (multi-pair) path.
CONSTRUCTION_MATRIX = [
    (5385161, 15),    # 2111*2551, deg 15, pairs (7,3),(31,5)
    (46625599, 15),   # 6607*7057, deg 15, pairs (13,3),(11,5)
    (108757361, 15),  # 10211*10651, deg 15, pairs (13,3),(11,5)
    (223063793, 15),  # 14713*15161, deg 15, pairs (13,3),(11,5)
    (343271857, 15),  # 18301*18757, deg 15, pairs (7,3),(11,5)
    (230557, 12),     # 307*751, deg 13
    (1990057, 5),     # 1201*1657, deg 5
    (10374457, 4),    # 3001*3457, deg 5
    (17022799, 12),   # 3907*4357, deg 13
    (25258061, 4),    # 4801*5261, deg 5
    (35066851, 4),    # 5701*6151, deg 5
    (59688157, 16),   # 7507*7951, deg 17
    (74600759, 4),    # 8419*8861, deg 5
    (90940537, 12),   # 9311*9767, deg 13
    (128366263, 28),  # 11113*11551, deg 29
    (149499157, 12),  # 12007*12451, deg 13
    (172527869, 4),   # 12907*13367, deg 5
    (196763557, 5),   # 13807*14251, deg 5
    (250505257, 4),   # 15601*16057, deg 5
    (280211797, 12),  # 16519*16963, deg 13
]


def test_criterion_5_construction_suite():
    """Constructed polynomials: degree window, axioms, per-factor fields."""
    with criterion("criterion 5: 20-composite construction suite"):
        assert len(CONSTRUCTION_MATRIX) == 20
        tensor_cases = 0
        for n, d_target in CONSTRUCTION_MATRIX:
            assert 10**3 <= n <= 10**9 and n % 2 == 1
            assert 4 <= d_target <= 32
            result = construct_poly_pipeline(n, d_target)
            assert isinstance(result, Constructed), (n, d_target)
            assert d_target <= result.f.degree < 2 * d_target, (n, d_target)
            factors = factorize_desk(n)
            assert len(factors) > 1 or factors[0][1] > 1  # composite
            primes = [p for p, _ in factors]
            for p in primes:
                for pair in result.system.pairs:
                    assert is_period_pair(p, pair.r, pair.q), (n, p, pair)
            report = verify_axioms(result.pseudofield)
            assert report.verdict == "verified", (n, d_target, report)
            if len(result.system.pairs) > 1:
                tensor_cases += 1
            for p in primes:
                assert is_irreducible_mod_p(result.f, p), (n, p)
                for pair in result.system.pairs:
                    from abprime import pseudofield_from_period_pair
                    factor_pf = pseudofield_from_period_pair(n, pair)
                    idx = frobenius_index_mod_p(factor_pf, p)
                    assert idx % pair.q != 0, (n, p, pair, idx)
        assert tensor_cases >= 5


def combined_failure_bound(n, deg, factors):
    r = len(factors)
    if deg >= r:
        return Fraction(1, 2 ** ((r - 1) * deg) * n ** (deg - r))
    return Fraction(n ** (r - deg), 2 ** ((r - 1) * deg))


def test_criterion_6_combined_soundness():
    """No false PRIME in 1000 seeded combined tests per qualifying composite."""
    with criterion("criterion 6: combined-test soundness on composites < 2000"):
        flags = sieve(2000)
        tested = 0
        for n in range(9, 2000, 2):
            if flags[n]:
                continue
            factors = factorize_desk(n)
            need = None
            for deg in range(2, 40):
                if combined_failure_bound(n, deg, factors) < Fraction(1, 10**6):
                    need = deg
                    break
            if need is None:
                continue
            chosen = None
            for d_target in range(need, need + 6):
                if n <= 2 * d_target:
                    break
                result = construct_poly_pipeline(n, d_target)
                if not isinstance(result, Constructed):
                    continue
                if combined_failure_bound(
                        n, result.f.degree, factors) >= Fraction(1, 10**6):
                    continue
                if all(is_irreducible_mod_p(result.f, p) for p, _ in factors):
                    chosen = result.f
                    break
            if chosen is None:
                continue
            assert chosen.degree >= 2
            tested += 1
            for seed in range(1000):
                v = combined_test(n, chosen, seed)
                assert v.outcome is Outcome.COMPOSITE, (n, seed)
        # the matrix must not be vacuous
        assert tested >= 300, tested
        print(f"  (criterion 6 matrix size: {tested} composites)")


def test_criterion_7_heuristic_class():
    """The (2k+1)(6k+1) family never beats its nonwitness lower bound."""
    with criterion("criterion 7: heuristic class scan k <= 25"):
        reports = heuristic_class_scan(25)
        assert len(reports) >= 3
        for rep in reports:
            p = rep.factorization[0][0]
            q = rep.factorization[1][0]
            lower = Fraction(1, 12) * Fraction(p - 1, p) * Fraction(q - 1, q)
            assert rep.fraction >= lower >= Fraction(1, 21), rep.subject
            s, t = decompose_two_power(rep.subject - 1)
            assert s == 2 and t == (rep.subject - 1) // 4, rep.subject


def test_criterion_8_runtime_shape():
    """Instrumented multiplication counts match the binary-method budget."""
    with criterion("criterion 8: instrumented operation counts"):
        rng = random.Random(88)
        for _ in range(200):
            m = rng.randint(2, 10**12)
            e = rng.randint(0, 10**12)
            with count_operations() as ops:
                mod_pow(rng.randrange(m), e, m)
            assert ops.int_mults <= 2 * e.bit_length()
        for n in (97, 10007, 104729):
            for deg in (2, 5, 15):
                f = ModPoly(n, [3] * deg + [1])
                with count_operations() as ops:
                    ab_test(n, f, 9)
                assert ops.poly_mults <= 4 * n.bit_length() + 8, (n, deg)
        for p in (101, 3163, 9973):
            for deg in (2, 4, 9):
                f = ModPoly(p, [1] * deg + [1])
                v = combined_test(p, f, 17)
                assert v.outcome is Outcome.PRIME
                assert v.rounds_used == deg, (p, deg)


def test_criterion_9_bench_artifact(capsys):
    """The benchmark emits a well-formed, positive CSV for 32/64/128 bits."""
    with criterion("criterion 9: bench CSV over bits 32, 64, 128"):
        code = cli_main(["bench", "--bits", "32,64,128", "--seed", "2a",
                         "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bits,T_mr,T_ab,R_mr,R_ab"
        assert len(lines) == 4
        seen = []
        for line in lines[1:]:
            bits_s, t_mr, t_ab, r_mr, r_ab = line.split(",")
            seen.append(int(bits_s))
            assert int(t_mr) > 0 and int(t_ab) > 0
            assert float(r_mr) > 0 and float(r_ab) > 0
        assert seen == [32, 64, 128]
