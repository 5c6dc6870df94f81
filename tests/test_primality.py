import random

import pytest

from abprime import (
    ABPolynomial,
    ConstructionFailure,
    Divisor,
    MRWitness,
    ModPoly,
    Outcome,
    PipelineConfig,
    ab_test,
    combined_test,
    count_operations,
    full_pipeline,
    miller_rabin,
    miller_rabin_round,
    poly_pow_mod,
    trial_division_stage,
)


def sieve_primes(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(flags[i * i:: i])
    return [i for i in range(n + 1) if flags[i]]


PRIMES_500 = sieve_primes(500)


def test_trial_division_stage():
    assert trial_division_stage(15) == 3
    assert trial_division_stage(25) is None  # 5 > floor_log2(25) = 4
    assert trial_division_stage(97) is None
    assert trial_division_stage(2) is None
    with pytest.raises(ValueError):
        trial_division_stage(1)


def test_miller_rabin_round_341():
    # 2^85 = 32 mod 341, squares to 1: neither condition holds
    assert pow(2, 85, 341) == 32
    assert pow(2, 170, 341) == 1
    assert miller_rabin_round(341, 2) is False
    assert miller_rabin_round(341, 1) is True


def test_miller_rabin_round_counts_squarings():
    # mod_pow(a, t, n) plus one multiplication per squaring of the round
    for n, a, mults in [(341, 2, 11), (97, 5, 6), (561, 5, 11)]:
        with count_operations() as ops:
            miller_rabin_round(n, a)
        assert ops.int_mults == mults, (n, a)


def test_miller_rabin_round_complete_on_prime():
    assert all(miller_rabin_round(97, a) for a in range(1, 97))


def test_miller_rabin_round_validation():
    with pytest.raises(ValueError):
        miller_rabin_round(10, 3)
    with pytest.raises(ValueError):
        miller_rabin_round(341, 0)


def test_miller_rabin_verdicts():
    assert miller_rabin(2, 5, 0).outcome is Outcome.PRIME
    v = miller_rabin(10, 5, 0)
    assert v.outcome is Outcome.COMPOSITE and v.evidence == Divisor(2)
    v = miller_rabin(341, 20, 0)
    assert v.outcome is Outcome.COMPOSITE
    assert isinstance(v.evidence, MRWitness)
    assert not miller_rabin_round(341, v.evidence.a)


def test_miller_rabin_completeness_small():
    for p in PRIMES_500:
        if p > 2:
            assert miller_rabin(p, 3, 42).outcome is Outcome.PRIME


def test_ab_test_prime_and_trivial_composite():
    f = ModPoly(7, [1, 0, 1])
    for seed in range(10):
        assert ab_test(7, f, seed).outcome is Outcome.PRIME
    v = ab_test(15, ModPoly(15, [1, 1, 1]), 0)
    assert v.outcome is Outcome.COMPOSITE and v.evidence == Divisor(3)


def test_ab_test_validation():
    with pytest.raises(ValueError):
        ab_test(7, ModPoly(5, [1, 0, 1]), 0)  # wrong modulus
    with pytest.raises(ValueError):
        ab_test(7, ModPoly(7, [1, 2]), 0)  # not monic
    with pytest.raises(ValueError):
        ab_test(3, ModPoly(3, [0] * 3 + [1]), 0)  # deg f >= n


def test_ab_evidence_rechecks():
    # evidence h must actually break the identity when recomputed
    rng = random.Random(20)
    found = 0
    for _ in range(200):
        n = rng.choice([91, 341, 561, 703, 1105])
        f = ModPoly(n, [rng.randrange(n), rng.randrange(n), 1])
        v = ab_test(n, f, rng.getrandbits(32))
        if isinstance(v.evidence, ABPolynomial):
            h = v.evidence.h
            lhs = poly_pow_mod(h.add_constant(1), n, f)
            rhs = poly_pow_mod(h, n, f).add_constant(1)
            assert lhs != rhs
            found += 1
    assert found > 100


def test_ab_multiplication_budget():
    rng = random.Random(21)
    for n in (97, 341, 1009, 10007):
        f = ModPoly(n, [rng.randrange(n), rng.randrange(n), rng.randrange(n), 1])
        with count_operations() as ops:
            ab_test(n, f, 7)
        assert ops.poly_mults <= 4 * n.bit_length() + 8


def test_combined_rounds_and_determinism():
    f = ModPoly(97, [5, 1, 0, 1])
    v1 = combined_test(97, f, 123)
    v2 = combined_test(97, f, 123)
    assert v1 == v2
    assert v1.outcome is Outcome.PRIME
    assert v1.rounds_used == f.degree
    v = combined_test(10, ModPoly(10, [1, 0, 1]), 0)
    assert v.outcome is Outcome.COMPOSITE and v.evidence == Divisor(2)
    assert v.rounds_used == 1


def test_combined_completeness_small():
    for p in PRIMES_500:
        if p <= 3:
            continue
        f = ModPoly(p, [1, 1, 1])
        assert combined_test(p, f, p).outcome is Outcome.PRIME


def test_combined_composite_evidence_rechecks():
    rng = random.Random(22)
    for n in (341, 561, 1105, 8911):
        f = ModPoly(n, [3, 0, 1, 1])
        for _ in range(30):
            v = combined_test(n, f, rng.getrandbits(32))
            assert v.outcome is Outcome.COMPOSITE
            if isinstance(v.evidence, MRWitness):
                assert not miller_rabin_round(n, v.evidence.a)
                assert 1 <= v.rounds_used <= f.degree
            elif isinstance(v.evidence, Divisor):
                assert n % v.evidence.d == 0


def test_combined_matches_miller_rabin_when_composite():
    # combined_test runs the same seeded rounds as miller_rabin(n, deg f, seed)
    for n in (341, 561, 1105, 8911, 2047):
        for deg in (1, 3, 6):
            f = ModPoly(n, [3] * deg + [1])
            for seed in range(50):
                mr = miller_rabin(n, deg, seed)
                if mr.outcome is Outcome.COMPOSITE:
                    assert combined_test(n, f, seed) == mr, (n, deg, seed)


def test_full_pipeline_prime():
    cfg = PipelineConfig(degree_override=4)
    v = full_pipeline(97, cfg, 0)
    assert v.outcome is Outcome.PRIME
    assert full_pipeline(2, cfg, 0).outcome is Outcome.PRIME
    v = full_pipeline(100, cfg, 0)
    assert v.outcome is Outcome.COMPOSITE and v.evidence == Divisor(2)


def test_full_pipeline_composite_341():
    cfg = PipelineConfig(degree_override=6)
    for seed in range(10):
        assert full_pipeline(341, cfg, seed).outcome is Outcome.COMPOSITE


def test_full_pipeline_unknown_on_hopeless_size():
    # N <= 2D: construction impossible; the fail policy reports UNKNOWN
    cfg = PipelineConfig(degree_override=8, fallback_policy="fail")
    v = full_pipeline(9, cfg, 0)
    assert v.outcome is Outcome.UNKNOWN
    assert isinstance(v.evidence, ConstructionFailure)


def test_full_pipeline_weak_fallback():
    cfg = PipelineConfig(degree_override=8, fallback_policy="weak_random_f")
    v = full_pipeline(9, cfg, 0)
    assert v.outcome is Outcome.COMPOSITE
    # prime with impossible construction: weak fallback still says PRIME but
    # flags the missing constructed-f guarantee
    v = full_pipeline(13, PipelineConfig(degree_override=7,
                                         fallback_policy="weak_random_f"), 1)
    assert v.outcome is Outcome.PRIME
    assert isinstance(v.evidence, ConstructionFailure)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(degree_override=1)
    with pytest.raises(ValueError):
        PipelineConfig(fallback_policy="nope")
    from fractions import Fraction
    with pytest.raises(ValueError):
        PipelineConfig(c=Fraction(0))


def test_verdict_determinism_across_tests():
    f = ModPoly(341, [1, 0, 0, 1])
    for seed in (0, 1, 99):
        assert ab_test(341, f, seed) == ab_test(341, f, seed)
        assert miller_rabin(341, 5, seed) == miller_rabin(341, 5, seed)
