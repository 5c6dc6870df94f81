"""abprime: randomized polynomial-identity primality testing.

A library and CLI for the Miller-Rabin test, a polynomial-identity test
that checks (h+1)^N = h^N + 1 in (Z/NZ[x])/(f) for random h, their
combination, and the deterministic construction (through period systems
and Gaussian-period pseudofields) of defining polynomials f that are
irreducible modulo every prime factor of N -- plus exhaustive censuses
that measure the exact error fractions the analysis bounds.
"""

from .census import (
    BoundViolation,
    CensusReport,
    DeskLimitError,
    ab_failure_census_mod_N,
    ab_failure_census_mod_p,
    factorize_desk,
    heuristic_class_scan,
    mr_nonwitness_census,
    root_count_in_extension,
)
from .instrument import OpCounter, count_operations
from .intarith import (
    FactorFound,
    Inverse,
    decompose_two_power,
    floor_log2,
    gcd,
    mod_pow,
    try_invert,
)
from .periodsys import (
    PeriodPair,
    PeriodSystem,
    find_period_system,
    is_period_pair,
    multiplicative_order,
    system_degree,
)
from .polyring import (
    ModPoly,
    NonUnit,
    Unit,
    poly_is_unit_mod,
    poly_mul_mod,
    poly_pow_mod,
    poly_pow_mod_many,
    random_poly,
)
from .primality import (
    ABPolynomial,
    ConstructionFailure,
    Divisor,
    MRWitness,
    Outcome,
    PipelineConfig,
    Verdict,
    ab_test,
    combined_test,
    full_pipeline,
    miller_rabin,
    miller_rabin_round,
    trial_division_stage,
)
from .pseudofield import (
    AxiomReport,
    Constructed,
    CyclotomicAut,
    CyclotomicElt,
    Pseudofield,
    TensorDependency,
    construct_poly_pipeline,
    cyc_apply_aut,
    frobenius_index_mod_p,
    gaussian_period,
    is_irreducible_mod_p,
    period_polynomial,
    pseudofield_from_period_pair,
    tensor_product,
    verify_axioms,
)

__version__ = "0.1.0"
