"""Committee elections with constraints: exact scoring rules, Global and
Local solvers, and brute-force verifiers for core-style stability notions,
all in exact rational (or quadratic-irrational) arithmetic."""

__version__ = "0.1.0"

from .constraints import (
    CardinalityFamily,
    CoveringFamily,
    ExplicitFamily,
    FeasibilityFamily,
    MatroidOracleFamily,
    PackingFamily,
    PartitionMatroidFamily,
    basis_exchange_bijection,
    extend_to_basis,
    is_basis,
    is_feasible,
    is_q_completable,
    verify_matroid_axioms,
)
from .exactnum import Quad, parse_rational, rational_to_json
from .lb_search import lb1_emptiness_search, verify_passing_class
from .instances import (
    endow2_bound,
    gen_lb00,
    gen_lb_16_15,
    gen_rest1,
    gen_tight_2alpha,
    gen_xos_example,
    lb1_deviation,
    lb1_undersupplied_voter_deviation,
    random_instance,
    random_utility,
    rng_from_seed,
)
from .model import (
    AdditiveUtility,
    ApprovalUtility,
    Committee,
    CoverageUtility,
    Instance,
    LB00Utility,
    RationalUtility,
    TableUtility,
    UtilityFunction,
    XOSUtility,
    check_axioms,
    check_submodular,
    evaluate,
    gain_threshold,
    self_bounding_constant,
)
from .sampling import (
    endow2_reduction_experiment,
    exact_sample_expectation,
    mc_lower_tail,
    verify_sampling_bound,
)
from .scoring import Score, delta_star, harmonic, marginal_add, marginal_remove, phi, score
from .serialize import (
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .solvers import SolverConfig, SolveResult, solve_global, solve_local
from .verifiers import (
    VerificationReport,
    blocks_core,
    blocks_endowment,
    blocks_pb_core,
    blocks_restrained_core,
    blocks_restrained_ejr,
    check_core,
    check_endowment_core,
    check_pb_core,
    check_restrained_core,
    check_restrained_ejr,
)
