"""Las Vegas ECDLP attack toolkit.

Reduces the elliptic curve discrete logarithm problem to finding a vector
with many zero coordinates in the left kernel of a small matrix over F_q,
and ships the exact linear algebra, solvers, probability model, and
verification harness needed to run and empirically test the reduction at
desk scale.
"""

from .analysis import (
    ParameterChoice,
    ProbabilityModel,
    audit_partition_counts,
    partition_count_formula,
    partition_count_oracle,
    per_iteration_success,
    select_parameters,
    success_model,
)
from .attack import (
    AttackConfig,
    AttackOutcome,
    IterationRecord,
    IterationSample,
    SOLVER_CHOICES,
    Trial,
    decode_solution,
    detect_accident,
    planted_trials,
    run_attack,
    sample_iteration,
)
from .curve import Curve, GroupSpec, find_prime_order_curve
from .dlp import solve_bsgs
from .errors import BudgetExceededError, InvariantViolationError
from .field import PrimeField, is_prime
from .linalg import KernelBasis, eliminate_block, left_kernel
from .problem_l import solve_alg2, solve_exhaustive
from .veronese import MonomialBasis, basis

__version__ = "0.1.0"
