"""Certified evaluation of Robin's inequality and least-counterexample audits."""

__version__ = "0.1.0"

from .errors import (
    CandidateFormatError,
    DomainError,
    InvariantError,
    PrecisionError,
    ResourceBudgetError,
    RobinAuditError,
    TableTooSmallError,
)
from .intervals import (
    Comparison,
    IntervalScalar,
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    constants,
)
from .primes import PrimeTable, dusart_gap_holds
from .factored import (
    CandidateFactorization,
    big_g,
    g_ratio_divide,
    g_ratio_swap,
    log_n,
    materialize,
    n_over_phi,
    rho,
)
from .generators import (
    ca_candidate,
    ca_sweep,
    robin_exceptions,
    superabundant_up_to,
    verify_range,
)
from .audit import (
    CHECK_IDS,
    AuditReport,
    NormalizationResult,
    Verdict,
    compute_l,
    compute_m,
    compute_u,
    full_audit,
    normalize,
    run_check,
)

__all__ = [
    "AuditReport",
    "CHECK_IDS",
    "CandidateFactorization",
    "CandidateFormatError",
    "Comparison",
    "DEFAULT_PRECISION_BITS",
    "DomainError",
    "IntervalScalar",
    "InvariantError",
    "MIN_PRECISION_BITS",
    "NormalizationResult",
    "PrecisionError",
    "PrimeTable",
    "ResourceBudgetError",
    "RobinAuditError",
    "TableTooSmallError",
    "Verdict",
    "__version__",
    "big_g",
    "ca_candidate",
    "ca_sweep",
    "compute_l",
    "compute_m",
    "compute_u",
    "constants",
    "dusart_gap_holds",
    "full_audit",
    "g_ratio_divide",
    "g_ratio_swap",
    "log_n",
    "materialize",
    "n_over_phi",
    "normalize",
    "rho",
    "robin_exceptions",
    "run_check",
    "superabundant_up_to",
    "verify_range",
]
