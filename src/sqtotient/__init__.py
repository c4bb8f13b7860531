"""Exact counting of tuples with invertible sums of squares modulo n.

phi_k(n) counts the k-tuples over Z/nZ whose square sum is a unit; it
generalizes Euler's totient (k = 1) and, at k = 2, 4, 8, counts the units
of the Gaussian-integer, quaternion and octonion rings over Z/nZ. The
companion rho(k, lam, n) counts tuples with square sum in one residue
class. Everything is exact integer arithmetic with enumeration oracles,
plus high-precision asymptotic constants carrying certified error bounds.
"""

from .averaging import (
    ConvolutionReport,
    averaging_report,
    convolution_check,
    corollary_constant,
    euler_constant,
    g_k_table,
    minimal_order_scan,
    partial_sum,
    phi_k_table,
)
from .core_arith import (
    Factorization,
    build_spf,
    divisor_count,
    euler_phi,
    factorize,
    is_prime,
    jordan_totient,
)
from .menon import (
    menon_classic,
    menon_lhs,
    menon_lhs_brute,
    psi_multiplicativity_scan,
    psi_table,
)
from .phi import (
    phi_k,
    phi_k_brute,
    phi_k_prime_power,
    phi_k_via_jordan,
    phi_k_via_rho,
    phi_ratio_check,
)
from .rho import (
    DEFAULT_GUARD,
    BudgetExceededError,
    closed_form_rho2,
    closed_form_rho4,
    rho,
    rho_base_vector,
    rho_brute,
    rho_odd_prime,
    sum_of_squares_census,
    trig_closed_form_rho8,
)
from .verify import SUITES, Check, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Check",
    "ConvolutionReport",
    "DEFAULT_GUARD",
    "Factorization",
    "SUITES",
    "SuiteResult",
    "averaging_report",
    "build_spf",
    "closed_form_rho2",
    "closed_form_rho4",
    "convolution_check",
    "corollary_constant",
    "divisor_count",
    "euler_constant",
    "euler_phi",
    "factorize",
    "g_k_table",
    "is_prime",
    "jordan_totient",
    "menon_classic",
    "menon_lhs",
    "menon_lhs_brute",
    "minimal_order_scan",
    "partial_sum",
    "phi_k",
    "phi_k_brute",
    "phi_k_prime_power",
    "phi_k_table",
    "phi_k_via_jordan",
    "phi_k_via_rho",
    "phi_ratio_check",
    "psi_multiplicativity_scan",
    "psi_table",
    "rho",
    "rho_base_vector",
    "rho_brute",
    "rho_odd_prime",
    "run_suite",
    "sum_of_squares_census",
    "trig_closed_form_rho8",
]
