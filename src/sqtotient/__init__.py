"""Exact counting of tuples with invertible sums of squares modulo n.

phi_k(n) counts the k-tuples over Z/nZ whose square sum is a unit; it
generalizes Euler's totient (k = 1) and, at k = 2, 4, 8, counts the units
of the Gaussian-integer, quaternion and octonion rings over Z/nZ. The
companion rho(k, lam, n) counts tuples with square sum in one residue
class. Everything is exact integer arithmetic with enumeration oracles,
plus high-precision asymptotic constants carrying certified error bounds.

The package exports the names the README documents. The enumeration
oracles and cross-checks (phi_k_brute, rho_brute, the trigonometric closed
forms, Factorization, the verify types, ...) stay importable from their
modules.
"""

from .averaging import (
    corollary_constant,
    euler_constant,
    g_k_table,
    minimal_order_scan,
    phi_k_table,
)
from .core_arith import BudgetExceededError, build_spf, factorize
from .menon import menon_classic, menon_lhs, psi_multiplicativity_scan, psi_table
from .phi import phi_k
from .rho import rho, rho_base_vector, sum_of_squares_census
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "build_spf",
    "corollary_constant",
    "euler_constant",
    "factorize",
    "g_k_table",
    "menon_classic",
    "menon_lhs",
    "minimal_order_scan",
    "phi_k",
    "phi_k_table",
    "psi_multiplicativity_scan",
    "psi_table",
    "rho",
    "rho_base_vector",
    "run_suite",
    "sum_of_squares_census",
]
