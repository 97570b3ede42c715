"""factprimes: the prime decomposition of n!, exactly and numerically.

Exact exponent computations (Legendre sums), aggregate exponent statistics
and their asymptotics, recomputation of the explicit bound constants,
machine verification of the bound theorems over ranges, and the minimal
square perfecter of n!.
"""

from .bounds import (ConstantEntry, ConstantsTable, ErrorTerms, RangeSummary,
                     compute_constants, default_constants, error_terms,
                     evaluate_theorem, kappa, log_spaced, resolve_theorem_id,
                     s1, s2, verify_range)
from .errors import (DomainError, FactprimesError, OutOfRangeError,
                     QuadratureError, ResourceLimitError, WorkerError)
from .perfecter import (BertrandCheck, PerfecterResult, ThetaClassed,
                        bertrand_equivalence, perfecter_bounds,
                        perfecter_factorial, squarefree_kernel, theta_classed)
from .primes import (PrimeTable, build_table, check_dusart_pi,
                     check_dusart_theta, nth_prime, pi, theta)
from .report import BoundReport
from .special_functions import (QuadratureSpec, exp_integral, integrate,
                                lambert_w, log_integral,
                                log_integral_expansion)
from .upsilon import (MeanLocation, UpsilonResult, lambert_w_index,
                      mean_location, mean_vs_Lth_prime, odd_exponent_primes,
                      upsilon, upsilon_range, upsilon_value)
from .valuation import (Valuation, ValuationProfile, digit_sum,
                        factorial_valuation_oracle, full_decomposition,
                        is_prime, legendre_valuation, omega, valuation_vector)

__version__ = "0.1.0"
