"""Every numerical tolerance of the package, with the check each one guards.

The modules that apply a check import its constant from here, so each value
is set in exactly one place.
"""

#: Input gate: a state must have norm within this of 1.
NORM_TOL = 1e-8
#: Outcomes less probable than this cannot be collapsed onto or conditioned on.
REDUCTION_EPS = 1e-12
#: Audit verdict: the analytic receiver probability may miss 1/2 by this much.
ANALYTIC_TOL = 1e-12
#: A transfer matrix is lossless when ``M^dag M - I`` is within this of 0.
ISOMETRY_TOL = 1e-12
#: A Gaussian packet may lose at most this probability mass off its grid.
TRUNCATION_TOL = 1e-6
