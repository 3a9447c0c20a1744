"""The package's four numerical tolerances, with the check each one guards.

The modules that apply a check import its constant from here, so each value
is set in exactly one place.  The audit's verdict needs none: the receiver
reads its branch weight, exactly 1/2, and the verdict compares it with ``==``.
"""

#: Input gate: a state's norm, and a composite state's branch weights' sum, within this of 1.
NORM_TOL = 1e-8
#: Outcomes less probable than this cannot be collapsed onto or conditioned on.
REDUCTION_EPS = 1e-12
#: A transfer matrix is lossless when ``M^dag M - I`` is within this of 0.
ISOMETRY_TOL = 1e-12
#: A Gaussian packet may lose at most this probability mass off its grid.
TRUNCATION_TOL = 1e-6
