"""Machine-checked verification of three number-theoretic constructions.

* ``binomial_thresholds``: the small-prime part u(n, k) of C(n, k), the
  threshold f(n) = min{k : u(n, k) > n^2}, its averaging certificate, and
  the composite witness M_K with f(M_K - 1) > K.
* ``basis_splits``: an explicit order-2 additive basis whose two-colorings
  always leave one monochromatic sumset with unbounded gaps, verified stage
  by stage (coverage, rigidity, gap witnesses).
* ``equidistribution``: exact interval discrepancy of windows of
  {alpha p_n}, Dirichlet approximants, runs of consecutive primes in a
  residue class, and the clustering construction that defeats
  well-distribution.
* ``primes``: the one segmented sieve and the primality test the other
  modules share.
* ``errors``: the exception types, and the one memory guard that counts
  every request-sized structure before it is built.
"""

from .errors import ResourceLimitError, VerificationError
from .primes import (
    PrimeTable,
    is_prime,
    sieve_primes,
)
from .binomial_thresholds import (
    CertificateReport,
    ThresholdResult,
    ValuationProfile,
    WitnessMK,
    certificate_average,
    f_threshold,
    lower_bound_witness,
    u_profile,
    valuation_binomial,
    valuation_row,
)
from .basis_splits import (
    CoverageReport,
    GapReport,
    PartitionRule,
    RepresentationList,
    RigidityReport,
    StageClassification,
    alternating_rule,
    classify,
    constant_rule,
    enumerate_A,
    gap_witness,
    representations,
    rigidity_check,
    rigidity_interval,
    rule_from_name,
    seeded_rule,
    stage_anchor,
    stage_block,
    stage_filler,
    sumset_cover_check,
)
from .equidistribution import (
    Approximant,
    ClusterReport,
    PrimeString,
    WindowScanResult,
    cluster_verify,
    dirichlet_approx,
    find_prime_string,
    fractional_part,
    interval_discrepancy,
    parse_alpha,
    torus_distance,
    well_distribution_statistic,
    window_sample,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
