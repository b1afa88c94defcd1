"""Moment-tail inequality toolkit.

A non-negative random variable with unit mean and second moment a > 1
exceeds a with positive probability, and the squared values above any cutoff
b < a carry mass at least a - b.  This package checks that statement exactly
on finite distributions and explores it in three settings: moments of
|zeta(1/2+it)| over windows, determinants of random skew-symmetric +-1
matrices, and irreducible character degrees of the symmetric group.
"""

from .moments import (
    EmpiricalDistribution,
    TheoremReport,
    load_distribution_csv,
    max_lower_bound,
    moment,
    normalize,
    tail_second_moment,
    verify_theorem,
)
from .skewdet import (
    DetStats,
    SkewSignMatrix,
    det_existence_bound,
    enumerate_stats,
    mc_stats,
    search_high_det,
    second_moment_det_bound,
    szekeres_s1_asym,
    szekeres_s2_asym,
)
from .symchar import (
    DegreeTable,
    Partition,
    XiMoments,
    degree,
    degree_table,
    involutions,
    involutions_asym,
    max_degree_asym_bound,
    p_asym,
    p_exact,
    partitions,
    second_moment_degree_bound,
    xi_moments,
)
from .zeta import (
    MomentEstimate,
    TailMomentReport,
    ZetaEvalConfig,
    fourth_moment_leading_term,
    ingham_main_term,
    moment_integral,
    tail_moment_report,
    zeta_abs,
    zeta_abs_grid,
)

__version__ = "0.1.0"

__all__ = [
    "EmpiricalDistribution",
    "TheoremReport",
    "load_distribution_csv",
    "max_lower_bound",
    "moment",
    "normalize",
    "tail_second_moment",
    "verify_theorem",
    "DetStats",
    "SkewSignMatrix",
    "det_existence_bound",
    "enumerate_stats",
    "mc_stats",
    "search_high_det",
    "second_moment_det_bound",
    "szekeres_s1_asym",
    "szekeres_s2_asym",
    "DegreeTable",
    "Partition",
    "XiMoments",
    "degree",
    "degree_table",
    "involutions",
    "involutions_asym",
    "max_degree_asym_bound",
    "p_asym",
    "p_exact",
    "partitions",
    "second_moment_degree_bound",
    "xi_moments",
    "MomentEstimate",
    "TailMomentReport",
    "ZetaEvalConfig",
    "fourth_moment_leading_term",
    "ingham_main_term",
    "moment_integral",
    "tail_moment_report",
    "zeta_abs",
    "zeta_abs_grid",
]
