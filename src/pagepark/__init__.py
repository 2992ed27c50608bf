"""Dimer random sequential adsorption on intervals and on the integer line.

Cars of length two park at uniformly random slots of {1, ..., n}, each attempt
succeeding iff both covered sites are free; the process runs to jamming. The
package provides exact finite-n analytics (mean, full law, per-site vacancy,
expected draw counts), fast Monte Carlo simulators for the finite and infinite
versions of the process, a brute-force enumeration oracle for small n, and a
CLI harness that emits deterministic experiment tables.
"""

from .core import (
    DEFAULT_SEED,
    EXP,
    SEED_ENV_VAR,
    UNIFORM,
    ArrivalDistribution,
    SeedSpec,
)
from .exact import (
    MDistribution,
    density_curve_closed_form,
    distribution_M,
    expected_M,
    expected_M_series,
    limit_constants,
    odd_descent_prob_closed_form,
    per_site_vacancy_exact,
    per_site_vacancy_float,
    site_coupling_bound,
)
from .finite import (
    first_arrival_batch,
    occupancy_profile,
    simulate_direct,
    simulate_direct_batch,
)
from .infinite import (
    AutocovEstimate,
    RareEventCapError,
    RunsSample,
    WindowSample,
    autocovariance_mc,
    density_curve_mc,
    sample_runs,
    sample_site_infinite,
)
from .oracle import (
    CHAIN_CAP,
    ENUMERATION_CAP,
    OracleReport,
    enumerate_orderings,
    expected_T_exact,
    verify_lemma1,
    weak_orderings,
)
from .stats import (
    MCEstimate,
    SampleStats,
    proportion_estimate,
)
from .trials import (
    TrialsRow,
    coupon_collector_mean_exact,
    simulate_poissonized,
    trials_ratio_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalDistribution",
    "AutocovEstimate",
    "CHAIN_CAP",
    "DEFAULT_SEED",
    "ENUMERATION_CAP",
    "EXP",
    "MCEstimate",
    "MDistribution",
    "OracleReport",
    "RareEventCapError",
    "RunsSample",
    "SEED_ENV_VAR",
    "SampleStats",
    "SeedSpec",
    "TrialsRow",
    "UNIFORM",
    "WindowSample",
    "autocovariance_mc",
    "coupon_collector_mean_exact",
    "density_curve_closed_form",
    "density_curve_mc",
    "distribution_M",
    "enumerate_orderings",
    "expected_M",
    "expected_M_series",
    "expected_T_exact",
    "first_arrival_batch",
    "limit_constants",
    "occupancy_profile",
    "odd_descent_prob_closed_form",
    "per_site_vacancy_exact",
    "per_site_vacancy_float",
    "proportion_estimate",
    "sample_runs",
    "sample_site_infinite",
    "simulate_direct",
    "simulate_direct_batch",
    "simulate_poissonized",
    "site_coupling_bound",
    "trials_ratio_sweep",
    "verify_lemma1",
    "weak_orderings",
]
