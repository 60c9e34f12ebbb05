"""Warm-start sequential selection: policies, analytics, and Monte Carlo tooling."""

from seqselect.core import (
    Instance,
    SelectionOutcome,
    compute_quality,
    generate_instance,
)
from seqselect.policies import (
    PolicySpec,
    ZoneConfig,
    run_adjusted_cutoff,
    run_cutoff,
    run_mean_baseline,
    run_rand_baseline,
)
from seqselect.analytics import (
    AnalyticParams,
    AnalyticCurve,
    expected_available_rank,
    expected_max_hires,
    expected_offline,
    g_fn,
    gamma0,
    mu_hat_curve,
    optimal_cutoff,
    resolve_cutoff,
    threshold_curve,
    translate_cutoff,
)

__version__ = "0.1.0"
