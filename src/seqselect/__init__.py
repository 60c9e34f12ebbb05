"""Warm-start sequential selection: policies, analytics, and Monte Carlo tooling."""

from seqselect.core import sample_rounds
from seqselect.policies import (
    PolicySpec,
    ZoneConfig,
    run_policy_batch,
)
from seqselect.analytics import (
    AnalyticParams,
    AnalyticCurve,
    expected_max_hires,
    expected_offline,
    gamma0,
    mu_hat_curve,
    optimal_cutoff,
    resolve_cutoff,
    threshold_curve,
    translate_cutoff,
)

__version__ = "0.1.0"
