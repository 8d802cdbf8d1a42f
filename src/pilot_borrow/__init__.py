"""Pilot-data borrowing for definitive two-arm trials with a binary endpoint.

Quantifies how folding pilot-study results into a robust Beta-mixture prior
changes the required sample size, expected duration, and recruitment
feasibility of the definitive trial, via deterministic Monte Carlo: a power
probe and a sample-size search run in one process, and only a grid's cells
may run in parallel.
"""

from .config import ConfigError, GridCell, RecruitmentPlan, RunConfig, parse_config
from .recruitment import (
    RecruitmentModel,
    expected_duration,
    months_for_probability,
    negbin_params,
    recruitment_probability,
    reg_inc_beta,
    round_months,
)
from .runner import ResultRow, emit_results, run_grid
from .simulate import (
    DesignScenario,
    PowerEstimate,
    ReplicateBatch,
    SampleSizeResult,
    estimate_power,
    find_min_sample_size,
    pilot_size,
    simulate_batch,
    split_arms,
    trace_replicate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DesignScenario",
    "GridCell",
    "PowerEstimate",
    "RecruitmentModel",
    "RecruitmentPlan",
    "ReplicateBatch",
    "ResultRow",
    "RunConfig",
    "SampleSizeResult",
    "emit_results",
    "estimate_power",
    "expected_duration",
    "find_min_sample_size",
    "months_for_probability",
    "negbin_params",
    "parse_config",
    "pilot_size",
    "recruitment_probability",
    "reg_inc_beta",
    "round_months",
    "run_grid",
    "simulate_batch",
    "split_arms",
    "trace_replicate",
]
