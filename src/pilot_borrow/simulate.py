"""Monte Carlo engine: joint pilot + definitive trial replicates, power
estimation, and minimal-sample-size search.

Each replicate first simulates a pilot study, builds a robust mixture prior
per arm from the pilot counts, then simulates the definitive trial, updates
the posteriors, and applies the superiority decision rule. Replicates are
driven by counter-based Philox streams keyed on (master_seed, n_total,
replicate index), so results are bit-identical across runs and across any
number of worker processes.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from .decision import DecisionRule, decide, mixture_superiority_batch, superiority_probability
from .map_prior import ArmCounts, BetaMixture, build_robust_map, informative_weight, update_posterior
from .special import log_beta_binomial_pmf_arr, sample_binomial

DEFAULT_MASTER_SEED = 20260808
_SEED_MASK = (1 << 64) - 1
_VERIFY_SALT = 0xA5A5_5A5A_0F0F_F0F0
_REPLICATE_CHUNK = 4096  # fixed regardless of worker count


@dataclass(frozen=True)
class DesignScenario:
    """One cell of the simulation design.

    The definitive treatment arm has success probability
    ``risk_ratio * control_rate``; the pilot treatment arm additionally
    carries ``pilot_rr_multiplier`` (1.0 means no prior-data conflict).
    """

    control_rate: float
    risk_ratio: float
    pilot_rr_multiplier: float = 1.0
    pilot_fraction: float = 0.0
    threshold: float = 0.975
    prior_weight: float = 0.5
    replicates: int = 10_000
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        if not 0.0 < self.control_rate < 1.0:
            raise ValueError(f"control_rate must lie in (0, 1), got {self.control_rate}")
        if self.risk_ratio <= 0.0:
            raise ValueError(f"risk_ratio must be positive, got {self.risk_ratio}")
        if self.pilot_rr_multiplier <= 0.0:
            raise ValueError(
                f"pilot_rr_multiplier must be positive, got {self.pilot_rr_multiplier}"
            )
        if self.treatment_rate > 1.0:
            raise ValueError(
                f"infeasible scenario: risk_ratio * control_rate = {self.treatment_rate} > 1"
            )
        if self.pilot_treatment_rate > 1.0:
            raise ValueError(
                "infeasible scenario: pilot treatment probability "
                f"{self.pilot_treatment_rate} > 1"
            )
        if not 0.0 <= self.pilot_fraction < 1.0:
            raise ValueError(f"pilot_fraction must lie in [0, 1), got {self.pilot_fraction}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not 0.0 <= self.prior_weight <= 1.0:
            raise ValueError(f"prior_weight must lie in [0, 1], got {self.prior_weight}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.master_seed <= _SEED_MASK:
            raise ValueError("master_seed must be an unsigned 64-bit integer")

    @property
    def treatment_rate(self) -> float:
        return self.risk_ratio * self.control_rate

    @property
    def pilot_treatment_rate(self) -> float:
        return self.pilot_rr_multiplier * self.risk_ratio * self.control_rate

    @property
    def rule(self) -> DecisionRule:
        return DecisionRule(self.threshold)


@dataclass(frozen=True)
class PowerEstimate:
    power: float
    standard_error: float
    replicates: int
    n_total: int


@dataclass(frozen=True)
class SampleSizeResult:
    """Outcome of a minimal-sample-size search.

    ``achieved`` is False when no total in the searched range reached the
    target power; ``n_total`` then reports the top of the range. ``probes``
    keeps the (n, power) pairs examined during the search for auditing.
    """

    n_total: int
    pilot_total: int
    power_at_n: PowerEstimate
    achieved: bool = True
    probes: tuple[tuple[int, float], ...] = field(default=())


def split_arms(total: int) -> tuple[int, int]:
    """1:1 allocation of a study total; control takes the odd participant."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    control = (total + 1) // 2
    return control, total - control


def pilot_size(fraction: float, n_total: int) -> int:
    """Pilot total as the nearest integer (half away from zero) to fraction * n_total."""
    return int(math.floor(fraction * n_total + 0.5))


def replicate_stream(master_seed: int, n_total: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one replicate.

    The replicate identity goes into the high counter words: streams with
    distinct (index, n_total) can never overlap, and the mapping does not
    depend on scheduling or worker count.
    """
    bitgen = np.random.Philox(key=master_seed, counter=[0, 0, index, n_total])
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class ReplicateTrace:
    """Full intermediate state of a single replicate, for debugging output."""

    pilot_control: ArmCounts
    pilot_treatment: ArmCounts
    prior_control: BetaMixture
    prior_treatment: BetaMixture
    definitive_control: ArmCounts
    definitive_treatment: ArmCounts
    posterior_control: BetaMixture
    posterior_treatment: BetaMixture
    superiority: float
    success: bool

    @property
    def updated_weight_control(self) -> float:
        return informative_weight(self.posterior_control)

    @property
    def updated_weight_treatment(self) -> float:
        return informative_weight(self.posterior_treatment)


def trace_replicate(
    scenario: DesignScenario, n_total: int, rng: np.random.Generator
) -> ReplicateTrace:
    """Run one replicate and keep every intermediate quantity.

    Draw order is fixed (pilot control, pilot treatment, definitive control,
    definitive treatment) so a replicate is a pure function of its stream.
    """
    if n_total < 2:
        raise ValueError(f"n_total must be >= 2, got {n_total}")
    pilot_control_n, pilot_treatment_n = split_arms(pilot_size(scenario.pilot_fraction, n_total))
    pilot_control = ArmCounts(
        sample_binomial(pilot_control_n, scenario.control_rate, rng), pilot_control_n
    )
    pilot_treatment = ArmCounts(
        sample_binomial(pilot_treatment_n, scenario.pilot_treatment_rate, rng),
        pilot_treatment_n,
    )
    prior_control = build_robust_map(pilot_control, scenario.prior_weight)
    prior_treatment = build_robust_map(pilot_treatment, scenario.prior_weight)

    control_n, treatment_n = split_arms(n_total)
    definitive_control = ArmCounts(
        sample_binomial(control_n, scenario.control_rate, rng), control_n
    )
    definitive_treatment = ArmCounts(
        sample_binomial(treatment_n, scenario.treatment_rate, rng), treatment_n
    )
    posterior_control = update_posterior(prior_control, definitive_control)
    posterior_treatment = update_posterior(prior_treatment, definitive_treatment)

    superiority = superiority_probability(posterior_treatment, posterior_control)
    return ReplicateTrace(
        pilot_control=pilot_control,
        pilot_treatment=pilot_treatment,
        prior_control=prior_control,
        prior_treatment=prior_treatment,
        definitive_control=definitive_control,
        definitive_treatment=definitive_treatment,
        posterior_control=posterior_control,
        posterior_treatment=posterior_treatment,
        superiority=superiority,
        success=decide(superiority, scenario.rule),
    )


def simulate_replicate(scenario: DesignScenario, n_total: int, rng: np.random.Generator) -> bool:
    """True when one simulated trial declares treatment superiority."""
    return trace_replicate(scenario, n_total, rng).success


def _chunk_success_count(scenario: DesignScenario, n_total: int, start: int, stop: int) -> int:
    """Successes among replicates [start, stop), vectorized.

    Reproduces simulate_replicate decision-for-decision: identical streams
    and draw order, the same conjugate updates, the same exact exceedance
    sum. One bit generator serves the chunk; setting its counter to
    replicate_stream's and emptying its output buffer gives each replicate
    the same draws as a fresh stream.
    """
    count = stop - start
    pilot_control_n, pilot_treatment_n = split_arms(pilot_size(scenario.pilot_fraction, n_total))
    control_n, treatment_n = split_arms(n_total)
    p_control = scenario.control_rate
    p_treatment = scenario.treatment_rate
    p_pilot_treatment = scenario.pilot_treatment_rate

    bitgen = np.random.Philox(key=scenario.master_seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh state: buffer_pos 4 and has_uint32 0, nothing buffered
    y = np.empty((count, 4), dtype=np.int64)
    for i in range(count):
        state["state"]["counter"] = np.array([0, 0, start + i, n_total], dtype=np.uint64)
        bitgen.state = state
        y[i, 0] = rng.binomial(pilot_control_n, p_control)
        y[i, 1] = rng.binomial(pilot_treatment_n, p_pilot_treatment)
        y[i, 2] = rng.binomial(control_n, p_control)
        y[i, 3] = rng.binomial(treatment_n, p_treatment)

    w_c, a_c, b_c = _posterior_components(
        scenario.prior_weight, y[:, 0], pilot_control_n, y[:, 2], control_n
    )
    w_t, a_t, b_t = _posterior_components(
        scenario.prior_weight, y[:, 1], pilot_treatment_n, y[:, 3], treatment_n
    )
    probs = mixture_superiority_batch(w_t, a_t, b_t, w_c, a_c, b_c)
    return int(np.count_nonzero(probs > scenario.threshold))


def _posterior_components(weight, y_pilot, n_pilot, y_def, n_def):
    """Updated mixture (weights, alphas, betas) for one arm across replicates."""
    y_pilot = y_pilot.astype(np.float64)
    y_def = y_def.astype(np.float64)
    a_informative = 1.0 + y_pilot
    b_informative = 1.0 + n_pilot - y_pilot

    log_w_vague = math.log1p(-weight) if weight < 1.0 else -math.inf
    log_w_informative = math.log(weight) if weight > 0.0 else -math.inf
    log_post_vague = log_w_vague + log_beta_binomial_pmf_arr(y_def, n_def, 1.0, 1.0)
    log_post_informative = log_w_informative + log_beta_binomial_pmf_arr(
        y_def, n_def, a_informative, b_informative
    )
    peak = np.maximum(log_post_vague, log_post_informative)
    raw_vague = np.exp(log_post_vague - peak)
    raw_informative = np.exp(log_post_informative - peak)
    total = raw_vague + raw_informative

    weights = np.column_stack([raw_vague / total, raw_informative / total])
    alphas = np.column_stack([1.0 + y_def, a_informative + y_def])
    betas = np.column_stack([1.0 + n_def - y_def, b_informative + n_def - y_def])
    return weights, alphas, betas


def _chunk_task(args) -> int:
    return _chunk_success_count(*args)


def estimate_power(scenario: DesignScenario, n_total: int, workers: int = 1) -> PowerEstimate:
    """Fraction of scenario.replicates simulated trials declaring superiority.

    Replicate streams depend only on (master_seed, n_total, index) and the
    chunk size is fixed, so the estimate is bit-identical for any worker
    count.
    """
    if n_total < 2:
        raise ValueError(f"n_total must be >= 2, got {n_total}")
    total = scenario.replicates
    bounds = list(range(0, total, _REPLICATE_CHUNK)) + [total]
    tasks = [
        (scenario, n_total, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(_chunk_task, tasks))
    else:
        successes = sum(_chunk_task(task) for task in tasks)
    power = successes / total
    return PowerEstimate(
        power=power,
        standard_error=math.sqrt(power * (1.0 - power) / total),
        replicates=total,
        n_total=n_total,
    )


def _even_clip(value: float, n_lo: int, n_hi: int) -> int:
    even = 2 * int(round(value / 2.0))
    return min(max(even, n_lo), n_hi)


def _initial_probe(scenario: DesignScenario, target_power: float, n_lo: int, n_hi: int) -> int:
    """Normal-approximation starting point for the search (heuristic only)."""
    p1 = scenario.control_rate
    p2 = scenario.treatment_rate
    if p2 <= p1:
        return n_lo
    z_threshold = ndtri(scenario.threshold)
    z_power = ndtri(target_power)
    pooled = (p1 + p2) / 2.0
    per_arm = (
        z_threshold * math.sqrt(2.0 * pooled * (1.0 - pooled))
        + z_power * math.sqrt(p1 * (1.0 - p1) + p2 * (1.0 - p2))
    ) ** 2 / (p2 - p1) ** 2
    total = 2.0 * per_arm
    # borrowing from the pilot lowers the requirement roughly in proportion
    shrink = 1.0 - 0.5 * scenario.pilot_fraction * min(scenario.pilot_rr_multiplier, 1.0)
    return _even_clip(total * shrink, n_lo, n_hi)


_UP_FACTORS = (1.15, 1.35, 1.65, 2.0)
_DOWN_FACTORS = (0.87, 0.76, 0.62, 0.48, 0.3, 0.15)


def _mix_seed(seed: int) -> int:
    z = (seed ^ _VERIFY_SALT) & _SEED_MASK
    z = (z + 0x9E3779B97F4A7C15) & _SEED_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
    return (z ^ (z >> 31)) & _SEED_MASK


def find_min_sample_size(
    scenario: DesignScenario,
    target_power: float = 0.80,
    n_lo: int = 2,
    n_hi: int = 20_000,
    workers: int = 1,
) -> SampleSizeResult:
    """Smallest even definitive total in [n_lo, n_hi] reaching the target power.

    Every probe reuses the scenario's master seed (common random numbers),
    which keeps the power curve monotone enough for bisection; a geometric
    expansion around a normal-approximation guess brackets the crossing
    first. The power reported for the returned n comes from an independent
    verification seed. When even n_hi falls short the result carries
    ``achieved=False`` instead of silently truncating.
    """
    if not 0.0 < target_power < 1.0:
        raise ValueError(f"target_power must lie in (0, 1), got {target_power}")
    if n_lo % 2 or n_hi % 2:
        raise ValueError(f"n_lo and n_hi must be even, got ({n_lo}, {n_hi})")
    if not 2 <= n_lo < n_hi:
        raise ValueError(f"need 2 <= n_lo < n_hi, got ({n_lo}, {n_hi})")

    cache: dict[int, PowerEstimate] = {}

    def probe(n: int) -> float:
        if n not in cache:
            cache[n] = estimate_power(scenario, n, workers=workers)
        return cache[n].power

    def result_for(n: int, achieved: bool) -> SampleSizeResult:
        verification = estimate_power(
            replace(scenario, master_seed=_mix_seed(scenario.master_seed)), n, workers=workers
        )
        probes = tuple(sorted((k, est.power) for k, est in cache.items()))
        return SampleSizeResult(
            n_total=n,
            pilot_total=pilot_size(scenario.pilot_fraction, n),
            power_at_n=verification,
            achieved=achieved,
            probes=probes,
        )

    start = _initial_probe(scenario, target_power, n_lo, n_hi)
    if probe(start) >= target_power:
        hi_pass = start
        lo_fail = n_lo - 2  # virtual: nothing below n_lo is in range
        cand = start
        for factor in _DOWN_FACTORS:
            if hi_pass <= n_lo:
                break
            cand = max(_even_clip(start * factor, n_lo, n_hi), n_lo)
            cand = min(cand, hi_pass - 2)
            if cand < n_lo:
                break
            if probe(cand) >= target_power:
                hi_pass = cand
            else:
                lo_fail = cand
                break
    else:
        lo_fail = start
        hi_pass = -1
        cand = start
        factor_iter = iter(_UP_FACTORS)
        growth = _UP_FACTORS[-1]
        while True:
            if cand >= n_hi:
                return result_for(n_hi, achieved=False)
            factor = next(factor_iter, None)
            if factor is None:
                growth *= 2.0
                factor = growth
            cand = min(max(_even_clip(start * factor, n_lo, n_hi), cand + 2), n_hi)
            if probe(cand) >= target_power:
                hi_pass = cand
                break
            lo_fail = cand

    while hi_pass - lo_fail > 2:
        mid = (lo_fail + hi_pass) // 2
        mid -= mid % 2
        if probe(mid) >= target_power:
            hi_pass = mid
        else:
            lo_fail = mid
    return result_for(hi_pass, achieved=True)


def run_conflict_grid(
    base: DesignScenario,
    multipliers: list[float],
    target_power: float = 0.80,
    n_lo: int = 2,
    n_hi: int = 20_000,
    workers: int = 1,
) -> list[SampleSizeResult]:
    """Minimal sample size per pilot risk-ratio multiplier, all else shared."""
    results = []
    for multiplier in multipliers:
        scenario = replace(base, pilot_rr_multiplier=multiplier)
        results.append(
            find_min_sample_size(
                scenario, target_power=target_power, n_lo=n_lo, n_hi=n_hi, workers=workers
            )
        )
    return results
