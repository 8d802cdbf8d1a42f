"""Monte Carlo engine: joint pilot + definitive trial replicates, power
estimation, and minimal-sample-size search.

The model has one implementation, :func:`simulate_batch`, which runs a
range of replicates as arrays: each replicate simulates a pilot study, takes
a robust mixture prior per arm from the pilot counts, simulates the
definitive trial, updates both posteriors and applies the superiority
decision. Power probes count its decisions, and :func:`trace_replicate`
runs it on a single replicate for inspection. Replicates are driven by
counter-based Philox streams keyed on (master_seed, n_total, replicate
index), and a replicate's decision is a pure function of those three
values, so results are bit-identical across runs, chunk layouts and any
number of worker processes.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .decision import mixture_superiority_batch

DEFAULT_MASTER_SEED = 20260808
# The even definitive totals a sample-size search covers by default.
SEARCH_N_LO = 2
SEARCH_N_HI = 20_000
_SEED_MASK = (1 << 64) - 1
# Largest definitive total: its arm sizes and every ln Γ argument of the
# model (at most n_total + 3) stay within int64.
_N_TOTAL_MAX = 1 << 62
_VERIFY_SALT = 0xA5A5_5A5A_0F0F_F0F0
# Most replicates one chunk evaluates at once, which bounds its working
# memory. Counts do not depend on how replicates are split into chunks.
_REPLICATE_CHUNK = 4096


@dataclass(frozen=True)
class GridCell:
    """One cell of the simulation design: the arm rates and the pilot.

    The definitive treatment arm has success probability
    ``risk_ratio * control_rate``; the pilot treatment arm additionally
    carries ``pilot_rr_multiplier`` (1.0 means no prior-data conflict).
    A cell whose success probability exceeds one is valid but not
    ``feasible``: a grid keeps it and flags it. An error names the config
    key, then the field.
    """

    control_rate: float
    risk_ratio: float
    pilot_fraction: float = 0.0
    pilot_rr_multiplier: float = 1.0
    prior_weight: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.control_rate < 1.0:
            raise ValueError(f"p_C (control_rate) must lie in (0, 1), got {self.control_rate}")
        if not self.risk_ratio > 0.0:
            raise ValueError(f"rr (risk_ratio) must be positive, got {self.risk_ratio}")
        if not 0.0 <= self.pilot_fraction < 1.0:
            raise ValueError(f"pilot_fraction must lie in [0, 1), got {self.pilot_fraction}")
        if not self.pilot_rr_multiplier > 0.0:
            raise ValueError(
                "rr_pilot_multiplier (pilot_rr_multiplier) must be positive, "
                f"got {self.pilot_rr_multiplier}"
            )
        if not 0.0 <= self.prior_weight <= 1.0:
            raise ValueError(f"w (prior_weight) must lie in [0, 1], got {self.prior_weight}")

    @property
    def treatment_rate(self) -> float:
        return self.risk_ratio * self.control_rate

    @property
    def pilot_treatment_rate(self) -> float:
        return self.pilot_rr_multiplier * self.risk_ratio * self.control_rate

    @property
    def feasible(self) -> bool:
        return self.treatment_rate <= 1.0 and self.pilot_treatment_rate <= 1.0


def check_open_probability(value, name: str):
    """A run setting that must be a real number strictly between 0 and 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def check_positive_int(value, name: str):
    """A run setting that must be an integer of at least 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def check_seed(value, name: str = "master_seed"):
    """A master seed: an integer (not a bool) in [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= _SEED_MASK:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")


def _check_stream_key(n_total, index: int = 0):
    """A definitive total and a replicate index, as integers (not bools) in
    the ranges that the Philox counter words and the model's int64 hold."""
    for name, value, lo, hi in ("n_total", n_total, 2, _N_TOTAL_MAX), ("index", index, 0, _SEED_MASK):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
        if value > hi:
            raise ValueError(f"{name} must be <= {hi}, got {value}")


@dataclass(frozen=True)
class DesignScenario(GridCell):
    """A feasible cell with the settings that simulate it."""

    threshold: float = 0.975
    replicates: int = 10_000
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        super().__post_init__()
        if not self.feasible:
            raise ValueError(
                "infeasible scenario: success probability above 1 (treatment "
                f"{self.treatment_rate:g}, pilot treatment {self.pilot_treatment_rate:g})"
            )
        check_open_probability(self.threshold, "threshold")
        check_positive_int(self.replicates, "replicates")
        check_seed(self.master_seed)


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
    depend on scheduling or worker count. :func:`simulate_batch` reproduces
    these streams without building one generator per replicate.
    """
    bitgen = np.random.Philox(key=master_seed, counter=[0, 0, index, n_total])
    return np.random.Generator(bitgen)


class ReplicateBatch(NamedTuple):
    """Every intermediate of a range of replicates, one row per replicate.

    ``draws`` has the columns (pilot control, pilot treatment, definitive
    control, definitive treatment) and ``sizes`` the matching arm sizes.
    ``control`` and ``treatment`` are each arm's posterior as (weights,
    alphas, betas), each of shape (m, 2) with the vague component first.
    """

    sizes: tuple[int, int, int, int]
    draws: np.ndarray
    control: tuple[np.ndarray, np.ndarray, np.ndarray]
    treatment: tuple[np.ndarray, np.ndarray, np.ndarray]
    superiority: np.ndarray
    success: np.ndarray


def simulate_batch(scenario: DesignScenario, n_total: int, start: int, stop: int) -> ReplicateBatch:
    """Replicates [start, stop) of one design, vectorized.

    Replicate i takes its draws, in the column order of ``draws``, from the
    stream ``replicate_stream(master_seed, n_total, i)``: one bit generator
    serves the batch, and setting its counter and emptying its output
    buffer gives each replicate the draws of a fresh stream. An empty pilot
    arm draws nothing (numpy's binomial returns 0 for n = 0 without
    consuming the stream), so its call is skipped. Every later step is
    elementwise, so a replicate's values do not depend on the range it runs
    in. Success is a superiority probability strictly above the threshold.
    """
    count = stop - start
    pilot_control_n, pilot_treatment_n = split_arms(pilot_size(scenario.pilot_fraction, n_total))
    control_n, treatment_n = split_arms(n_total)
    p_control = scenario.control_rate
    p_treatment = scenario.treatment_rate
    p_pilot_treatment = scenario.pilot_treatment_rate

    bitgen = np.random.Philox(key=scenario.master_seed)
    binomial = np.random.Generator(bitgen).binomial
    state = bitgen.state  # a fresh state: buffer_pos 4 and has_uint32 0, nothing buffered
    counter = np.array([0, 0, 0, n_total], dtype=np.uint64)
    state["state"]["counter"] = counter
    y = np.zeros((count, 4), dtype=np.int64)
    for i in range(count):
        counter[2] = start + i
        bitgen.state = state
        if pilot_control_n:
            y[i, 0] = binomial(pilot_control_n, p_control)
        if pilot_treatment_n:
            y[i, 1] = binomial(pilot_treatment_n, p_pilot_treatment)
        y[i, 2] = binomial(control_n, p_control)
        y[i, 3] = binomial(treatment_n, p_treatment)

    control = _posterior_components(
        scenario.prior_weight, y[:, 0], pilot_control_n, y[:, 2], control_n
    )
    treatment = _posterior_components(
        scenario.prior_weight, y[:, 1], pilot_treatment_n, y[:, 3], treatment_n
    )
    probs = mixture_superiority_batch(*treatment, *control)
    return ReplicateBatch(
        sizes=(pilot_control_n, pilot_treatment_n, control_n, treatment_n),
        draws=y,
        control=control,
        treatment=treatment,
        superiority=probs,
        success=probs > scenario.threshold,
    )


def trace_replicate(scenario: DesignScenario, n_total: int, index: int) -> ReplicateBatch:
    """Replicate ``index`` alone: :func:`simulate_batch` on [index, index + 1)."""
    _check_stream_key(n_total, index)
    return simulate_batch(scenario, n_total, index, index + 1)


def _log_beta_binomial_pmf(lgamma, y, n, a, b):
    """ln P(Y = y) for Y ~ BetaBinomial(n, a, b), elementwise and unchecked,
    with ln Γ from ``lgamma``, which maps a number or an array of them.

    This is the log marginal likelihood of y successes in n Bernoulli trials
    under a Beta(a, b) prior, binomial coefficient included.
    """
    log_choose = lgamma(n + 1) - lgamma(y + 1) - lgamma(n - y + 1)
    log_beta_post = lgamma(a + y) + lgamma(b + n - y) - lgamma(a + b + n)
    log_beta_prior = lgamma(a) + lgamma(b) - lgamma(a + b)
    return log_choose + log_beta_post - log_beta_prior


# ln Γ(k) at k = 0, 1, ..., len - 1 (entry 0 is the pole), from math.lgamma.
# It lives for the process and grows only to the largest argument asked for;
# an entry never changes once written, so every caller reads the same values.
# Arguments past _LGAMMA_TABLE_CAP (8 MB of table) call math.lgamma instead.
_lgamma_values = np.array([math.inf])
_LGAMMA_TABLE_CAP = 1 << 20
_lgamma_each = np.vectorize(math.lgamma, otypes=[np.float64])


def _lgamma_table(top: int) -> np.ndarray:
    """The table of ln Γ at the integers, grown to hold ``top`` if it does not."""
    global _lgamma_values
    size = len(_lgamma_values)
    if top >= size:
        grown = np.empty(top + 1)
        grown[:size] = _lgamma_values
        grown[size:] = [math.lgamma(k) for k in range(size, top + 1)]
        _lgamma_values = grown
    return _lgamma_values


def _posterior_components(weight, y_pilot, n_pilot, y_def, n_def):
    """Robust-MAP posterior (weights, alphas, betas) of one arm across replicates.

    The prior of an arm is a robust mixture (Schmidli et al., Biometrics
    2014): (1 - weight) Beta(1, 1), the vague component, plus weight
    Beta(1 + y_pilot, 1 + n_pilot - y_pilot), the conjugate update of
    Beta(1, 1) by the pilot counts. Observing y_def successes in n_def
    updates each component's shapes by the counts and reweights it by its
    marginal likelihood of them (the beta-binomial mass), so borrowing
    adapts to how well the pilot agrees with the new data. The weights are
    normalized after subtracting the larger log term, so large counts
    cannot overflow, and a prior weight of 0 or 1 stays exactly degenerate.
    Every shape is one plus a count, as the exact superiority sum requires.
    Each output has shape (m, 2), vague component first.
    """
    # Every log-gamma argument is an integer from 1 to 2 + n_pilot + n_def (a, b >= 1,
    # 0 <= y <= n): the table is sized once and read unchecked; math.lgamma meets no pole.
    top = 2 + n_pilot + n_def
    lgamma = _lgamma_table(top).__getitem__ if top <= _LGAMMA_TABLE_CAP else _lgamma_each
    k_pilot = y_pilot.astype(np.intp, copy=False)
    k_def = y_def.astype(np.intp, copy=False)
    log_w_vague = math.log1p(-weight) if weight < 1.0 else -math.inf
    log_w_informative = math.log(weight) if weight > 0.0 else -math.inf
    log_post_vague = log_w_vague + _log_beta_binomial_pmf(lgamma, k_def, n_def, 1, 1)
    log_post_informative = log_w_informative + _log_beta_binomial_pmf(
        lgamma, k_def, n_def, 1 + k_pilot, 1 + n_pilot - k_pilot
    )
    y_pilot = y_pilot.astype(np.float64)
    y_def = y_def.astype(np.float64)
    a_informative = 1.0 + y_pilot
    b_informative = 1.0 + n_pilot - y_pilot

    peak = np.maximum(log_post_vague, log_post_informative)
    raw_vague = np.exp(log_post_vague - peak)
    raw_informative = np.exp(log_post_informative - peak)
    total = raw_vague + raw_informative

    weights = np.column_stack([raw_vague / total, raw_informative / total])
    alphas = np.column_stack([1.0 + y_def, a_informative + y_def])
    betas = np.column_stack([1.0 + n_def - y_def, b_informative + n_def - y_def])
    return weights, alphas, betas


def _chunk_task(args) -> int:
    """Successes among replicates [start, stop) for ``args = (scenario, n_total, start, stop)``."""
    return int(np.count_nonzero(simulate_batch(*args).success))


def _chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of near-equal size, at most ``_REPLICATE_CHUNK`` each.

    With several workers and more than one chunk, the chunk count is a
    multiple of the worker count, so every worker gets an equal share.
    """
    k = -(-total // _REPLICATE_CHUNK)
    if k > 1 and workers > 1:
        k = -(-k // workers) * workers
    return [(total * i // k, total * (i + 1) // k) for i in range(k)]


def estimate_power(
    scenario: DesignScenario, n_total: int, *, workers: int = 1, pool=None
) -> PowerEstimate:
    """Fraction of scenario.replicates simulated trials declaring superiority.

    Each replicate's decision is a pure function of (master_seed, n_total,
    index), and the estimate sums those decisions, so it is bit-identical
    for any worker count and chunk layout. With ``workers > 1`` the chunks
    run on ``pool`` when one is given (a search passes the pool it keeps for
    all its probes), otherwise on a pool opened for this call.
    """
    _check_stream_key(n_total)
    check_positive_int(workers, "workers")
    total = scenario.replicates
    tasks = [(scenario, n_total, lo, hi) for lo, hi in _chunk_bounds(total, workers)]
    if workers > 1 and len(tasks) > 1:
        owned = ProcessPoolExecutor(max_workers=workers) if pool is None else nullcontext(pool)
        with owned as running:
            successes = sum(running.map(_chunk_task, tasks))
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
    z_threshold = NormalDist().inv_cdf(scenario.threshold)
    z_power = NormalDist().inv_cdf(target_power)
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
    n_lo: int = SEARCH_N_LO,
    n_hi: int = SEARCH_N_HI,
    workers: int = 1,
) -> SampleSizeResult:
    """Smallest even definitive total in [n_lo, n_hi] reaching the target power.

    A geometric expansion around a normal-approximation guess brackets the
    crossing, then bisection narrows it. Every probe uses the scenario's
    master seed, but the stream key contains the probed total, so probes at
    different totals draw independent replicates. The power reported for
    the returned n comes from an independent verification seed. When even
    n_hi falls short the result carries ``achieved=False`` instead of
    silently truncating. With several workers and more than one chunk per
    probe, one process pool serves every probe of the search.
    """
    check_open_probability(target_power, "target_power")
    check_positive_int(workers, "workers")
    if n_lo % 2 or n_hi % 2:
        raise ValueError(f"n_lo and n_hi must be even, got ({n_lo}, {n_hi})")
    if not 2 <= n_lo < n_hi:
        raise ValueError(f"need 2 <= n_lo < n_hi, got ({n_lo}, {n_hi})")

    shared = workers > 1 and scenario.replicates > _REPLICATE_CHUNK
    with ProcessPoolExecutor(max_workers=workers) if shared else nullcontext() as pool:
        estimate = partial(estimate_power, workers=workers, pool=pool)
        return _search(scenario, target_power, n_lo, n_hi, estimate)


def _search(scenario, target_power, n_lo, n_hi, estimate) -> SampleSizeResult:
    """The search of :func:`find_min_sample_size`; ``estimate(scenario, n)`` runs a probe."""
    cache: dict[int, PowerEstimate] = {}

    def probe(n: int) -> float:
        if n not in cache:
            cache[n] = estimate(scenario, n)
        return cache[n].power

    def result_for(n: int, achieved: bool) -> SampleSizeResult:
        verification = estimate(replace(scenario, master_seed=_mix_seed(scenario.master_seed)), n)
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
        for factor in _DOWN_FACTORS:
            if hi_pass <= n_lo:
                break
            cand = min(_even_clip(start * factor, n_lo, n_hi), hi_pass - 2)
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
