"""Monte Carlo engine: joint pilot + definitive trial replicates, power
estimation, and minimal-sample-size search.

The model has one implementation, :func:`simulate_batch`, which runs a
range of replicates as arrays: each replicate simulates a pilot study, takes
a robust mixture prior per arm from the pilot counts, simulates the
definitive trial, updates both posteriors and applies the superiority
decision. Power probes count its decisions, and :func:`trace_replicate`
runs it on a single replicate for inspection. Replicate i takes its four
uniforms from one step of a counter-based Philox stream keyed on
master_seed, at a counter made of i and n_total, and turns each into a
count through its arm's binomial CDF table, read through a guide table in
large batches. The weight update reads each replicate's log marginal
likelihoods from tables indexed by count. A replicate's decision is thus a
pure function of (master_seed, n_total, replicate index), so results are
bit-identical across runs and batch layouts, and a grid gives the same
numbers whether its cells run in one process or on several.
"""

import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .decision import _CALL_ROWS, mixture_superiority_batch

DEFAULT_MASTER_SEED = 20260808
# The even definitive totals a sample-size search covers by default.
SEARCH_N_LO = 2
SEARCH_N_HI = 20_000
_SEED_MASK = (1 << 64) - 1
# Largest definitive total, 50 times SEARCH_N_HI. Every ln Γ argument of the
# model is at most n_total + 2, so the ln Γ table holds at most 2**20 + 3
# entries (8 MB).
_N_TOTAL_MAX = 1 << 20
_VERIFY_SALT = 0xA5A5_5A5A_0F0F_F0F0
# Fewest uniforms that _draw_counts reads through a guide table: below about
# 2,000 a binary search per uniform costs less than building the guide.
_GUIDE_ROWS = 2048


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
        check_unit_interval(self.control_rate, "p_C (control_rate)")
        check_positive_finite(self.risk_ratio, "rr (risk_ratio)")
        check_unit_interval(self.pilot_fraction, "pilot_fraction", "[)")
        check_positive_finite(self.pilot_rr_multiplier, "rr_pilot_multiplier (pilot_rr_multiplier)")
        check_unit_interval(self.prior_weight, "w (prior_weight)", "[]")

    @property
    def treatment_rate(self) -> float:
        return self.risk_ratio * self.control_rate

    @property
    def pilot_treatment_rate(self) -> float:
        # float first: a product of two integers past the largest double has no float
        return float(self.pilot_rr_multiplier) * self.risk_ratio * self.control_rate

    @property
    def feasible(self) -> bool:
        return self.treatment_rate <= 1.0 and self.pilot_treatment_rate <= 1.0


def check_unit_interval(value, name: str, ends: str = "()"):
    """A real number (not a bool) between 0 and 1, each end left out by a
    round bracket and kept by a square one: "()" is a probability strictly
    between 0 and 1, "[)" admits 0, "[]" admits both ends."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        (0.0 <= value if ends[0] == "[" else 0.0 < value)
        and (value <= 1.0 if ends[1] == "]" else value < 1.0)
    ):
        raise ValueError(f"{name} must lie in {ends[0]}0, 1{ends[1]}, got {value}")


def check_positive_finite(value, name: str):
    """A real number (not a bool) above 0 and at most the largest double, so
    an integer converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0.0 < value <= sys.float_info.max
    ):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_integer(value, name: str, lo: int = 2, hi: int = _N_TOTAL_MAX):
    """An integer (not a bool) in [lo, hi]. The default range is that of a
    definitive total, whose ln Γ arguments the ln Γ table holds."""
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
        check_unit_interval(self.threshold, "threshold")
        # the replicate-index range that simulate_batch accepts for stop
        check_integer(self.replicates, "replicates", 1, _SEED_MASK + 1)
        check_integer(self.master_seed, "master_seed", 0, _SEED_MASK)


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
    check_integer(total, "total", 0)
    control = (total + 1) // 2
    return control, total - control


def pilot_size(fraction: float, n_total: int) -> int:
    """Pilot total as the nearest integer (half away from zero) to fraction * n_total."""
    return int(math.floor(fraction * n_total + 0.5))


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

    Row r of one ``Generator.random(size=(stop - start, 4))`` call on
    ``Philox(key=master_seed, counter=[start, 0, 0, n_total])`` holds the
    four uniforms of replicate start + r: a double takes one 64-bit word,
    and one step of the Philox counter gives four, so the row is the stream
    at counter start + r (with carry) whatever range it is drawn in. Each
    column becomes counts, the number of entries at or below each uniform,
    in its arm's binomial CDF table (see :func:`_binomial_cdf`), whose last
    entry is exactly 1, so an arm of size k draws a count in [0, k] and an
    empty arm draws 0. :func:`_draw_counts` reads that number through a
    guide table in large batches and gives the same counts as a binary
    search. Every later step is elementwise or reads a table entry by count,
    so a replicate's values do not depend on the range it runs in. Success
    is a superiority probability strictly above the threshold. ``n_total``
    is checked as in :func:`estimate_power`, and the range must satisfy
    0 <= start <= stop <= 2**64.
    """
    check_integer(n_total, "n_total")
    # the index of the last replicate fits a 64-bit Philox counter word
    check_integer(stop, "stop", 0, _SEED_MASK + 1)
    check_integer(start, "start", 0, stop)
    pilot_control_n, pilot_treatment_n = split_arms(pilot_size(scenario.pilot_fraction, n_total))
    control_n, treatment_n = split_arms(n_total)
    sizes = (pilot_control_n, pilot_treatment_n, control_n, treatment_n)
    p_control = scenario.control_rate
    rates = (p_control, scenario.pilot_treatment_rate, p_control, scenario.treatment_rate)

    # a numpy array, since a list entry of 2**63 or more fails numpy's cast to
    # uint64; an empty range at start = 2**64 draws nothing from counter 0
    counter = np.array([start & _SEED_MASK, 0, 0, n_total], dtype=np.uint64)
    bitgen = np.random.Philox(key=scenario.master_seed, counter=counter)
    u = np.random.Generator(bitgen).random((stop - start, 4))
    y = np.empty(u.shape, dtype=np.int64)
    for column, (size, rate) in enumerate(zip(sizes, rates)):
        y[:, column] = _draw_counts(_binomial_cdf(size, rate), u[:, column])
    del u  # not held through the superiority sum

    control = _posterior_components(
        scenario.prior_weight, y[:, 0], pilot_control_n, y[:, 2], control_n
    )
    treatment = _posterior_components(
        scenario.prior_weight, y[:, 1], pilot_treatment_n, y[:, 3], treatment_n
    )
    probs = mixture_superiority_batch(*treatment, *control)
    return ReplicateBatch(
        sizes=sizes,
        draws=y,
        control=control,
        treatment=treatment,
        superiority=probs,
        success=probs > scenario.threshold,
    )


def trace_replicate(scenario: DesignScenario, n_total: int, index: int) -> ReplicateBatch:
    """Replicate ``index`` alone: :func:`simulate_batch` on [index, index + 1)."""
    check_integer(index, "index", 0, _SEED_MASK)
    return simulate_batch(scenario, n_total, index, index + 1)


# ln Γ(k) at k = 0, 1, ..., len - 1 (entry 0 is the pole), from math.lgamma.
# It lives for the process and grows only to the largest argument asked for;
# an entry never changes once written, so every caller reads the same values.
_lgamma_values = np.array([math.inf])


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


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """P(K <= k) for K ~ Binomial(n, p) at k = 0, ..., n, normalized by its
    last entry, which is therefore exactly 1. Each mass is exp of its log,
    with the binomial coefficient's ln Γ values from the table, less the
    largest log mass, so no mass overflows and the tails may underflow to 0.
    """
    if n == 0 or p == 1.0:  # no trial, or a treatment rate of 1: all mass at n
        cdf = np.zeros(n + 1)
        cdf[n] = 1.0
        return cdf
    lgamma = _lgamma_table(n + 1)
    k = np.arange(n + 1.0)
    # k ln p + (n - k) ln(1 - p) - ln k! - ln (n - k)!, in place
    log_mass = k * math.log(p)
    log_mass += k[::-1] * math.log1p(-p)
    log_mass -= lgamma[1 : n + 2]
    log_mass -= lgamma[n + 1 : 0 : -1]
    log_mass -= log_mass.max()
    cdf = np.cumsum(np.exp(log_mass, out=log_mass), out=log_mass)
    cdf /= cdf[-1]
    return cdf


def _draw_counts(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")``: the number of entries of a CDF
    table (nondecreasing, last entry exactly 1) at or below each uniform in
    [0, 1).

    From _GUIDE_ROWS uniforms up it reads a guide table. With B buckets of
    [0, 1), a power of two from rows / 16 to rows / 8 and at most 8192, u * B
    and b / B are exact, and guide[b] counts the entries at or below b / B;
    a uniform in bucket b = floor(u * B) thus has guide[b] <= count <=
    guide[b + 1]. Where at most one entry falls in its bucket, the count is
    guide[b] plus one if that entry is at or below u. The few uniforms in
    wider buckets (the tails) are searched.
    """
    if len(u) < _GUIDE_ROWS:
        return cdf.searchsorted(u, side="right")
    buckets = min(1 << (len(u).bit_length() - 4), 8192)
    guide = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
    bucket = (u * buckets).astype(np.intp)
    first = guide[bucket]
    counts = first + (cdf[first] <= u)
    wide = np.flatnonzero((np.diff(guide) > 1)[bucket])
    counts[wide] = cdf.searchsorted(u[wide], side="right")
    return counts


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

    Each term of a log marginal likelihood depends on the definitive count,
    the pilot count or their sum alone. So each term is built once per count
    over the range of counts present, with the operations and the order a
    per-replicate formula would use, and each replicate gathers its entries:
    the same bits for work that scales with the range, not the batch.
    """
    # Every log-gamma argument is an integer from 1 to 2 + n_pilot + n_def (a, b >= 1,
    # 0 <= y <= n): the table is sized once and read unchecked.
    lgamma = _lgamma_table(2 + n_pilot + n_def)
    k_pilot = y_pilot.astype(np.intp, copy=False)
    k_def = y_def.astype(np.intp, copy=False)
    # the range of counts present (empty for an empty batch), and every sum
    # of a pilot and a definitive count in those ranges
    p_lo, p_hi = int(k_pilot.min(initial=n_pilot)), int(k_pilot.max(initial=0))
    d_lo, d_hi = int(k_def.min(initial=n_def)), int(k_def.max(initial=0))
    p = np.arange(p_lo, p_hi + 1)
    d = np.arange(d_lo, d_hi + 1)
    s = np.arange(p_lo + d_lo, p_hi + d_hi + 1)
    n = n_pilot + n_def
    log_w_vague = math.log1p(-weight) if weight < 1.0 else -math.inf
    log_w_informative = math.log(weight) if weight > 0.0 else -math.inf
    # ln P(y_def) under Beta(a, b) is ln C(n_def, y_def), plus
    # ln B(a + y_def, b + n_def - y_def), less ln B(a, b), each term one entry
    # per count. The vague component has a = b = 1, and ln B(1, 1) is exactly
    # 0, so it is not subtracted. The informative one has a = 1 + y_pilot and
    # b = 1 + n_pilot - y_pilot: its ln B(a + y_def, ...) is a function of
    # s = y_pilot + y_def and its ln B(a, b) one of y_pilot.
    log_fact_d = lgamma[d + 1]
    log_fact_rest = lgamma[n_def + 1 - d]
    log_choose = lgamma[n_def + 1] - log_fact_d - log_fact_rest
    vague = log_w_vague + (log_choose + (log_fact_d + log_fact_rest - lgamma[n_def + 2]))
    log_beta_post = lgamma[1 + s] + lgamma[1 + n - s] - lgamma[2 + n]
    log_beta_prior = lgamma[1 + p] + lgamma[1 + n_pilot - p] - lgamma[2 + n_pilot]
    at_p = k_pilot - p_lo
    at_d = k_def - d_lo
    log_post_vague = vague[at_d]
    log_post_informative = log_w_informative + (
        log_choose[at_d] + log_beta_post[at_p + at_d] - log_beta_prior[at_p]
    )
    y_pilot = y_pilot.astype(np.float64)
    y_def = y_def.astype(np.float64)
    a_informative = 1.0 + y_pilot
    b_informative = 1.0 + n_pilot - y_pilot

    peak = np.maximum(log_post_vague, log_post_informative)
    raw_vague = np.exp(log_post_vague - peak)
    raw_informative = np.exp(log_post_informative - peak)
    total = raw_vague + raw_informative

    weights, alphas, betas = (np.empty((y_def.shape[0], 2)) for _ in range(3))
    np.divide(raw_vague, total, out=weights[:, 0])
    np.divide(raw_informative, total, out=weights[:, 1])
    np.add(1.0, y_def, out=alphas[:, 0])
    np.add(a_informative, y_def, out=alphas[:, 1])
    np.subtract(1.0 + n_def, y_def, out=betas[:, 0])
    np.subtract(b_informative + n_def, y_def, out=betas[:, 1])
    return weights, alphas, betas


def _chunk_task(scenario: DesignScenario, n_total: int, start: int, stop: int) -> int:
    """Successes among replicates [start, stop), run in ceil(len / _CALL_ROWS)
    contiguous batches whose sizes differ by at most one, made one at a time,
    so a range of any size walks its batches in O(1) memory. A batch of at
    most _CALL_ROWS replicates sends no superiority call past _CALL_ROWS
    rows. Counts do not depend on how replicates are split."""
    size = stop - start
    parts = -(-size // _CALL_ROWS)
    bounds = ((start + size * i // parts, start + size * (i + 1) // parts) for i in range(parts))
    return sum(
        int(np.count_nonzero(simulate_batch(scenario, n_total, lo, hi).success))
        for lo, hi in bounds
    )


def estimate_power(scenario: DesignScenario, n_total: int) -> PowerEstimate:
    """Fraction of scenario.replicates simulated trials declaring superiority.

    Each replicate's decision is a pure function of (master_seed, n_total,
    index), and the estimate sums those decisions in this process, so it is
    bit-identical for any batch layout.
    """
    check_integer(n_total, "n_total")
    total = scenario.replicates
    power = _chunk_task(scenario, n_total, 0, total) / total
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

    One walk from a normal-approximation guess brackets the crossing between
    a failing total ``lo_fail`` and a passing one ``hi_pass``: down by
    ``_DOWN_FACTORS`` of the guess while probes pass, or up by ``_UP_FACTORS``
    and then doubled factors while they fail; bisection narrows the bracket.
    Every probe uses the scenario's master seed, but the stream key contains
    the probed total, so probes at different totals draw independent
    replicates. The power reported for the returned n comes from an
    independent verification seed. When even n_hi falls short the result
    carries ``achieved=False`` instead of silently truncating. Every probe
    runs in this process. ``workers`` is checked and otherwise changes
    nothing; it goes once the benchmark's search workload stops passing it.
    """
    check_unit_interval(target_power, "target_power")
    check_integer(workers, "workers", 1, math.inf)
    check_integer(n_lo, "n_lo")
    check_integer(n_hi, "n_hi")
    if n_lo % 2 or n_hi % 2:
        raise ValueError(f"n_lo and n_hi must be even, got ({n_lo}, {n_hi})")
    if n_lo >= n_hi:
        raise ValueError(f"need n_lo < n_hi, got ({n_lo}, {n_hi})")

    powers: dict[int, PowerEstimate] = {}

    def passes(n: int) -> bool:
        # estimate_power by its module name: perfbench/spans.py rebinds it
        if n not in powers:
            powers[n] = estimate_power(scenario, n)
        return powers[n].power >= target_power

    start = _initial_probe(scenario, target_power, n_lo, n_hi)
    lo_fail = hi_pass = start
    achieved = True
    if passes(start):
        lo_fail = n_lo - 2  # virtual: nothing below n_lo is in range
        for factor in _DOWN_FACTORS:
            if hi_pass <= n_lo:
                break
            n = min(_even_clip(start * factor, n_lo, n_hi), hi_pass - 2)
            if not passes(n):
                lo_fail = n
                break
            hi_pass = n
    else:
        # the factor table, then its last factor doubled again and again
        factors = itertools.chain(
            _UP_FACTORS, (_UP_FACTORS[-1] * 2.0**k for k in itertools.count(1))
        )
        while not passes(hi_pass):
            lo_fail = hi_pass
            if lo_fail >= n_hi:  # even n_hi falls short
                achieved = False
                break
            hi_pass = min(max(_even_clip(start * next(factors), n_lo, n_hi), lo_fail + 2), n_hi)

    while hi_pass - lo_fail > 2:
        mid = (lo_fail + hi_pass) // 4 * 2  # the even total at or below the midpoint
        if passes(mid):
            hi_pass = mid
        else:
            lo_fail = mid
    verify = replace(scenario, master_seed=_mix_seed(scenario.master_seed))
    return SampleSizeResult(
        n_total=hi_pass,
        pilot_total=pilot_size(scenario.pilot_fraction, hi_pass),
        power_at_n=estimate_power(verify, hi_pass),
        achieved=achieved,
        probes=tuple(sorted((n, estimate.power) for n, estimate in powers.items())),
    )
