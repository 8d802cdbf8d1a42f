"""Independent reference implementations the tests check against.

Nothing here may share code paths with the package, and nothing here imports
from ``pilot_borrow``: marginal likelihoods come from adaptive quadrature of
the integrand or from scipy's beta-binomial pmf, exceedance probabilities
from pairwise sampling, 2-d quadrature, a closed-form sum for integer
shapes, a 50-digit ``decimal`` beta-binomial sum or a windowed
Gauss-Legendre rule over scipy's incomplete beta, design power from exact
enumeration or an independent sampler, and Negative-Binomial tails from
direct pmf summation or Gamma-Poisson sampling.
"""

import decimal
import math

import numpy as np
from scipy import integrate, special, stats


def beta_binomial_marginal_quad(y: int, n: int, a: float, b: float) -> float:
    """Marginal P(Y = y) by numerical quadrature of binomial pmf times Beta pdf."""

    def integrand(p):
        return math.comb(n, y) * p**y * (1 - p) ** (n - y) * stats.beta.pdf(p, a, b)

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-300, epsrel=1e-12, limit=200)
    return value


def updated_weight_quad(weight: float, a: float, b: float, y: int, n: int) -> float:
    """Posterior informative-component weight from quadrature marginals."""
    f_informative = beta_binomial_marginal_quad(y, n, a, b)
    f_vague = beta_binomial_marginal_quad(y, n, 1.0, 1.0)
    return weight * f_informative / (weight * f_informative + (1 - weight) * f_vague)


def mixture_mean_quad(weights, alphas, betas) -> float:
    """Mean of a Beta mixture by quadrature of x times the mixture pdf."""
    components = [(w, a, b) for w, a, b in zip(weights, alphas, betas) if w > 0.0]

    def pdf(x):
        return sum(
            w
            * math.exp(
                (a - 1.0) * math.log(x)
                + (b - 1.0) * math.log1p(-x)
                - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            )
            for w, a, b in components
        )

    def integrand(x):
        return x * pdf(x)

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return value


def exceedance_dblquad(a1: float, b1: float, a2: float, b2: float) -> float:
    """P(X > Y) by 2-d quadrature over the region y < x."""

    def integrand(y, x):
        return stats.beta.pdf(x, a1, b1) * stats.beta.pdf(y, a2, b2)

    value, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, lambda x: x, epsabs=1e-10)
    return value


def exceedance_integer_shapes(a1: int, b1: int, a2: int, b2: int) -> float:
    """P(X > Y) in closed form when X ~ Beta(a1, b1) has an integer shape a1.

    The finite sum over i < a1 of B(a2 + i, b1 + b2) /
    ((b1 + i) B(1 + i, b1) B(a2, b2)), each term formed in log space.
    """
    i = np.arange(a1)
    log_terms = (
        special.betaln(a2 + i, b1 + b2)
        - np.log(b1 + i)
        - special.betaln(1 + i, b1)
        - special.betaln(a2, b2)
    )
    return float(np.sum(np.exp(log_terms)))


def exceedance_decimal(a1: int, b1: int, a2: int, b2: int) -> float:
    """P(X > Y) for integer shapes as a beta-binomial CDF, in 50-digit decimal.

    X ~ Beta(a1, b1) is the a1-th smallest of m = a1 + b1 - 1 uniforms, so
    P(X > Y) = P(K <= a1 - 1) for K ~ BetaBinomial(m, a2, b2). P(K = 0) is
    the product of (b2 + i) / (a2 + b2 + i) over i < m, each later term is
    the one before times (m - j)(j + a2) / ((j + 1)(m - j - 1 + b2)), and
    all a1 terms are summed from j = 0.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        m = a1 + b1 - 1
        term = decimal.Decimal(1)
        for i in range(m):
            term = term * (b2 + i) / (a2 + b2 + i)
        total = decimal.Decimal(0)
        for j in range(a1):
            total += term
            term = term * ((m - j) * (j + a2)) / ((j + 1) * (m - j - 1 + b2))
        return float(total)


def exceedance_mc(a1, b1, a2, b2, draws: int, seed: int) -> tuple[float, float]:
    """Sampling estimate of P(X > Y) with its standard error."""
    rng = np.random.default_rng(seed)
    x = rng.beta(a1, b1, draws)
    y = rng.beta(a2, b2, draws)
    estimate = float(np.mean(x > y))
    se = math.sqrt(max(estimate * (1 - estimate), 1e-12) / draws)
    return estimate, se


def sample_mixture(weights, alphas, betas, draws: int, rng) -> np.ndarray:
    weights = np.array(weights)
    choice = rng.choice(len(weights), size=draws, p=weights)
    out = np.empty(draws)
    for idx, (alpha, beta) in enumerate(zip(alphas, betas)):
        mask = choice == idx
        out[mask] = rng.beta(alpha, beta, int(mask.sum()))
    return out


def mixture_superiority_mc(mix_t, mix_c, draws: int, seed: int) -> tuple[float, float]:
    """Sampling estimate of P(T > C) for two Beta mixtures, each (weights, alphas, betas)."""
    rng = np.random.default_rng(seed)
    t = sample_mixture(*mix_t, draws, rng)
    c = sample_mixture(*mix_c, draws, rng)
    estimate = float(np.mean(t > c))
    se = math.sqrt(max(estimate * (1 - estimate), 1e-12) / draws)
    return estimate, se


def negbin_log_pmf(k: np.ndarray, r: float, p: float) -> np.ndarray:
    """log P(N = k) for the NegBin(r, p) count of failures before r successes."""
    from scipy.special import gammaln

    k = np.asarray(k, dtype=np.float64)
    return (
        gammaln(k + r)
        - gammaln(r)
        - gammaln(k + 1.0)
        + r * math.log(p)
        + k * math.log1p(-p)
    )


def negbin_cdf_by_summation(k_max: int, r: float, p: float) -> float:
    """P(N <= k_max) by direct log-space pmf summation."""
    if k_max < 0:
        return 0.0
    log_terms = negbin_log_pmf(np.arange(k_max + 1), r, p)
    peak = float(np.max(log_terms))
    return float(math.exp(peak) * np.sum(np.exp(log_terms - peak)))


def gamma_poisson_survival_mc(
    lambda0: float, n: int, m: float, draws: int, seed: int
) -> tuple[float, float]:
    """Sampling estimate of P(N >= n) under the Gamma-Poisson accrual model."""
    rng = np.random.default_rng(seed)
    rates = rng.gamma(2.0 * lambda0, 0.5, draws)
    counts = rng.poisson(rates * m)
    estimate = float(np.mean(counts >= n))
    se = math.sqrt(max(estimate * (1 - estimate), 1e-12) / draws)
    return estimate, se


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)
_WINDOW_SD = 13.0


def beta_exceedance_window(a1, b1, a2, b2) -> np.ndarray:
    """P(X > Y) for independent X ~ Beta(a1, b1), Y ~ Beta(a2, b2), elementwise.

    Integrates the density of the narrower variable against the other's
    upper tail (scipy ``betaincc``) with a 128-node Gauss-Legendre rule on
    that density's mean +/- 13 sd, clipped to [0, 1].
    """
    a1, b1, a2, b2 = (
        np.ravel(v).astype(np.float64) for v in np.broadcast_arrays(a1, b1, a2, b2)
    )
    var1 = a1 * b1 / ((a1 + b1) ** 2 * (a1 + b1 + 1.0))
    var2 = a2 * b2 / ((a2 + b2) ** 2 * (a2 + b2 + 1.0))
    x_is_density = var1 <= var2
    # q = P(other > density side); P(X > Y) is q, or 1 - q when X is the density side
    a_d, b_d = np.where(x_is_density, a1, a2), np.where(x_is_density, b1, b2)
    a_o, b_o = np.where(x_is_density, a2, a1), np.where(x_is_density, b2, b1)
    mean = a_d / (a_d + b_d)
    half = _WINDOW_SD * np.sqrt(np.minimum(var1, var2))
    lo = np.maximum(mean - half, 0.0)[:, np.newaxis]
    hi = np.minimum(mean + half, 1.0)[:, np.newaxis]
    t = lo + (hi - lo) * (_GL_NODES + 1.0) / 2.0
    density = np.exp(stats.beta.logpdf(t, a_d[:, np.newaxis], b_d[:, np.newaxis]))
    tail = special.betaincc(a_o[:, np.newaxis], b_o[:, np.newaxis], t)
    q = np.sum((hi - lo) / 2.0 * _GL_WEIGHTS * density * tail, axis=-1)
    return np.where(x_is_density, 1.0 - q, q)


def exact_power_no_pilot(
    control_rate: float, risk_ratio: float, n_total: int, threshold: float = 0.975
) -> float:
    """Exact power of a design without a pilot, by enumeration.

    Without pilot data both prior components of an arm are Beta(1, 1), so
    the posterior of each arm is Beta(1 + y, 1 + n - y) whatever the
    weights. The superiority probability rises with the treatment count, so
    each control count y_C has one critical treatment count y*(y_C), found
    by bisection, and the power is the sum over y_C of
    P(Y_C = y_C) * P(Y_T >= y*(y_C)). The control arm takes the odd
    participant; control counts of probability below 1e-15 are skipped.
    """
    n_c = (n_total + 1) // 2
    n_t = n_total - n_c
    y_c = np.arange(n_c + 1)
    pmf_c = stats.binom.pmf(y_c, n_c, control_rate)
    keep = pmf_c > 1e-15
    y_c, pmf_c = y_c[keep], pmf_c[keep]
    failing = np.full(y_c.shape, -1)  # largest treatment count known to fail
    passing = np.full(y_c.shape, n_t + 1)  # smallest known to pass; n_t + 1: none does
    while True:
        open_ = np.flatnonzero(passing - failing > 1)
        if open_.size == 0:
            break
        mid = (failing[open_] + passing[open_]) // 2
        exceed = beta_exceedance_window(
            1 + mid, 1 + n_t - mid, 1 + y_c[open_], 1 + n_c - y_c[open_]
        )
        success = exceed > threshold
        passing[open_[success]] = mid[success]
        failing[open_[~success]] = mid[~success]
    tail_t = stats.binom.sf(passing - 1, n_t, risk_ratio * control_rate)
    return float(np.sum(pmf_c * tail_t))


def robust_posterior_weight(weight: float, y_pilot, n_pilot: int, y, n: int) -> np.ndarray:
    """Informative weight after y successes in n, prior weight w in (0, 1).

    The prior is (1 - w) Beta(1, 1) + w Beta(1 + y_pilot, 1 + n_pilot -
    y_pilot); the update reweights the components by their beta-binomial
    marginal likelihoods (scipy's ``betabinom``).
    """
    log_odds = (
        math.log(weight)
        - math.log1p(-weight)
        + stats.betabinom.logpmf(y, n, 1.0 + y_pilot, 1.0 + n_pilot - y_pilot)
        - stats.betabinom.logpmf(y, n, 1.0, 1.0)
    )
    return special.expit(log_odds)


def _count_exceedance(s_x, m_x: int, s_y, m_y: int) -> np.ndarray:
    """P(X > Y) for X ~ Beta(1 + s_x, 1 + m_x - s_x), Y likewise, once per distinct pair."""
    keys, inverse = np.unique(s_x * (m_y + 1) + s_y, return_inverse=True)
    u_x, u_y = np.divmod(keys, m_y + 1)
    values = beta_exceedance_window(1 + u_x, 1 + m_x - u_x, 1 + u_y, 1 + m_y - u_y)
    return values[inverse.reshape(-1)]


def sampled_power(
    control_rate: float,
    risk_ratio: float,
    pilot_fraction: float,
    n_total: int,
    replicates: int,
    seed: int,
    weight: float = 0.5,
    threshold: float = 0.975,
) -> tuple[float, float]:
    """Sampling estimate of a design's power, with its standard error.

    The pilot has round(pilot_fraction * n_total) participants (half away
    from zero); pilot and definitive trial split 1:1 with the odd
    participant in control. Each arm's prior is (1 - w) Beta(1, 1) + w
    Beta(1 + pilot successes, 1 + pilot failures); the posterior weights
    come from :func:`robust_posterior_weight`, and the superiority
    probability sums the four component-pair exceedances of
    :func:`beta_exceedance_window`. Success is a probability above
    ``threshold``.
    """
    rng = np.random.default_rng(seed)
    pilot_total = math.floor(pilot_fraction * n_total + 0.5)
    sizes = {
        "control": ((pilot_total + 1) // 2, (n_total + 1) // 2, control_rate),
        "treatment": (pilot_total // 2, n_total // 2, risk_ratio * control_rate),
    }
    components = {}
    for arm, (n_pilot, n, rate) in sizes.items():
        y_pilot = rng.binomial(n_pilot, rate, replicates)
        y = rng.binomial(n, rate, replicates)
        w = robust_posterior_weight(weight, y_pilot, n_pilot, y, n)
        # (weight, successes, trials) of the vague and the informative component
        components[arm] = ((1.0 - w, y, n), (w, y_pilot + y, n_pilot + n))
    superiority = np.zeros(replicates)
    for w_t, s_t, m_t in components["treatment"]:
        for w_c, s_c, m_c in components["control"]:
            superiority += w_t * w_c * _count_exceedance(s_t, m_t, s_c, m_c)
    estimate = float(np.mean(superiority > threshold))
    se = math.sqrt(max(estimate * (1 - estimate), 1e-12) / replicates)
    return estimate, se
