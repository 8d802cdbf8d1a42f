"""Trial duration and recruitment feasibility under a Gamma-Poisson accrual model.

Monthly accrual is Poisson with a Gamma-distributed rate centered on the
pilot-observed value (shape 2*lambda0, rate 2, so mean lambda0 and variance
lambda0/2). Marginally the number recruited in m months is Negative Binomial,
whose survival function answers "what is the chance of reaching n recruits
within m months".
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RecruitmentModel:
    """Gamma prior on the true recruitment rate, anchored at the pilot rate."""

    lambda0: float

    def __post_init__(self):
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")

    @property
    def gamma_shape(self) -> float:
        return 2.0 * self.lambda0

    @property
    def gamma_rate(self) -> float:
        return 2.0


def expected_duration(n: int, rate: float) -> float:
    """Expected months to recruit n participants at `rate` recruits per month.

    Returns the exact quotient; use :func:`round_months` for display.
    """
    if not 0.0 < rate < math.inf:
        raise ValueError(f"recruitment rate must be positive and finite, got {rate}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n / rate


def round_months(months: float) -> int:
    """Display rounding for durations: nearest integer, half away from zero."""
    return int(math.floor(months + 0.5)) if months >= 0 else -int(math.floor(-months + 0.5))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), i.e. the Beta(a, b) CDF at x.

    The continued fraction of I_x(a, b) converges quickly below
    x = (a + 1) / (a + b + 2); above it the value is 1 - I_{1-x}(b, a). A
    small value is therefore computed with relative accuracy, which keeps
    the far tail of :func:`recruitment_probability` meaningful.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"reg_inc_beta requires positive finite shapes, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0 or x == 1.0:
        return x
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _inc_beta_lower(1.0 - x, b, a)
    return _inc_beta_lower(x, a, b)


_CF_EPS = 4e-16
_CF_TINY = 1e-300


def _inc_beta_lower(x: float, a: float, b: float) -> float:
    """I_x(a, b) for x at most (a + 1) / (a + b + 2).

    x^a (1 - x)^b / (a B(a, b)) times the continued fraction
    1 / (1 + d_1 / (1 + d_2 / (1 + ...))), evaluated by the modified Lentz
    method until a step changes it by less than ``_CF_EPS`` relative. Its
    terms need O(sqrt(max(a, b))) steps at most.
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    fraction = d
    for m in range(1, 1000 + 10 * int(math.sqrt(max(a, b)))):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            fraction *= step
        if abs(step - 1.0) < _CF_EPS:
            break
    else:
        raise ArithmeticError(f"I_x(a, b) did not converge at x={x}, a={a}, b={b}")
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta
    return math.exp(log_front + math.log(fraction / a))


def negbin_params(model: RecruitmentModel, m: float) -> tuple[float, float]:
    """(r, p) of the Negative Binomial count of recruits in m months."""
    if not 0.0 < m < math.inf:
        raise ValueError(f"months must be positive and finite, got {m}")
    return model.gamma_shape, model.gamma_rate / (model.gamma_rate + m)


def recruitment_probability(model: RecruitmentModel, n: int, m: float) -> float:
    """P(at least n recruits within m months).

    Uses the survival identity P(N >= n) = I_{1-p}(n, r) for the Negative
    Binomial; the identity is cross-checked against direct pmf summation in
    the test suite.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    r, p = negbin_params(model, m)
    if n == 0:
        return 1.0
    return reg_inc_beta(1.0 - p, float(n), r)


_MONTH_RESOLUTION = 0.01


def months_for_probability(model: RecruitmentModel, n: int, target: float) -> float:
    """Smallest duration (0.01-month resolution) meeting a recruitment probability.

    A solution always exists because the probability increases to 1 as the
    window grows.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target probability must lie in (0, 1), got {target}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")

    def prob_at(hundredths: int) -> float:
        return recruitment_probability(model, n, hundredths * _MONTH_RESOLUTION)

    lo = 1  # resolution floor: durations below 0.01 months are not resolved
    if n == 0 or prob_at(lo) >= target:
        return lo * _MONTH_RESOLUTION
    hi = 2
    while prob_at(hi) < target:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prob_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi * _MONTH_RESOLUTION
