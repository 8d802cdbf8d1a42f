"""Trial duration and recruitment feasibility under a Gamma-Poisson accrual model.

Monthly accrual is Poisson with a Gamma-distributed rate centered on the
pilot-observed value (shape 2*lambda0, rate 2, so mean lambda0 and variance
lambda0/2). Marginally the number recruited in m months is Negative Binomial,
whose survival function answers "what is the chance of reaching n recruits
within m months". A recruit count n runs from 0 to 2**20, the largest
definitive total, and a window m from 0 to MONTHS_MAX months. Over that
range, at lambda0 of 0.5 and more, :func:`recruitment_probability` stayed
within 1e-8 relative of the exact tail in a scan against an independent
incomplete beta (7e-9 the largest seen, at n near 2**20). Past the range
the error grows with n, and with m, since 1 - p = m / (2 + m) rounds
towards 1. Below lambda0 = 0.5 it grows as lambda0 falls, since the small
shape 2 * lambda0 makes the tail a difference of numbers near 1: against
50-digit mpmath at n = 20 and m = 46 it is 8.4e-9 relative at
lambda0 = 1e-6, 9.8e-6 at 1e-9 and 2.6% at 1e-12, and at lambda0 = 1e-300
with n = 1 the tail reads 0.0 where it is 6.36e-300. A rate of recruits per
month, lambda0 included, lies in [RATE_MIN, RATE_MAX].
"""

import math
from dataclasses import dataclass

from .simulate import check_integer, check_positive_finite, check_unit_interval

# n / rate stays finite for every recruit count n up to 2**20.
RATE_MIN = 1e-300
# ln Γ(2 lambda0 + n), read by the tail for n up to 2**20, stays finite: ln Γ
# passes the largest double near 2.56e305.
RATE_MAX = 1.27e305
# Longest window in months. Past it the rounding of 1 - p takes over the
# tail's error: for n = 1 and lambda0 = 0.001 the relative error is 1.5e-10
# at 1e8 months and 3.6e-9 at 1e10, and at 4e16 months 1 - p rounds to 1.
MONTHS_MAX = 1e8


def check_rate(value, name: str):
    """A rate of recruits per month: a real number (not a bool) in [RATE_MIN, RATE_MAX]."""
    check_positive_finite(value, name)
    if not RATE_MIN <= value <= RATE_MAX:
        raise ValueError(f"{name} must lie in [{RATE_MIN:g}, {RATE_MAX:g}], got {value}")


def check_months(value, name: str):
    """A window in months: a real number (not a bool) above 0 and at most MONTHS_MAX."""
    check_positive_finite(value, name)
    if value > MONTHS_MAX:
        raise ValueError(f"{name} must be at most {MONTHS_MAX:g}, got {value}")


@dataclass(frozen=True)
class RecruitmentModel:
    """Gamma prior on the true recruitment rate, anchored at the pilot rate."""

    lambda0: float

    def __post_init__(self):
        check_rate(self.lambda0, "lambda0")

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
    check_rate(rate, "recruitment rate")
    check_integer(n, "n", 0)
    return n / rate


def round_months(months: float) -> int:
    """Display rounding for durations: nearest integer, half away from zero."""
    return int(math.floor(months + 0.5)) if months >= 0 else -int(math.floor(-months + 0.5))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), i.e. the Beta(a, b) CDF at x.

    The continued fraction of I_x(a, b) converges quickly below
    x = (a + 1) / (a + b + 2); above it the value is 1 - I_{1-x}(b, a). Below
    that point a small value is computed with relative accuracy, which keeps
    the far tail of :func:`recruitment_probability` meaningful; above it the
    complement holds absolute accuracy only, and a value far below 1e-16
    reads 0. Either way the value lies in [0, 1].
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
    # the value is a probability, though rounding can take it just past 1
    return min(1.0, math.exp(log_front + math.log(fraction / a)))


def negbin_params(model: RecruitmentModel, m: float) -> tuple[float, float]:
    """(r, p) of the Negative Binomial count of recruits in m months."""
    check_months(m, "months")
    return model.gamma_shape, model.gamma_rate / (model.gamma_rate + m)


def recruitment_probability(model: RecruitmentModel, n: int, m: float) -> float:
    """P(at least n recruits within m months).

    Uses the survival identity P(N >= n) = I_{1-p}(n, r) for the Negative
    Binomial; the identity is cross-checked against direct pmf summation in
    the test suite.
    """
    check_integer(n, "n", 0)
    r, p = negbin_params(model, m)
    if n == 0:
        return 1.0
    return reg_inc_beta(1.0 - p, float(n), r)


_MONTH_RESOLUTION = 0.01


def months_for_probability(model: RecruitmentModel, n: int, target: float) -> float:
    """Smallest duration (0.01-month resolution) meeting a recruitment probability.

    The probability increases to 1 as the window grows, but a window past
    MONTHS_MAX is out of range: a target that no window up to it reaches
    raises ValueError.
    """
    check_unit_interval(target, "target probability")
    check_integer(n, "n", 0)

    def prob_at(hundredths: int) -> float:
        return recruitment_probability(model, n, hundredths * _MONTH_RESOLUTION)

    lo = 1  # resolution floor: durations below 0.01 months are not resolved
    if n == 0 or prob_at(lo) >= target:
        return lo * _MONTH_RESOLUTION
    top = round(MONTHS_MAX / _MONTH_RESOLUTION)
    hi = 2
    while prob_at(hi) < target:
        if hi == top:
            raise ValueError(
                f"target probability must be reached within {MONTHS_MAX:g} months, got {target}"
            )
        lo = hi
        hi = min(2 * hi, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prob_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi * _MONTH_RESOLUTION
