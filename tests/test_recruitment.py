import math
import re
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from pilot_borrow.recruitment import (
    MONTHS_MAX,
    RATE_MAX,
    RATE_MIN,
    RecruitmentModel,
    expected_duration,
    months_for_probability,
    negbin_params,
    recruitment_probability,
    round_months,
)

from oracles import (
    gamma_poisson_survival_mc,
    negbin_cdf_by_summation,
    recruitment_probability_betainc,
    recruitment_probability_exact,
    reg_inc_beta_exact,
)


class TestRecruitmentModel:
    def test_gamma_prior_moments(self):
        model = RecruitmentModel(5.0)
        assert model.gamma_shape == 10.0
        assert model.gamma_rate == 2.0
        # implied prior mean lambda0, variance lambda0 / 2
        assert model.gamma_shape / model.gamma_rate == 5.0
        assert model.gamma_shape / model.gamma_rate**2 == 2.5

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RecruitmentModel(0.0)

    def test_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="lambda0"):
            RecruitmentModel(float("nan"))

    def test_rejects_infinite_rate(self):
        with pytest.raises(ValueError, match="lambda0"):
            RecruitmentModel(float("inf"))


class TestExpectedDuration:
    def test_reference_values(self):
        assert expected_duration(846, 10.0) == 84.6
        assert expected_duration(206, 5.0) == 41.2
        assert expected_duration(100, 10.0) == 10.0

    def test_display_rounding(self):
        assert round_months(84.6) == 85
        assert round_months(41.2) == 41
        assert round_months(0.5) == 1
        assert round_months(2.5) == 3
        assert round_months(-1.5) == -2

    def test_exact_inverse(self):
        for n, rate in ((846, 10.0), (206, 5.0), (37, 2.0)):
            assert expected_duration(n, rate) * rate == n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            expected_duration(100, 0.0)
        with pytest.raises(ValueError):
            expected_duration(-1, 2.0)
        with pytest.raises(ValueError, match="rate"):
            expected_duration(10, float("nan"))
        with pytest.raises(ValueError, match="rate"):
            expected_duration(10, float("inf"))


class TestNegbinParams:
    def test_direct_substitution(self):
        assert negbin_params(RecruitmentModel(5.0), 2.0) == (10.0, 0.5)
        assert negbin_params(RecruitmentModel(2.0), 46.0) == (4.0, 2.0 / 48.0)

    def test_short_window_limit(self):
        _, p = negbin_params(RecruitmentModel(10.0), 1e-9)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            negbin_params(RecruitmentModel(5.0), 0.0)
        with pytest.raises(ValueError, match="months"):
            negbin_params(RecruitmentModel(5.0), float("nan"))
        with pytest.raises(ValueError, match="months"):
            negbin_params(RecruitmentModel(5.0), float("inf"))


class TestRecruitmentProbability:
    def test_zero_target_is_certain(self):
        assert recruitment_probability(RecruitmentModel(5.0), 0, 1.0) == 1.0
        assert recruitment_probability(RecruitmentModel(5.0), 0, 5.0) == 1.0

    @pytest.mark.parametrize("m", [-1.0, 0.0, float("nan"), float("inf")])
    def test_window_checked_before_zero_target(self, m):
        with pytest.raises(ValueError, match="months"):
            recruitment_probability(RecruitmentModel(5.0), 0, m)

    def test_monotone_in_window_and_limit(self):
        model = RecruitmentModel(5.0)
        values = [recruitment_probability(model, 230, m) for m in (10, 20, 46, 90, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    def test_decreasing_in_target(self):
        model = RecruitmentModel(5.0)
        values = [recruitment_probability(model, n, 46.0) for n in (50, 150, 230, 400)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("lambda0,n,m", [(2.0, 50, 24.0), (5.0, 230, 46.0), (10.0, 800, 96.0), (5.0, 5000, 400.0)])
    def test_survival_complement_against_pmf_summation(self, lambda0, n, m):
        model = RecruitmentModel(lambda0)
        r, p = negbin_params(model, m)
        survival = recruitment_probability(model, n, m)
        cdf = negbin_cdf_by_summation(n - 1, r, p)
        assert survival + cdf == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lambda0,n,m", [(2.0, 50, 24.0), (5.0, 230, 46.0), (10.0, 200, 12.0)])
    def test_against_gamma_poisson_sampling(self, lambda0, n, m):
        estimate, se = gamma_poisson_survival_mc(lambda0, n, m, 1_000_000, seed=4321)
        value = recruitment_probability(RecruitmentModel(lambda0), n, m)
        assert value == pytest.approx(estimate, abs=max(3 * se, 1e-5))

    def test_pmf_mean_matches_model(self):
        model = RecruitmentModel(5.0)
        m = 24.0
        r, p = negbin_params(model, m)
        ks = np.arange(0, int(20 * 5.0 * m))
        from oracles import negbin_log_pmf

        pmf = np.exp(negbin_log_pmf(ks, r, p))
        mean = float(np.sum(ks * pmf))
        assert mean == pytest.approx(5.0 * m, rel=1e-3)


class TestAgainstExactOracle:
    """recruitment_probability against exact rational arithmetic, to 1e-10
    relative wherever the exact value is a normal double."""

    @pytest.mark.parametrize("m", [12, 46])
    @pytest.mark.parametrize("lambda0", [2, 5, 10])
    def test_relative_error_up_to_the_search_ceiling(self, lambda0, m):
        model = RecruitmentModel(float(lambda0))
        for n in (1, 2, 50, 230, 1000, 2000, 4670, 6208, 10000, 20000):
            exact = float(recruitment_probability_exact(n, lambda0, m))
            value = recruitment_probability(model, n, float(m))
            if exact >= sys.float_info.min:
                assert abs(value - exact) <= 1e-10 * exact, (n, value, exact)
            else:
                assert abs(value - exact) < sys.float_info.min, (n, value, exact)

    def test_far_tail_is_not_zero(self):
        value = recruitment_probability(RecruitmentModel(10.0), 4670, 12.0)
        exact = float(recruitment_probability_exact(4670, 10, 12))
        assert exact == 9.160456541426396e-277
        # the same tail at the double the package computes x = 1 - 2 / 14 as
        at_double_x = float(reg_inc_beta_exact(Fraction(1.0 - 2.0 / 14.0), 4670, 20))
        assert at_double_x == 9.160456541429485e-277
        for reference in (exact, at_double_x):
            assert abs(value - reference) <= 1e-10 * reference

    def test_oracle_matches_pmf_summation(self):
        r, p = negbin_params(RecruitmentModel(5.0), 46.0)
        exact = float(recruitment_probability_exact(230, 5, 46))
        assert exact + negbin_cdf_by_summation(229, r, p) == pytest.approx(1.0, abs=1e-12)


_MODEL = RecruitmentModel(5.0)
# each function that takes a recruit count, as a function of the count alone
_COUNT_CALLS = (
    lambda n: expected_duration(n, 5.0),
    lambda n: recruitment_probability(_MODEL, n, 46.0),
    lambda n: months_for_probability(_MODEL, n, 0.8),
)


@pytest.mark.parametrize(
    "call,name",
    [
        *(
            (partial(call, n), "n")
            for call in _COUNT_CALLS
            for n in (float("nan"), 2.5, True, -1, (1 << 20) + 1)
        ),
        (partial(RecruitmentModel, True), "lambda0"),
        (partial(RecruitmentModel, "5"), "lambda0"),
        (partial(expected_duration, 230, True), "recruitment rate"),
        (partial(expected_duration, 230, "5"), "recruitment rate"),
        (partial(negbin_params, _MODEL, True), "months"),
        (partial(negbin_params, _MODEL, "5"), "months"),
        (partial(months_for_probability, _MODEL, 230, True), "target probability"),
        # integers past the largest double have no float value
        (partial(RecruitmentModel, 10**400), "lambda0"),
        (partial(expected_duration, 10, 10**400), "recruitment rate"),
        (partial(recruitment_probability, _MODEL, 10, 10**400), "months"),
        # 2 * lambda0 overflows, or ln Γ(2 * lambda0 + n) does
        (partial(RecruitmentModel, 1e308), "lambda0"),
        (partial(RecruitmentModel, 1.3e305), "lambda0"),
        # n / rate overflows
        (partial(expected_duration, 230, 1e-320), "recruitment rate"),
        (partial(expected_duration, 230, 1e-306), "recruitment rate"),
        (partial(negbin_params, _MODEL, 1e9), "months"),
        (partial(recruitment_probability, _MODEL, 10, 4e16), "months"),
        # the window that reaches it, about 6.5e150 months, is out of range
        (partial(months_for_probability, RecruitmentModel(0.001), 1, 0.5), "target probability"),
    ],
)
def test_recruitment_arguments_are_checked_by_type_and_range(call, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


@pytest.mark.parametrize("lambda0", [0.5, 2.0, 5.0, 10.0])
def test_relative_error_at_the_largest_definitive_total(lambda0):
    """At n = 2**20, the top of the accepted range, against scipy's
    incomplete beta (within 2e-15 of 40-digit mpmath there), over windows
    around the mean time to n recruits."""
    n = 1 << 20
    model = RecruitmentModel(lambda0)
    for window in (0.8, 0.9, 1.0, 1.1, 1.25):
        m = window * n / lambda0
        reference = recruitment_probability_betainc(n, lambda0, m)
        value = recruitment_probability(model, n, m)
        assert abs(value - reference) <= 1e-8 * reference, (window, value, reference)


def test_recruit_count_runs_to_the_largest_definitive_total():
    n = 1 << 20
    assert expected_duration(n, 5.0) == n / 5.0
    assert 0.0 < recruitment_probability(_MODEL, n, n / 5.0) < 1.0
    assert months_for_probability(_MODEL, n, 0.5) > 0.0


def test_rates_run_between_their_bounds():
    assert math.isfinite(math.lgamma(2.0 * RATE_MAX + (1 << 20)))
    assert recruitment_probability(RecruitmentModel(RATE_MAX), 1 << 20, 0.01) == 1.0
    assert expected_duration(1 << 20, RATE_MIN) == (1 << 20) / RATE_MIN < math.inf
    assert recruitment_probability(RecruitmentModel(RATE_MIN), 0, MONTHS_MAX) == 1.0


@pytest.mark.parametrize("lambda0", [0.001, 0.1, 2.0, 5.0, 100.0])
def test_one_recruit_against_the_closed_form(lambda0):
    """P(N >= 1) = 1 - p^(2 lambda0), p = 2 / (2 + m), to 4e-9 relative over
    windows up to the longest; 1 - p rounds to 1 at 4e16 months."""
    model = RecruitmentModel(lambda0)
    for m in (0.01, 1.0, 46.0, 1e4, 1e6, MONTHS_MAX):
        exact = -math.expm1(-2.0 * lambda0 * math.log1p(m / 2.0))
        value = recruitment_probability(model, 1, m)
        assert abs(value - exact) <= 4e-9 * exact, (m, value, exact)


class TestMonthsForProbability:
    def test_zero_target_hits_resolution_floor(self):
        assert months_for_probability(RecruitmentModel(5.0), 0, 0.9) == 0.01

    def test_round_trip_contract(self):
        model = RecruitmentModel(5.0)
        for n, target in ((230, 0.83), (100, 0.5), (37, 0.95)):
            months = months_for_probability(model, n, target)
            assert recruitment_probability(model, n, months) >= target
            if months > 0.01:
                assert recruitment_probability(model, n, round(months - 0.01, 2)) < target

    def test_consistent_with_sampling_oracle(self):
        model = RecruitmentModel(5.0)
        months = months_for_probability(model, 230, 0.83)
        below, se_below = gamma_poisson_survival_mc(5.0, 230, months - 0.25, 1_000_000, seed=99)
        above, se_above = gamma_poisson_survival_mc(5.0, 230, months + 0.25, 1_000_000, seed=98)
        assert below <= 0.83 + 3 * se_below
        assert above >= 0.83 - 3 * se_above

    def test_reaches_the_longest_window(self):
        model = RecruitmentModel(0.001)
        target = recruitment_probability(model, 1, MONTHS_MAX)
        months = months_for_probability(model, 1, target)
        assert MONTHS_MAX / 2 < months <= MONTHS_MAX
        assert recruitment_probability(model, 1, months) >= target
        with pytest.raises(ValueError, match=re.escape(f"must be reached within {MONTHS_MAX:g} months")):
            months_for_probability(model, 1, math.nextafter(target, 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            months_for_probability(RecruitmentModel(5.0), 10, 0.0)
        with pytest.raises(ValueError):
            months_for_probability(RecruitmentModel(5.0), -1, 0.5)
