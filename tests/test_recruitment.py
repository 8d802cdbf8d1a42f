import numpy as np
import pytest

from pilot_borrow.recruitment import (
    RecruitmentModel,
    expected_duration,
    months_for_probability,
    negbin_params,
    recruitment_probability,
    round_months,
)

from oracles import gamma_poisson_survival_mc, negbin_cdf_by_summation


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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            months_for_probability(RecruitmentModel(5.0), 10, 0.0)
        with pytest.raises(ValueError):
            months_for_probability(RecruitmentModel(5.0), -1, 0.5)
