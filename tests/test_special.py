"""The special functions and draws the model rests on: the Beta CDF behind
the recruitment probability, the beta-binomial log pmf behind the robust-MAP
weight update, and the binomial draws of each replicate."""

import math

import numpy as np
import pytest

from pilot_borrow import simulate
from pilot_borrow.recruitment import reg_inc_beta
from pilot_borrow.simulate import (
    DesignScenario,
    _log_beta_binomial_pmf,
    _posterior_components,
    replicate_stream,
    simulate_batch,
    trace_replicate,
)

from oracles import beta_binomial_marginal_quad


class TestRegIncBeta:
    def test_boundaries(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    @pytest.mark.parametrize("x", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_uniform_cdf(self, x):
        assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_beta22_closed_form(self):
        # CDF of Beta(2, 2) is 3x^2 - 2x^3
        assert reg_inc_beta(0.25, 2.0, 2.0) == pytest.approx(0.15625, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (3.5, 40.0), (700.0, 700.0)])
    def test_complement_identity(self, a, b):
        for x in np.linspace(0.01, 0.99, 21):
            total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (2.0, 5.0), (40.0, 70.0), (900.0, 1100.0)])
    def test_nondecreasing_in_x(self, a, b):
        grid = np.linspace(0.0, 1.0, 101)
        values = [reg_inc_beta(float(x), a, b) for x in grid]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "a,b,x",
        [(2.0, 5.0, 0.3), (0.5, 0.5, 0.2), (30.0, 70.0, 0.35), (700.0, 700.0, 0.51)],
    )
    def test_against_pdf_quadrature(self, a, b, x):
        from scipy import integrate, stats

        expected, _ = integrate.quad(
            lambda t: stats.beta.pdf(t, a, b), 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=200
        )
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        for a, b in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                reg_inc_beta(0.5, a, b)


def log_pmf(y, n, a, b):
    """The model's beta-binomial log pmf at integer shapes, ln Γ read from its table."""
    a, b = int(a), int(b)
    lgamma = simulate._lgamma_table(a + b + n).__getitem__
    return _log_beta_binomial_pmf(lgamma, np.asarray(y), n, a, b)


class TestLogBetaBinomialPmf:
    """The marginal of the robust-MAP weight update, where each shape is one plus a count."""

    def test_uniform_prior_makes_counts_equally_likely(self):
        n = 7
        values = log_pmf(np.arange(n + 1), n, 1, 1)
        assert values == pytest.approx(np.full(n + 1, -math.log(n + 1)), abs=1e-12)

    def test_empty_experiment(self):
        assert log_pmf(0, 0, 3, 7) == 0.0

    def test_frozen_quadrature_value(self):
        # oracle: quadrature of C(10,3) p^3 (1-p)^7 * Beta(p; 6, 16) over [0, 1]
        value = float(log_pmf(3, 10, 6, 16))
        assert value == pytest.approx(-1.5355717840988203, abs=1e-10)
        live = math.log(beta_binomial_marginal_quad(3, 10, 6.0, 16.0))
        assert value == pytest.approx(live, abs=1e-10)

    @pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 10), (6.0, 16.0, 30), (40.0, 2.0, 50)])
    def test_pmf_sums_to_one(self, a, b, n):
        total = float(np.sum(np.exp(log_pmf(np.arange(n + 1), n, a, b))))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 7), (7, 3), (40, 2)])
    def test_matches_scipy(self, a, b):
        from scipy import stats

        y = np.arange(51)
        expected = stats.betabinom.logpmf(y, 50, a, b)
        assert log_pmf(y, 50, a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestLogGammaTable:
    """ln Γ at the integers, read from a per-process table that math.lgamma fills."""

    def test_every_integer_to_40002(self):
        top = 40_002
        expected = [math.lgamma(k) for k in range(1, top + 1)]
        assert simulate._lgamma_table(top)[1 : top + 1].tolist() == expected

    def test_values_stay_put_when_the_table_grows(self, monkeypatch):
        monkeypatch.setattr(simulate, "_lgamma_values", np.array([math.inf]))
        y_pilot, y_def = np.array([0, 3, 7, 12]), np.array([5, 20, 31, 40])
        small = _posterior_components(0.5, y_pilot, 12, y_def, 40)
        # the model sizes the table from 2 + pilot arm + definitive arm
        assert len(simulate._lgamma_values) == 2 + 12 + 40 + 1
        _posterior_components(0.5, y_pilot * 100, 1200, y_def * 250, 10_000)
        assert len(simulate._lgamma_values) == 2 + 1200 + 10_000 + 1
        for before, after in zip(small, _posterior_components(0.5, y_pilot, 12, y_def, 40)):
            assert np.array_equal(before, after)

    def test_past_the_cap_math_lgamma_gives_the_same_values(self, monkeypatch):
        # math.lgamma raises at its poles 0, -1, -2, ..., so the extreme counts
        # also show that the model forms no ln Γ argument below 1
        cases = [
            (0.5, [3, 9], 12, [20, 31], 40),
            (0.5, [0, 12, 0, 12], 12, [0, 0, 40, 40], 40),  # y_pilot, y_def at 0 and n
            (0.5, [0, 0], 0, [0, 40], 40),  # an empty pilot arm
            (0.0, [0, 12, 3], 12, [40, 0, 20], 40),
            (1.0, [0, 12, 3], 12, [40, 0, 20], 40),
        ]
        for weight, y_pilot, n_pilot, y_def, n_def in cases:
            args = (weight, np.array(y_pilot), n_pilot, np.array(y_def), n_def)
            tabled = _posterior_components(*args)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_LGAMMA_TABLE_CAP", 10)
                patch.setattr(simulate, "_lgamma_values", np.array([math.inf]))
                untabled = _posterior_components(*args)
                assert len(simulate._lgamma_values) == 1
            for a, b in zip(tabled, untabled):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.5, 7.0), (7.0, 2.5), (40.0, 2.5)])
    def test_non_integer_shapes_match_scipy(self, a, b):
        # past the cap ln Γ is math.lgamma per element, which holds at real
        # arguments as well; the model itself forms integer ones only
        from scipy import stats

        y = np.arange(51)
        expected = stats.betabinom.logpmf(y, 50, a, b)
        value = _log_beta_binomial_pmf(simulate._lgamma_each, y, 50, a, b)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestSampleBinomial:
    """The four binomial draws of each replicate, through ``simulate_batch``."""

    def test_degenerate_probabilities(self):
        # treatment probability 2.0 * 0.5 = 1 and no pilot
        batch = simulate_batch(DesignScenario(control_rate=0.5, risk_ratio=2.0), 50, 0, 20)
        assert batch.sizes == (0, 0, 25, 25)
        assert np.all(batch.draws[:, :2] == 0)
        assert np.all(batch.draws[:, 3] == 25)
        # pilot treatment probability 0.25 * 2.0 * 2.0 = 1
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=2.0, pilot_rr_multiplier=2.0, pilot_fraction=0.2
        )
        batch = simulate_batch(scenario, 50, 0, 20)
        assert np.all(batch.draws[:, 1] == batch.sizes[1])

    def test_deterministic_given_stream(self):
        scenario = DesignScenario(control_rate=0.3, risk_ratio=1.5, pilot_fraction=0.2)
        draws_a = simulate_batch(scenario, 100, 0, 30).draws
        draws_b = simulate_batch(scenario, 100, 0, 30).draws
        assert np.array_equal(draws_a, draws_b)
        assert np.array_equal(simulate_batch(scenario, 100, 10, 20).draws, draws_a[10:20])
        sizes = simulate_batch(scenario, 100, 7, 8).sizes
        probabilities = (0.3, 0.45, 0.3, 0.45)
        rng = replicate_stream(scenario.master_seed, 100, 7)
        assert [rng.binomial(n, p) for n, p in zip(sizes, probabilities)] == list(draws_a[7])

    def test_law_of_large_numbers(self):
        # 500,000 replicates of two Binomial(100, 0.25) definitive arms
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.0)
        draws = 1_000_000
        total = 0
        for start in range(0, draws // 2, 50_000):
            batch = simulate_batch(scenario, 200, start, start + 50_000)
            assert batch.sizes[2:] == (100, 100)
            total += int(batch.draws[:, 2:].sum())
        assert abs(total / draws - 25.0) < 0.05

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            DesignScenario(control_rate=-0.1, risk_ratio=1.0)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.55, risk_ratio=2.0)
        with pytest.raises(ValueError):
            trace_replicate(DesignScenario(control_rate=0.5, risk_ratio=1.0), -1, 0)
