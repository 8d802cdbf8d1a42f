"""The robust-MAP prior and its update, ``simulate._posterior_components``.

An arm's prior is (1 - w) Beta(1, 1) + w Beta(1 + pilot successes, 1 +
pilot failures); with an empty definitive trial the posterior is that prior.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from pilot_borrow.decision import exceedance_pairs
from pilot_borrow.simulate import DesignScenario, _posterior_components

from oracles import mixture_mean_quad, updated_weight_quad


def update(weight, pilot, data):
    """Posterior (weights, alphas, betas) of one arm as three length-2 rows."""
    (y_pilot, n_pilot), (y, n) = pilot, data
    arrays = _posterior_components(weight, np.array([y_pilot]), n_pilot, np.array([y]), n)
    return tuple(v[0] for v in arrays)


def informative_weight(pilot, data, weight=0.5) -> float:
    return float(update(weight, pilot, data)[0][1])


def mixture_pdf(weights, alphas, betas, x):
    return sum(w * stats.beta.pdf(x, a, b) for w, a, b in zip(weights, alphas, betas))


class TestTypes:
    def test_beta_params_validation(self):
        # shapes are checked where they are used, by the exact exceedance sum
        with pytest.raises(ValueError):
            exceedance_pairs(0.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            exceedance_pairs(1.0, -2.0, 2.0, 2.0)


class TestBuildRobustMap:
    def test_basic_pilot(self):
        weights, alphas, betas = update(0.5, (5, 20), (0, 0))
        assert tuple(weights) == (0.5, 0.5)
        assert (alphas[0], betas[0]) == (1.0, 1.0)
        assert (alphas[1], betas[1]) == (6.0, 16.0)

    def test_empty_pilot_informative_stays_at_base(self):
        _, alphas, betas = update(0.5, (0, 0), (0, 0))
        assert (alphas[1], betas[1]) == (1.0, 1.0)

    def test_all_successes(self):
        _, alphas, betas = update(0.5, (20, 20), (0, 0))
        assert (alphas[1], betas[1]) == (21.0, 1.0)

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, prior_weight=1.5)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, prior_weight=-0.1)


class TestUpdatePosterior:
    def test_empty_data_leaves_prior_untouched(self):
        weights, alphas, betas = update(0.5, (5, 20), (0, 0))
        assert tuple(weights) == (0.5, 0.5)
        assert tuple(alphas) == (1.0, 6.0)
        assert tuple(betas) == (1.0, 16.0)

    def test_single_component_conjugate_update(self):
        # weight 1 leaves only the informative Beta(3, 4) of a 2-of-5 pilot
        weights, alphas, betas = update(1.0, (2, 5), (7, 10))
        assert tuple(weights) == (0.0, 1.0)
        assert (alphas[1], betas[1]) == (10.0, 7.0)

    def test_reference_example_parameters_and_weight(self):
        weights, alphas, betas = update(0.5, (5, 20), (25, 100))
        assert (alphas[0], betas[0]) == (26.0, 76.0)
        assert (alphas[1], betas[1]) == (31.0, 91.0)
        # frozen from the quadrature oracle
        assert weights[1] == pytest.approx(0.7952003406220532, abs=1e-8)
        live = updated_weight_quad(0.5, 6.0, 16.0, 25, 100)
        assert weights[1] == pytest.approx(live, abs=1e-8)

    def test_zero_and_one_weights_stay_degenerate(self):
        weights, _, _ = update(0.0, (4, 9), (10, 30))
        assert tuple(weights) == (1.0, 0.0)
        weights, _, _ = update(1.0, (4, 9), (10, 30))
        assert tuple(weights) == (0.0, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_weight_matches_quadrature_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        pilot_n = int(rng.integers(1, 120))
        pilot_y = int(rng.integers(0, pilot_n + 1))
        def_n = int(rng.integers(1, 400))
        def_y = int(rng.integers(0, def_n + 1))
        weight = float(rng.uniform(0.05, 0.95))
        got = informative_weight((pilot_y, pilot_n), (def_y, def_n), weight)
        expected = updated_weight_quad(weight, 1.0 + pilot_y, 1.0 + pilot_n - pilot_y, def_y, def_n)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_sequential_batches_match_single_update(self):
        # Bayes' rule applied to the posterior after 10 of 40, with 15 of 60 more
        weights, alphas, betas = update(0.5, (7, 25), (10, 40))
        log_w = np.log(weights) + stats.betabinom.logpmf(15, 60, alphas, betas)
        step_weights = np.exp(log_w - logsumexp(log_w))
        step_alphas, step_betas = alphas + 15, betas + 45
        single = update(0.5, (7, 25), (25, 100))
        assert step_weights == pytest.approx(single[0], abs=1e-10)
        assert np.array_equal(step_alphas, single[1])
        assert np.array_equal(step_betas, single[2])
        for x in np.linspace(0.005, 0.995, 100):
            assert mixture_pdf(step_weights, step_alphas, step_betas, x) == pytest.approx(
                mixture_pdf(*single, x), abs=1e-10
            )

    def test_concordant_data_raises_weight_discordant_lowers_it(self):
        concordant = informative_weight((10, 20), (250, 500))
        discordant = informative_weight((10, 20), (450, 500))
        assert concordant > 0.5
        assert discordant < 0.5
        assert concordant == pytest.approx(updated_weight_quad(0.5, 11.0, 11.0, 250, 500), abs=1e-8)
        assert discordant == pytest.approx(updated_weight_quad(0.5, 11.0, 11.0, 450, 500), abs=1e-8)

    @pytest.mark.parametrize(
        "pilot,data",
        [((5, 20), (25, 100)), ((0, 0), (3, 9)), ((12, 15), (40, 60))],
    )
    def test_posterior_mean_matches_quadrature(self, pilot, data):
        weights, alphas, betas = update(0.5, pilot, data)
        mean = float(np.sum(weights * alphas / (alphas + betas)))
        assert mean == pytest.approx(mixture_mean_quad(weights, alphas, betas), abs=1e-12)


class TestInformativeWeight:
    def test_fresh_prior(self):
        # a batch of pilots with no definitive data: every row is the prior
        y_pilot = np.array([0, 3, 5, 20, 11])
        weights, alphas, betas = _posterior_components(0.5, y_pilot, 20, np.zeros(5), 0)
        assert np.all(weights == 0.5)
        assert np.array_equal(alphas, np.column_stack([np.ones(5), 1.0 + y_pilot]))
        assert np.array_equal(betas, np.column_stack([np.ones(5), 21.0 - y_pilot]))

    def test_requires_two_components(self):
        # vague Beta(1, 1) first, informative second, for any batch size
        for m in (1, 4):
            arrays = _posterior_components(0.3, np.full(m, 2), 9, np.full(m, 5), 12)
            assert all(v.shape == (m, 2) for v in arrays)
            weights, alphas, betas = arrays
            assert np.array_equal(alphas[:, 0], np.full(m, 6.0))
            assert np.array_equal(betas[:, 0], np.full(m, 8.0))
            assert weights.sum(axis=1) == pytest.approx(np.ones(m), abs=1e-15)

    def test_unchanged_by_empty_data(self):
        for weight in (0.0, 0.5, 1.0):
            assert informative_weight((5, 20), (0, 0), weight) == weight
        assert informative_weight((5, 20), (0, 0), 0.3) == pytest.approx(0.3, abs=1e-15)
