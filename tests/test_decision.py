import numpy as np
import pytest

from pilot_borrow.decision import (
    _FORMS,
    DecisionRule,
    _exceedance_sum,
    beta_exceedance,
    decide,
    exceedance_pairs,
    mixture_superiority_batch,
    superiority_probability,
)
from pilot_borrow.map_prior import ArmCounts, BetaMixture, BetaParams, build_robust_map, update_posterior

from oracles import (
    beta_exceedance_window,
    exceedance_dblquad,
    exceedance_integer_shapes,
    exceedance_mc,
    mixture_superiority_mc,
)


def random_posterior(rng, max_n=800):
    pilot_n = int(rng.integers(0, 80))
    pilot_y = int(rng.integers(0, pilot_n + 1)) if pilot_n else 0
    def_n = int(rng.integers(2, max_n))
    def_y = int(rng.integers(0, def_n + 1))
    prior = build_robust_map(ArmCounts(pilot_y, pilot_n), weight=float(rng.uniform(0.2, 0.8)))
    return update_posterior(prior, ArmCounts(def_y, def_n))


class TestDecide:
    def test_threshold_is_strict(self):
        rule = DecisionRule(0.975)
        assert decide(0.98, rule) is True
        assert decide(0.975, rule) is False
        assert decide(0.50, rule) is False

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            DecisionRule(0.0)
        with pytest.raises(ValueError):
            DecisionRule(1.0)

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            decide(1.5, DecisionRule(0.975))


class TestBetaExceedance:
    def test_identical_uniforms(self):
        assert beta_exceedance(BetaParams(1, 1), BetaParams(1, 1)) == pytest.approx(0.5, abs=1e-8)

    def test_linear_vs_uniform(self):
        assert beta_exceedance(BetaParams(2, 1), BetaParams(1, 1)) == pytest.approx(
            2.0 / 3.0, abs=1e-8
        )

    def test_frozen_sampling_oracle(self):
        # 1e7-draw oracle (seed 123456789): 0.4962924, se 1.58e-4
        value = beta_exceedance(BetaParams(31, 91), BetaParams(26, 76))
        assert value == pytest.approx(0.4962924, abs=3e-4)

    @pytest.mark.parametrize(
        "a1,b1,a2,b2",
        [(2, 5, 3, 4), (5, 2, 2, 7), (10, 10, 8, 12), (1, 3, 4, 1)],
    )
    def test_against_double_quadrature(self, a1, b1, a2, b2):
        expected = exceedance_dblquad(a1, b1, a2, b2)
        assert beta_exceedance(BetaParams(a1, b1), BetaParams(a2, b2)) == pytest.approx(
            expected, abs=1e-7
        )

    def test_adding_a_success_never_lowers_exceedance(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for c, d in ((1, 1), (3, 2), (2, 5)):
                    lower = beta_exceedance(BetaParams(a, b), BetaParams(c, d))
                    higher = beta_exceedance(BetaParams(a + 1, b), BetaParams(c, d))
                    assert higher >= lower - 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_large_shape_sampling_agreement(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n1 = int(rng.integers(100, 1999))
        y1 = int(rng.integers(0, n1))
        n2 = int(rng.integers(100, 1999))
        y2 = int(rng.integers(0, n2))
        t = BetaParams(1.0 + y1, 1.0 + n1 - y1)
        c = BetaParams(1.0 + y2, 1.0 + n2 - y2)
        estimate, se = exceedance_mc(t.alpha, t.beta, c.alpha, c.beta, 1_000_000, 900 + seed)
        assert beta_exceedance(t, c) == pytest.approx(estimate, abs=max(4 * se, 1e-6))


class TestSuperiorityProbability:
    def test_identical_mixtures_give_half(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mixture = random_posterior(rng)
            assert superiority_probability(mixture, mixture) == pytest.approx(0.5, abs=1e-8)

    def test_single_component_degenerates_to_exceedance(self):
        t = BetaMixture(((1.0, BetaParams(2, 1)),))
        c = BetaMixture(((1.0, BetaParams(1, 1)),))
        assert superiority_probability(t, c) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            a = random_posterior(rng)
            b = random_posterior(rng)
            total = superiority_probability(a, b) + superiority_probability(b, a)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_component_order_is_irrelevant(self):
        rng = np.random.default_rng(23)
        a = random_posterior(rng)
        b = random_posterior(rng)
        a_swapped = BetaMixture((a.components[1], a.components[0]))
        b_swapped = BetaMixture((b.components[1], b.components[0]))
        assert superiority_probability(a_swapped, b_swapped) == pytest.approx(
            superiority_probability(a, b), abs=1e-12
        )

    def test_sampling_oracle_agreement(self):
        rng = np.random.default_rng(29)
        for seed in range(3):
            t = random_posterior(rng)
            c = random_posterior(rng)
            estimate, se = mixture_superiority_mc(t, c, 2_000_000, 40 + seed)
            assert superiority_probability(t, c) == pytest.approx(
                estimate, abs=max(4 * se, 1e-6)
            )


class TestBatchKernel:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(31)
        mixtures = [(random_posterior(rng), random_posterior(rng)) for _ in range(50)]
        w_t = np.array([[w for w, _ in t.components] for t, _ in mixtures])
        a_t = np.array([[p.alpha for _, p in t.components] for t, _ in mixtures])
        b_t = np.array([[p.beta for _, p in t.components] for t, _ in mixtures])
        w_c = np.array([[w for w, _ in c.components] for _, c in mixtures])
        a_c = np.array([[p.alpha for _, p in c.components] for _, c in mixtures])
        b_c = np.array([[p.beta for _, p in c.components] for _, c in mixtures])
        batch = mixture_superiority_batch(w_t, a_t, b_t, w_c, a_c, b_c)
        rule = DecisionRule(0.975)
        for k, (t, c) in enumerate(mixtures):
            scalar = superiority_probability(t, c)
            assert batch[k] == pytest.approx(scalar, abs=1e-12)
            assert decide(float(batch[k]), rule) == decide(scalar, rule)


def random_count_rows(rng, size, max_arm=10_000):
    """Posterior shapes (1 + y, 1 + n - y) of two arms with sizes up to max_arm."""
    n = rng.integers(1, max_arm + 1, size=(size, 2))
    p = rng.uniform(0.02, 0.98, size=(size, 1)) * rng.uniform(0.9, 1.1, size=(size, 2))
    y = rng.binomial(n, np.clip(p, 0.0, 1.0))
    shapes = [1 + y[:, 0], 1 + n[:, 0] - y[:, 0], 1 + y[:, 1], 1 + n[:, 1] - y[:, 1]]
    return np.column_stack(shapes).astype(np.float64)


class TestExactSum:
    @pytest.mark.parametrize("seed", range(3))
    def test_against_oracles_up_to_arm_size_ten_thousand(self, seed):
        rows = random_count_rows(np.random.default_rng(700 + seed), 60)
        rows[0] = (2501, 7501, 2401, 7601)  # both arms of n = 20000, p near 0.25
        values = exceedance_pairs(*rows.T)
        window = beta_exceedance_window(*rows.T)
        closed = np.array([exceedance_integer_shapes(*map(int, row)) for row in rows])
        assert np.max(np.abs(values - window)) <= 1e-9
        assert np.max(np.abs(values - closed)) <= 1e-9

    def test_swapping_the_pair_gives_the_complement(self):
        rows = random_count_rows(np.random.default_rng(711), 500)
        forward = exceedance_pairs(*rows.T)
        backward = exceedance_pairs(rows[:, 2], rows[:, 3], rows[:, 0], rows[:, 1])
        assert np.max(np.abs(forward + backward - 1.0)) <= 1e-12

    def test_all_four_forms_agree(self):
        rng = np.random.default_rng(713)
        rows = random_count_rows(rng, 200, max_arm=2000)
        tied = rng.integers(1, 400, size=(50, 1)).astype(np.float64)
        ties = np.column_stack([tied, tied, tied, tied + rng.integers(0, 3, size=(50, 1))])
        rows = np.vstack([rows, ties, ties[:, [3, 2, 1, 0]]])
        values = []
        for form, columns in enumerate(_FORMS):
            sums = _exceedance_sum(rows[:, columns])
            values.append(1.0 - sums if form % 2 else sums)
        for other in values[1:]:
            assert np.max(np.abs(other - values[0])) <= 1e-11

    def test_value_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(717)
        rows = random_count_rows(rng, 10_000, max_arm=3000)
        values = exceedance_pairs(*rows.T)
        perm = rng.permutation(rows.shape[0])
        assert np.array_equal(exceedance_pairs(*rows[perm].T), values[perm])
        for k in range(0, rows.shape[0], 499):
            alone = beta_exceedance(BetaParams(*rows[k, :2]), BetaParams(*rows[k, 2:]))
            assert alone == values[k]

    @pytest.mark.parametrize("shape", [2.5, 0.5, np.nan, np.inf])
    def test_rejects_shapes_that_are_not_positive_integers(self, shape):
        with pytest.raises(ValueError):
            exceedance_pairs([shape], [3.0], [2.0], [4.0])

    def test_raw_sums_stay_within_the_unit_interval(self):
        # Every form's sum is a probability. Rounding of log t_i, whose size
        # reaches about 2700 at these shapes, leaves up to a few 1e-12 above 1.
        rows = random_count_rows(np.random.default_rng(719), 400)
        rows[:4] = [
            (2971, 7031, 3001, 7001),
            (7001, 3001, 6901, 3101),
            (5001, 5001, 5001, 5001),
            (1, 1, 1, 1),
        ]
        for form, columns in enumerate(_FORMS):
            sums = _exceedance_sum(rows[:, columns])
            assert sums.min() >= 0.0
            assert sums.max() <= 1.0 + 1e-11
