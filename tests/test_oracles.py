"""Checks of the reference code in ``oracles.py`` itself.

The design-power oracles settle an acceptance check on their own, so they
are held here against brute force and against the older, slower oracles:
the exact enumerator against a sum over every count pair, the sampler
against the enumerator and against a brute-force sum that includes a pilot.
"""

import ast
import itertools
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import (
    beta_exceedance_window,
    exact_power_no_pilot,
    exceedance_decimal,
    exceedance_dblquad,
    exceedance_integer_shapes,
    exceedance_mc,
    robust_posterior_weight,
    sampled_power,
    updated_weight_quad,
)


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert modules and not any(m.split(".")[0] == "pilot_borrow" for m in modules)


@pytest.mark.parametrize("a1,b1,a2,b2", [(2, 5, 3, 4), (5, 2, 2, 7), (1, 11, 6, 6), (7, 3, 2, 9)])
def test_integer_shape_closed_form_against_double_quadrature(a1, b1, a2, b2):
    expected = exceedance_dblquad(a1, b1, a2, b2)
    assert exceedance_integer_shapes(a1, b1, a2, b2) == pytest.approx(expected, abs=1e-10)
    assert exceedance_decimal(a1, b1, a2, b2) == pytest.approx(expected, abs=1e-10)


def test_decimal_sum_against_closed_form_and_window():
    assert exceedance_decimal(1, 1, 1, 1) == 0.5
    assert exceedance_decimal(2, 1, 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    for shapes in [(371, 1003, 300, 1050), (2001, 6001, 4, 10), (9, 3, 2900, 1100), (2, 40, 1, 3)]:
        closed = exceedance_integer_shapes(*shapes)
        assert exceedance_decimal(*shapes) == pytest.approx(closed, abs=1e-9)
        window = beta_exceedance_window(*shapes)[0]
        assert exceedance_decimal(*shapes) == pytest.approx(window, abs=1e-9)


class TestBetaExceedanceWindow:
    def test_analytic_values(self):
        values = beta_exceedance_window([1, 2, 1], [1, 1, 1], [1, 1, 2], [1, 1, 1])
        assert values == pytest.approx([0.5, 2.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    @pytest.mark.parametrize(
        "a1,b1,a2,b2",
        [(2, 5, 3, 4), (5, 2, 2, 7), (10, 10, 8, 12), (1, 3, 4, 1), (1, 11, 6, 6)],
    )
    def test_against_double_quadrature(self, a1, b1, a2, b2):
        expected = exceedance_dblquad(a1, b1, a2, b2)
        assert beta_exceedance_window(a1, b1, a2, b2)[0] == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize(
        "a1,b1,a2,b2",
        [(371, 1003, 300, 1050), (1500, 4500, 1450, 4600), (2001, 6001, 4, 10), (9, 3, 2900, 1100)],
    )
    def test_large_and_mismatched_shapes_against_sampling(self, a1, b1, a2, b2):
        estimate, se = exceedance_mc(a1, b1, a2, b2, 1_000_000, seed=int(a1 + a2))
        value = beta_exceedance_window(a1, b1, a2, b2)[0]
        assert value == pytest.approx(estimate, abs=max(4 * se, 1e-6))


def _brute_force_no_pilot(control_rate, risk_ratio, n_total, threshold):
    n_c = (n_total + 1) // 2
    n_t = n_total - n_c
    power = 0.0
    for y_t, y_c in itertools.product(range(n_t + 1), range(n_c + 1)):
        superiority = exceedance_dblquad(1 + y_t, 1 + n_t - y_t, 1 + y_c, 1 + n_c - y_c)
        if superiority > threshold:
            power += stats.binom.pmf(y_t, n_t, risk_ratio * control_rate) * stats.binom.pmf(
                y_c, n_c, control_rate
            )
    return power


@pytest.mark.parametrize(
    "control_rate,risk_ratio,n_total,threshold",
    [(0.25, 1.3, 10, 0.975), (0.2, 3.0, 7, 0.9)],
)
def test_exact_no_pilot_matches_brute_force(control_rate, risk_ratio, n_total, threshold):
    exact = exact_power_no_pilot(control_rate, risk_ratio, n_total, threshold)
    brute = _brute_force_no_pilot(control_rate, risk_ratio, n_total, threshold)
    assert brute > 0.0
    assert exact == pytest.approx(brute, rel=1e-9, abs=1e-15)


def test_robust_posterior_weight_matches_quadrature():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n_pilot = int(rng.integers(0, 120))
        y_pilot = int(rng.integers(0, n_pilot + 1))
        n = int(rng.integers(1, 400))
        y = int(rng.integers(0, n + 1))
        weight = float(rng.uniform(0.05, 0.95))
        expected = updated_weight_quad(weight, 1.0 + y_pilot, 1.0 + n_pilot - y_pilot, y, n)
        assert robust_posterior_weight(weight, y_pilot, n_pilot, y, n) == pytest.approx(
            expected, abs=1e-9
        )


def test_sampler_matches_exact_without_pilot():
    exact = exact_power_no_pilot(0.25, 1.7, 230)
    estimate, se = sampled_power(0.25, 1.7, 0.0, 230, 200_000, seed=4242)
    assert abs(estimate - exact) <= 4 * se


def _brute_force_with_pilot(control_rate, risk_ratio, pilot_total, n_total, weight, threshold):
    """Power by summing over every (pilot, definitive) count of both arms."""

    @cache
    def pair(s_t, m_t, s_c, m_c):
        return exceedance_integer_shapes(1 + s_t, 1 + m_t - s_t, 1 + s_c, 1 + m_c - s_c)

    def arm(n_pilot, n, rate):
        # (probability, ((weight, successes, trials) per component)) per count pair
        outcomes = []
        for y_pilot, y in itertools.product(range(n_pilot + 1), range(n + 1)):
            w = updated_weight_quad(weight, 1.0 + y_pilot, 1.0 + n_pilot - y_pilot, y, n)
            prob = stats.binom.pmf(y_pilot, n_pilot, rate) * stats.binom.pmf(y, n, rate)
            outcomes.append((prob, ((1.0 - w, y, n), (w, y_pilot + y, n_pilot + n))))
        return outcomes

    control = arm((pilot_total + 1) // 2, (n_total + 1) // 2, control_rate)
    treatment = arm(pilot_total // 2, n_total // 2, risk_ratio * control_rate)
    power = 0.0
    for (prob_t, comps_t), (prob_c, comps_c) in itertools.product(treatment, control):
        superiority = sum(
            w_t * w_c * pair(s_t, m_t, s_c, m_c)
            for (w_t, s_t, m_t), (w_c, s_c, m_c) in itertools.product(comps_t, comps_c)
        )
        if superiority > threshold:
            power += prob_t * prob_c
    return power


def test_sampler_matches_brute_force_with_pilot():
    # n_total 12 at pilot fraction 5/6: a 5+5 pilot and a 6+6 definitive trial,
    # where holding the prior weights fixed would lower the power by 0.05
    brute = _brute_force_with_pilot(0.25, 2.5, 10, 12, weight=0.5, threshold=0.975)
    estimate, se = sampled_power(0.25, 2.5, 5 / 6, 12, 200_000, seed=99)
    assert 0.05 < brute < 0.95
    assert abs(estimate - brute) <= 4 * se
