"""The special functions and draws the model rests on: the Beta CDF behind
the recruitment probability, the beta-binomial log pmf behind the robust-MAP
weight update (read from per-count tables), and the binomial draws of each
replicate (read through a guide table)."""

import math

import numpy as np
import pytest

from pilot_borrow import simulate
from pilot_borrow.recruitment import reg_inc_beta
from pilot_borrow.simulate import (
    DesignScenario,
    _binomial_cdf,
    _draw_counts,
    _posterior_components,
    simulate_batch,
    trace_replicate,
)

from oracles import beta_binomial_marginal_quad, philox_binomial_draws

# ln Γ per element from math.lgamma, which raises at the poles 0, -1, -2, ...
lgamma_each = np.vectorize(math.lgamma, otypes=[np.float64])


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
    """The model's beta-binomial log pmf at integer shapes, as the weight
    update forms it: at prior weight 0.5 the log ratio of the informative
    weight, under Beta(a, b) = Beta(1 + y_pilot, 1 + n_pilot - y_pilot), to
    the vague one is ln P(y | a, b) - ln P(y | 1, 1), and the vague log pmf
    is -ln(n + 1)."""
    y = np.atleast_1d(y)
    a, b = int(a), int(b)
    weights, _, _ = _posterior_components(0.5, np.full(len(y), a - 1), a + b - 2, y, n)
    return np.log(weights[:, 1]) - np.log(weights[:, 0]) - math.log(n + 1)


class TestLogBetaBinomialPmf:
    """The marginal of the robust-MAP weight update, where each shape is one plus a count."""

    def test_uniform_prior_makes_counts_equally_likely(self):
        n = 7
        values = log_pmf(np.arange(n + 1), n, 1, 1)
        assert values == pytest.approx(np.full(n + 1, -math.log(n + 1)), abs=1e-12)

    def test_empty_experiment(self):
        assert log_pmf(0, 0, 3, 7)[0] == 0.0

    def test_frozen_quadrature_value(self):
        # oracle: quadrature of C(10,3) p^3 (1-p)^7 * Beta(p; 6, 16) over [0, 1]
        value = float(log_pmf(3, 10, 6, 16)[0])
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


def per_row_components(weight, y_pilot, n_pilot, y_def, n_def):
    """The weight update with each replicate's log marginals formed from its
    own counts, ln Γ read from the model's table: the reference whose bits
    the per-count tables of ``_posterior_components`` must give."""
    lgamma = simulate._lgamma_table(2 + n_pilot + n_def).__getitem__

    def log_pmf_rows(y, n, a, b):
        log_choose = lgamma(n + 1) - lgamma(y + 1) - lgamma(n - y + 1)
        log_beta_post = lgamma(a + y) + lgamma(b + n - y) - lgamma(a + b + n)
        log_beta_prior = lgamma(a) + lgamma(b) - lgamma(a + b)
        return log_choose + log_beta_post - log_beta_prior

    k_pilot = y_pilot.astype(np.intp)
    k_def = y_def.astype(np.intp)
    log_w_vague = math.log1p(-weight) if weight < 1.0 else -math.inf
    log_w_informative = math.log(weight) if weight > 0.0 else -math.inf
    log_post_vague = log_w_vague + log_pmf_rows(k_def, n_def, 1, 1)
    log_post_informative = log_w_informative + log_pmf_rows(
        k_def, n_def, 1 + k_pilot, 1 + n_pilot - k_pilot
    )
    y_pilot = y_pilot.astype(np.float64)
    y_def = y_def.astype(np.float64)
    peak = np.maximum(log_post_vague, log_post_informative)
    raw_vague = np.exp(log_post_vague - peak)
    raw_informative = np.exp(log_post_informative - peak)
    total = raw_vague + raw_informative
    weights = np.column_stack([raw_vague / total, raw_informative / total])
    alphas = np.column_stack([1.0 + y_def, 1.0 + y_pilot + y_def])
    betas = np.column_stack([1.0 + n_def - y_def, 1.0 + n_pilot - y_pilot + n_def - y_def])
    return weights, alphas, betas


def assert_same_bits(args):
    tabled = _posterior_components(*args)
    reference = per_row_components(*args)
    for got, expected in zip(tabled, reference):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestPerCountUpdate:
    """The weight update reads each replicate's log marginals from tables
    indexed by count, and gives the per-row formula's bits."""

    @pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "y_pilot,n_pilot,y_def,n_def",
        [
            ([0, 3, 12, 7, 0, 12], 12, [0, 40, 40, 0, 17, 21], 40),  # counts at 0 and n
            ([0, 0, 0], 0, [0, 5, 40], 40),  # no pilot
            ([0, 4, 9], 9, [0, 0, 0], 0),  # no definitive trial
            ([0], 0, [0], 0),
        ],
    )
    def test_edge_counts(self, weight, y_pilot, n_pilot, y_def, n_def):
        assert_same_bits((weight, np.array(y_pilot), n_pilot, np.array(y_def), n_def))

    def test_float_counts(self):
        # the arrays tests/test_map_prior.py passes: float definitive counts
        y_pilot = np.array([0, 3, 5, 20, 11])
        assert_same_bits((0.5, y_pilot, 20, np.zeros(5), 0))
        assert_same_bits((0.3, np.full(4, 2), 9, np.full(4, 5), 12))
        assert_same_bits((0.3, np.array([2.0, 9.0]), 9, np.array([5.0, 0.0]), 12))

    @pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
    def test_empty_batch(self, weight):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, prior_weight=weight
        )
        batch = simulate_batch(scenario, 206, 17, 17)
        assert batch.draws.shape == (0, 4)
        for arrays in (batch.control, batch.treatment):
            assert all(v.shape == (0, 2) for v in arrays)
        empty = np.zeros(0, dtype=np.int64)
        assert_same_bits((weight, empty, 20, empty, 103))
        assert_same_bits((weight, empty, 0, empty, 0))

    @pytest.mark.parametrize(
        "cell,n_total,replicates",
        [
            ((0.25, 1.7, 0.2), 206, 10_000),
            ((0.6, 1.3, 0.4), 172, 200),
            ((0.06, 1.9, 0.2), 736, 10_000),
            ((0.25, 1.05, 0.2), 20_000, 2_000),
        ],
    )
    def test_simulated_batches(self, cell, n_total, replicates):
        control_rate, risk_ratio, fraction = cell
        for weight in (0.0, 0.5, 1.0):
            scenario = DesignScenario(
                control_rate=control_rate,
                risk_ratio=risk_ratio,
                pilot_fraction=fraction,
                prior_weight=weight,
            )
            batch = simulate_batch(scenario, n_total, 0, replicates)
            y, sizes = batch.draws, batch.sizes
            for arm, components in ((0, batch.control), (1, batch.treatment)):
                args = (weight, y[:, arm], sizes[arm], y[:, arm + 2], sizes[arm + 2])
                assert_same_bits(args)
                for got, expected in zip(components, _posterior_components(*args)):
                    assert got.tobytes() == expected.tobytes()


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

    def test_table_matches_math_lgamma_at_extreme_counts(self, monkeypatch):
        # math.lgamma raises at its poles 0, -1, -2, ..., so the extreme counts
        # also show that the model forms no ln Γ argument below 1
        class Reference:
            def __getitem__(self, k):
                return lgamma_each(k)

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
            assert np.all(np.isfinite(tabled[0]))
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_lgamma_table", lambda top: Reference())
                untabled = _posterior_components(*args)
            for a, b in zip(tabled, untabled):
                assert np.array_equal(a, b)

    def test_largest_total_fills_the_table_to_its_bound(self, monkeypatch):
        # n_total = 2**20 with a pilot of nearly the same size: all four arms
        # hold 2**19, so the largest ln Γ argument is 2 + 2**20
        monkeypatch.setattr(simulate, "_lgamma_values", np.array([math.inf]))
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.999999999999
        )
        batch = simulate_batch(scenario, 1 << 20, 0, 4)
        assert batch.sizes == (1 << 19,) * 4
        assert len(simulate._lgamma_values) == (1 << 20) + 3
        assert np.all(np.isfinite(batch.superiority))


class TestBinomialCdf:
    """The CDF tables that map each uniform to a binomial count."""

    @pytest.mark.parametrize("p", [1e-9, 0.25, 0.78, 0.999999])
    @pytest.mark.parametrize("n", [0, 1, 71, 8000, 20_000])
    def test_matches_scipy(self, n, p):
        from scipy import stats

        table = _binomial_cdf(n, p)
        assert len(table) == n + 1 and table[-1] == 1.0
        assert np.all(np.diff(table) >= 0.0)
        expected = stats.binom.cdf(np.arange(n + 1), n, p)
        assert np.max(np.abs(table - expected)) <= 1e-12

    @pytest.mark.parametrize("p", [0.25, 0.999999])
    def test_half_the_largest_total(self, p):
        # an arm of 2**19, the largest the model draws: about 1.5e-11 at
        # p = 0.25, 0.78 and 0.999999, so the bound is 5e-11
        from scipy import stats

        n = 1 << 19
        table = _binomial_cdf(n, p)
        expected = stats.binom.cdf(np.arange(n + 1), n, p)
        assert table[-1] == 1.0
        assert np.max(np.abs(table - expected)) <= 5e-11

    def test_certain_success(self):
        assert list(_binomial_cdf(3, 1.0)) == [0.0, 0.0, 0.0, 1.0]
        assert list(_binomial_cdf(0, 1.0)) == [1.0]


def guide_tables():
    """CDF tables with every shape the guide table must handle, by name."""
    tables = {
        "no trial": _binomial_cdf(0, 0.3),
        "certain success": _binomial_cdf(30, 1.0),
        "small arm": _binomial_cdf(20, 0.25),
        "paper arm": _binomial_cdf(368, 0.06),
        "tails underflow": _binomial_cdf(10_000, 0.25),
        "rare successes": _binomial_cdf(8000, 1e-9),
    }
    assert np.any(tables["tails underflow"] == 0.0)  # tails that underflow to exact 0
    assert np.any(tables["rare successes"][:-1] == 1.0)  # 1.0 before the last entry
    return tables


def special_uniforms(cdf):
    """Every bucket edge b / 8192 (which holds the edges of every smaller power
    of two), each CDF entry below 1, 0.0 and the largest double below 1."""
    edges = np.arange(8192) / 8192
    entries = cdf[cdf < 1.0]
    return np.concatenate([edges, entries, [0.0, np.nextafter(1.0, 0.0)]])


class TestDrawCounts:
    """Counts read through a guide table equal a binary search of the CDF table."""

    @pytest.mark.parametrize("rows", [1, 63, 64, 8193, 1 << 14])
    @pytest.mark.parametrize("name", list(guide_tables()))
    def test_matches_searchsorted(self, name, rows):
        cdf = guide_tables()[name]
        special = special_uniforms(cdf)
        rng = np.random.default_rng(rows)
        # every special value appears in some batch of this many rows; the
        # rest of each batch is random uniforms
        for offset in range(0, len(special), rows):
            u = rng.random(rows)
            chunk = special[offset : offset + rows]
            u[: len(chunk)] = chunk
            rng.shuffle(u)
            assert np.array_equal(_draw_counts(cdf, u), cdf.searchsorted(u, side="right"))

    def test_simulated_batch_matches_searchsorted(self):
        # a 10,000-replicate batch reads its draws through the guide table
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2)
        batch = simulate_batch(scenario, 206, 0, 10_000)
        counter = np.array([0, 0, 0, 206], dtype=np.uint64)
        bitgen = np.random.Philox(key=scenario.master_seed, counter=counter)
        u = np.random.Generator(bitgen).random((10_000, 4))
        rates = (0.25, scenario.pilot_treatment_rate, 0.25, scenario.treatment_rate)
        for column, (size, rate) in enumerate(zip(batch.sizes, rates)):
            expected = _binomial_cdf(size, rate).searchsorted(u[:, column], side="right")
            assert np.array_equal(batch.draws[:, column], expected)


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
        reference = philox_binomial_draws(scenario.master_seed, 100, sizes, probabilities, range(8))
        assert list(reference[7]) == list(draws_a[7])

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
