import tracemalloc

import numpy as np
import pytest

from pilot_borrow import decision
from pilot_borrow.decision import (
    _beta_binomial_cdf,
    _exceedance_unique,
    mixture_superiority_batch,
)
from pilot_borrow.simulate import (
    DesignScenario,
    _posterior_components,
    simulate_batch,
    trace_replicate,
)

from oracles import (
    beta_exceedance_window,
    exceedance_decimal,
    exceedance_dblquad,
    exceedance_integer_shapes,
    exceedance_mc,
    mixture_superiority_mc,
)


def random_posterior(rng, max_n=800):
    """One arm's robust-MAP posterior (weights, alphas, betas), each of shape (1, 2)."""
    pilot_n = int(rng.integers(0, 80))
    pilot_y = int(rng.integers(0, pilot_n + 1)) if pilot_n else 0
    def_n = int(rng.integers(2, max_n))
    def_y = int(rng.integers(0, def_n + 1))
    weight = float(rng.uniform(0.2, 0.8))
    return _posterior_components(weight, np.array([pilot_y]), pilot_n, np.array([def_y]), def_n)


def superiority(t, c) -> float:
    return float(mixture_superiority_batch(*t, *c)[0])


def exceedance(a1, b1, a2, b2) -> float:
    return float(_exceedance_unique(np.array([[a1, b1, a2, b2]], dtype=np.float64))[0])


class TestDecide:
    def test_threshold_is_strict(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2)
        prob = float(trace_replicate(scenario, 206, 3).superiority[0])
        assert 0.0 < prob < 1.0
        at = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, threshold=prob)
        below = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2,
            threshold=float(np.nextafter(prob, 0.0)),
        )
        assert not trace_replicate(at, 206, 3).success[0]
        assert trace_replicate(below, 206, 3).success[0]

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, threshold=0.0)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, threshold=1.0)

    def test_probability_domain(self):
        rng = np.random.default_rng(37)
        pairs = [(random_posterior(rng, 20), random_posterior(rng, 20)) for _ in range(200)]
        t = [np.vstack(arrays) for arrays in zip(*(t for t, _ in pairs))]
        c = [np.vstack(arrays) for arrays in zip(*(c for _, c in pairs))]
        probs = mixture_superiority_batch(*t, *c)
        assert probs.min() >= 0.0 and probs.max() <= 1.0


class TestBetaExceedance:
    def test_identical_uniforms(self):
        assert exceedance(1, 1, 1, 1) == pytest.approx(0.5, abs=1e-8)

    def test_linear_vs_uniform(self):
        assert exceedance(2, 1, 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_frozen_sampling_oracle(self):
        # 1e7-draw oracle (seed 123456789): 0.4962924, se 1.58e-4
        value = exceedance(31, 91, 26, 76)
        assert value == pytest.approx(0.4962924, abs=3e-4)

    @pytest.mark.parametrize(
        "a1,b1,a2,b2",
        [(2, 5, 3, 4), (5, 2, 2, 7), (10, 10, 8, 12), (1, 3, 4, 1)],
    )
    def test_against_double_quadrature(self, a1, b1, a2, b2):
        expected = exceedance_dblquad(a1, b1, a2, b2)
        assert exceedance(a1, b1, a2, b2) == pytest.approx(expected, abs=1e-7)

    def test_adding_a_success_never_lowers_exceedance(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for c, d in ((1, 1), (3, 2), (2, 5)):
                    lower = exceedance(a, b, c, d)
                    higher = exceedance(a + 1, b, c, d)
                    assert higher >= lower - 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_large_shape_sampling_agreement(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n1 = int(rng.integers(100, 1999))
        y1 = int(rng.integers(0, n1))
        n2 = int(rng.integers(100, 1999))
        y2 = int(rng.integers(0, n2))
        shapes = (1.0 + y1, 1.0 + n1 - y1, 1.0 + y2, 1.0 + n2 - y2)
        estimate, se = exceedance_mc(*shapes, 1_000_000, 900 + seed)
        assert exceedance(*shapes) == pytest.approx(estimate, abs=max(4 * se, 1e-6))


class TestSuperiorityProbability:
    def test_identical_mixtures_give_half(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mixture = random_posterior(rng)
            assert superiority(mixture, mixture) == pytest.approx(0.5, abs=1e-8)

    def test_single_component_degenerates_to_exceedance(self):
        t = (np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]]))
        c = (np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert superiority(t, c) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            a = random_posterior(rng)
            b = random_posterior(rng)
            total = superiority(a, b) + superiority(b, a)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_component_order_is_irrelevant(self):
        rng = np.random.default_rng(23)
        a = random_posterior(rng)
        b = random_posterior(rng)
        a_swapped = tuple(v[:, ::-1] for v in a)
        b_swapped = tuple(v[:, ::-1] for v in b)
        assert superiority(a_swapped, b_swapped) == pytest.approx(superiority(a, b), abs=1e-12)

    def test_sampling_oracle_agreement(self):
        rng = np.random.default_rng(29)
        for seed in range(3):
            t = random_posterior(rng)
            c = random_posterior(rng)
            estimate, se = mixture_superiority_mc(
                tuple(v[0] for v in t), tuple(v[0] for v in c), 2_000_000, 40 + seed
            )
            assert superiority(t, c) == pytest.approx(estimate, abs=max(4 * se, 1e-6))


def random_count_rows(rng, size, max_arm=10_000):
    """Posterior shapes (1 + y, 1 + n - y) of two arms with sizes up to max_arm."""
    n = rng.integers(1, max_arm + 1, size=(size, 2))
    p = rng.uniform(0.02, 0.98, size=(size, 1)) * rng.uniform(0.9, 1.1, size=(size, 2))
    y = rng.binomial(n, np.clip(p, 0.0, 1.0))
    shapes = [1 + y[:, 0], 1 + n[:, 0] - y[:, 0], 1 + y[:, 1], 1 + n[:, 1] - y[:, 1]]
    return np.column_stack(shapes).astype(np.float64)


def heavy_tailed_rows(rng, size, max_arm=10_000):
    """Count rows in which one Beta has a shape of 1 to 3 and the other shape up to max_arm.

    Such a Beta sits near 0 or 1 with a long tail, and so does the
    beta-binomial law whose CDF gives the row's value.
    """
    rows = random_count_rows(rng, size, max_arm)
    index = np.arange(size)
    column = rng.integers(0, 4, size=size)
    rows[index, column] = rng.integers(1, 4, size=size)
    rows[index, column ^ 1] = rng.integers(1, max_arm + 1, size=size)
    return rows


def form_cdfs(rows):
    """The beta-binomial CDF value of each row (a1, b1, a2, b2) in four forms, unclipped.

    As given, P(X > Y); swapped, P(Y > X); reflected (p -> 1 - p),
    P(1 - X > 1 - Y) = P(Y > X); and both, P(1 - Y > 1 - X) = P(X > Y).
    Each reads a different law and cut-off.
    """
    a1, b1, a2, b2 = rows.T
    return [
        _beta_binomial_cdf(a1 - 1, a1 + b1 - 1, a2, b2),
        _beta_binomial_cdf(a2 - 1, a2 + b2 - 1, a1, b1),
        _beta_binomial_cdf(b1 - 1, a1 + b1 - 1, b2, a2),
        _beta_binomial_cdf(b2 - 1, a2 + b2 - 1, b1, a1),
    ]


class TestExactSum:
    @pytest.mark.parametrize("seed", range(3))
    def test_against_oracles_up_to_arm_size_ten_thousand(self, seed):
        rows = random_count_rows(np.random.default_rng(700 + seed), 60)
        rows[0] = (2501, 7501, 2401, 7601)  # both arms of n = 20000, p near 0.25
        values = _exceedance_unique(rows)
        window = beta_exceedance_window(*rows.T)
        closed = np.array([exceedance_integer_shapes(*map(int, row)) for row in rows])
        assert np.max(np.abs(values - window)) <= 1e-9
        assert np.max(np.abs(values - closed)) <= 1e-9

    def test_swapping_the_pair_gives_the_complement(self):
        rng = np.random.default_rng(711)
        rows = np.vstack([random_count_rows(rng, 500), heavy_tailed_rows(rng, 500)])
        forward = _exceedance_unique(rows)
        backward = _exceedance_unique(rows[:, [2, 3, 0, 1]])
        assert np.max(np.abs(forward + backward - 1.0)) <= 1e-12

    def test_all_four_forms_agree(self):
        rng = np.random.default_rng(713)
        rows = random_count_rows(rng, 200, max_arm=2000)
        tied = rng.integers(1, 400, size=(50, 1)).astype(np.float64)
        ties = np.column_stack([tied, tied, tied, tied + rng.integers(0, 3, size=(50, 1))])
        rows = np.vstack([rows, ties, ties[:, [3, 2, 1, 0]], heavy_tailed_rows(rng, 200)])
        given, swapped, reflected, both = form_cdfs(rows)
        values = [given, 1.0 - swapped, 1.0 - reflected, both]
        for other in values[1:]:
            assert np.max(np.abs(other - values[0])) <= 1e-11

    def test_widening_alone_reaches_the_tolerance(self, monkeypatch):
        # First windows of one standard deviation leave out about a third of
        # the mass; the tail bound must widen every group until the values
        # match those of the default windows and the exact sums.
        rng = np.random.default_rng(727)
        rows = np.vstack([random_count_rows(rng, 300), heavy_tailed_rows(rng, 300)])
        rows[0] = (2501, 7501, 2401, 7601)
        expected = _exceedance_unique(rows)
        monkeypatch.setattr(decision, "_WINDOW_SD", 1.0)
        monkeypatch.setattr(decision, "_SKEW_SD", 0.0)
        monkeypatch.setattr(decision, "_MIN_SD", 1.0)
        assert np.max(np.abs(_exceedance_unique(rows) - expected)) <= 1e-13
        for row in rows[:8]:
            assert exceedance(*row) == pytest.approx(exceedance_decimal(*map(int, row)), abs=1e-12)

    def test_value_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(717)
        rows = random_count_rows(rng, 10_000, max_arm=3000)
        values = _exceedance_unique(rows)
        perm = rng.permutation(rows.shape[0])
        assert np.array_equal(_exceedance_unique(rows[perm]), values[perm])
        for k in range(0, rows.shape[0], 499):
            assert exceedance(*rows[k]) == values[k]

    @pytest.mark.parametrize("shape", [2.5, 0.5, np.nan, np.inf])
    def test_rejects_shapes_that_are_not_positive_integers(self, shape):
        with pytest.raises(ValueError):
            _exceedance_unique(np.array([[shape, 3.0, 2.0, 4.0]]))

    def test_raw_sums_stay_within_the_unit_interval(self):
        # Every form is a probability: a running sum of nonnegative terms
        # over the window's total.
        rng = np.random.default_rng(719)
        rows = np.vstack([random_count_rows(rng, 400), heavy_tailed_rows(rng, 200)])
        rows[:4] = [
            (2971, 7031, 3001, 7001),
            (7001, 3001, 6901, 3101),
            (5001, 5001, 5001, 5001),
            (1, 1, 1, 1),
        ]
        for cdf in form_cdfs(rows):
            assert cdf.min() >= 0.0
            assert cdf.max() <= 1.0 + 1e-11

    def test_against_the_decimal_oracle(self):
        rng = np.random.default_rng(723)
        rows = np.vstack([random_count_rows(rng, 40), heavy_tailed_rows(rng, 20)])
        rows[0] = (2501, 7501, 2401, 7601)  # both arms of n = 20000, p near 0.25
        expected = np.array([exceedance_decimal(*map(int, row)) for row in rows])
        assert np.max(np.abs(_exceedance_unique(rows) - expected)) <= 1e-12


def unique_rows_reference(rows):
    """The exact sum with duplicate rows collapsed by np.unique(axis=0) first."""
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return _exceedance_unique(unique)[inverse.reshape(-1)]


def with_duplicates(rng, rows, duplicates):
    """``rows`` plus ``duplicates`` copies of randomly chosen rows, shuffled."""
    copies = rows[rng.integers(0, rows.shape[0], size=duplicates)]
    return rng.permutation(np.vstack([rows, copies]))


class TestRowDedup:
    def check_against_reference(self, rows):
        values = _exceedance_unique(rows)
        assert values.tobytes() == unique_rows_reference(rows).tobytes()

    def test_matches_np_unique_on_count_rows(self):
        rng = np.random.default_rng(731)
        rows = with_duplicates(rng, random_count_rows(rng, 50_000, max_arm=300), 20_000)
        assert rows.shape == (70_000, 4)
        self.check_against_reference(rows)

    @pytest.mark.parametrize("bits", [15, 21])
    def test_shapes_above_any_packed_width(self, bits):
        # Two shapes per row sit just above 2**bits, so a key packing each
        # shape into `bits` bits would alias rows; the other two stay small,
        # which keeps the sum short.
        rng = np.random.default_rng(737 + bits)
        size = 5_000
        large = 2.0**bits + rng.integers(-3, 4, size=(size, 2))
        small = rng.integers(1, 30, size=(size, 2)).astype(np.float64)
        rows = np.column_stack([large[:, 0], small[:, 0], small[:, 1], large[:, 1]])
        rows = with_duplicates(rng, rows, 2_000)
        self.check_against_reference(rows)

    def test_empty_input(self):
        values = _exceedance_unique(np.empty((0, 4)))
        assert values.shape == (0,) and values.dtype == np.float64

    @pytest.mark.parametrize("layout", ["pair after pair", "shuffled", "sparse run"])
    def test_any_row_order_matches_one_row_at_a_time(self, layout):
        """A real batch's four pairs in the order the superiority sum sends
        them (one run of equal (m, a_y + b_y) per pair), the same rows
        shuffled (runs of length one), and one run whose a_y lie 10^9 apart."""
        rng = np.random.default_rng(743)
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=300, master_seed=743
        )
        batch = simulate_batch(scenario, 206, 0, scenario.replicates)
        (_, a_t, b_t), (_, a_c, b_c) = batch.treatment, batch.control
        rows = np.vstack(
            [
                np.column_stack([a_t[:, i], b_t[:, i], a_c[:, j], b_c[:, j]])
                for i in range(2)
                for j in range(2)
            ]
        )
        if layout == "shuffled":
            rows = rng.permutation(rows)
        elif layout == "sparse run":
            a_y = np.array([1.0, 2.0, 5e8, 1e9 - 1.0, 1e9, 2.0, 1.0])
            rows = np.array([[a_x, 8.0 - a_x, y, 1e9 + 1.0 - y] for a_x in (1, 4, 7) for y in a_y])
        one_at_a_time = np.array([exceedance(*row) for row in rows])
        assert _exceedance_unique(rows).tobytes() == one_at_a_time.tobytes()

    def test_keys_past_float_precision_raise(self):
        # two runs whose a_y span 2**52 each: their keys would pass 2**53
        wide = 2.0**52 + 1.0
        rows = np.array([[a_x, 2.0, a_y, 1.0 + wide - a_y] for a_x in (2, 3) for a_y in (1, wide)])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            _exceedance_unique(rows)
        assert _exceedance_unique(rows[:2]).tobytes() == np.array(
            [exceedance(*row) for row in rows[:2]]
        ).tobytes()

    @pytest.mark.parametrize("shape", [np.nan, np.inf, 2.5])
    def test_bad_shape_among_duplicates_still_raises(self, shape):
        rows = np.tile([3.0, 4.0, 2.0, 5.0], (6, 1))
        rows[[1, 4], 2] = shape
        with pytest.raises(ValueError):
            _exceedance_unique(rows)

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("shape", [np.nan, np.inf, -np.inf, 0.0, 0.5, 2.5])
    def test_one_bad_shape_in_the_last_row_of_a_large_call_raises(self, shape, column):
        rows = random_count_rows(np.random.default_rng(751), 10_000)
        rows[-1, column] = shape
        with pytest.raises(ValueError, match="positive integers"):
            _exceedance_unique(rows)

    def test_sparse_keys_are_grouped_in_memory_bounded_by_the_rows(self):
        """100 runs of two rows whose a_y lie 2**20 apart span about 10**8
        keys; the call groups them without an array of that span."""
        rows = np.array(
            [
                [a_x, 3.0, a_y, s - a_y]
                for run in range(100)
                for a_x, s in [(1.0 + run % 5, 2.0**20 + 2.0 + run)]
                for a_y in (1.0, 2.0**20 + 1.0)
            ]
        )
        one_at_a_time = np.array([exceedance(*row) for row in rows])
        tracemalloc.start()
        try:
            values = _exceedance_unique(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.tobytes() == one_at_a_time.tobytes()
        assert peak < 16 << 20

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_and_sorted_key_groups_give_the_same_bits(self, monkeypatch, seed):
        """A real batch's rows, shuffled rows and duplicates, grouped by the
        dense key map and by np.unique."""
        rng = np.random.default_rng(761 + seed)
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=2_000,
            master_seed=761 + seed,
        )
        batch = simulate_batch(scenario, 206 + 300 * seed, 0, scenario.replicates)
        (_, a_t, b_t), (_, a_c, b_c) = batch.treatment, batch.control
        pairs = [
            np.column_stack([a_t[:, i], b_t[:, i], a_c[:, j], b_c[:, j]])
            for i in range(2)
            for j in range(2)
        ]
        rows = np.vstack([*pairs, with_duplicates(rng, random_count_rows(rng, 3_000, 400), 500)])
        dense_map = []
        key_groups = decision._key_groups

        def recorded(key, span):
            dense_map.append(span <= decision._KEY_SPAN * key.shape[0])
            return key_groups(key, span)

        monkeypatch.setattr(decision, "_key_groups", recorded)
        dense = _exceedance_unique(rows)
        monkeypatch.setattr(decision, "_KEY_SPAN", 0)
        assert _exceedance_unique(rows).tobytes() == dense.tobytes()
        assert dense_map == [True, False]


def one_call_superiority(w_t, a_t, b_t, w_c, a_c, b_c):
    """The superiority sum with the rows of every component pair in one call."""
    n, k_t = a_t.shape
    k_c = a_c.shape[1]
    rows = np.column_stack(
        [
            np.repeat(a_t, k_c, axis=1).reshape(-1),
            np.repeat(b_t, k_c, axis=1).reshape(-1),
            np.tile(a_c, (1, k_t)).reshape(-1),
            np.tile(b_c, (1, k_t)).reshape(-1),
        ]
    )
    values = _exceedance_unique(rows).reshape(n, k_t, k_c)
    total = np.zeros(n)
    for i in range(k_t):
        for j in range(k_c):
            total += w_t[:, i] * w_c[:, j] * values[:, i, j]
    return np.clip(total, 0.0, 1.0)


class TestPairCalls:
    """Pairs go to the grouped CDF whole, as many to a call as keep it within
    _CALL_ROWS rows (one to a call in a larger batch), and a pair equal to
    an earlier one is evaluated once; no value moves."""

    @pytest.mark.parametrize("replicates", [200, 5_000, 10_000, 20_000])
    @pytest.mark.parametrize(
        "pilot_fraction,n_total,distinct",
        [
            pytest.param(0.0, 400, 1, id="no-pilot"),
            pytest.param(0.2, 400, 4, id="pilot"),
            # a pilot of one participant leaves the treatment pilot arm empty
            pytest.param(0.01, 100, 2, id="one-participant-pilot"),
        ],
    )
    def test_bit_identical_to_one_call(
        self, monkeypatch, replicates, pilot_fraction, n_total, distinct
    ):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=pilot_fraction,
            replicates=replicates, master_seed=811,
        )
        batch = simulate_batch(scenario, n_total, 0, replicates)
        reference = one_call_superiority(*batch.treatment, *batch.control)
        calls = []
        exceedance_unique = decision._exceedance_unique

        def counted(rows):
            calls.append(rows.shape[0])
            return exceedance_unique(rows)

        monkeypatch.setattr(decision, "_exceedance_unique", counted)
        superiority = mixture_superiority_batch(*batch.treatment, *batch.control)
        assert np.array_equal(superiority, reference)
        assert np.array_equal(superiority, batch.superiority)
        assert sum(calls) == distinct * replicates
        if replicates <= decision._CALL_ROWS:  # whole pairs, as many as fit in a call
            assert max(calls) <= decision._CALL_ROWS
            assert len(calls) == -(-distinct // (decision._CALL_ROWS // replicates))
        else:  # one whole pair to a call
            assert calls == [replicates] * distinct
