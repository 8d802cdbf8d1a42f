import math
from dataclasses import replace

import numpy as np
import pytest

from pilot_borrow import simulate
from pilot_borrow.decision import exceedance_pairs
from pilot_borrow.runner import SEARCH_N_HI
from pilot_borrow.simulate import (
    _REPLICATE_CHUNK,
    DesignScenario,
    GridCell,
    _chunk_bounds,
    estimate_power,
    find_min_sample_size,
    pilot_size,
    replicate_stream,
    simulate_batch,
    split_arms,
    trace_replicate,
)

from oracles import beta_exceedance_window, robust_posterior_weight

FAST = dict(replicates=1500, master_seed=90210)


def stream_draws(scenario, n_total, replicates):
    """(pilot control, pilot treatment, control, treatment) draws, one row per
    replicate, each from its own ``replicate_stream``."""
    pilot_c, pilot_t = split_arms(pilot_size(scenario.pilot_fraction, n_total))
    control, treatment = split_arms(n_total)
    arms = (
        (pilot_c, scenario.control_rate),
        (pilot_t, scenario.pilot_treatment_rate),
        (control, scenario.control_rate),
        (treatment, scenario.treatment_rate),
    )
    rows = []
    for index in range(replicates):
        rng = replicate_stream(scenario.master_seed, n_total, index)
        rows.append([rng.binomial(n, p) for n, p in arms])
    return np.array(rows), (pilot_c, pilot_t, control, treatment)


def single_component_decisions(scenario, n_total, informative: bool) -> np.ndarray:
    """Decisions when each arm keeps one Beta component: the vague Beta(1 + y,
    1 + n - y), or the informative one, which adds the pilot counts."""
    y, (pilot_c, pilot_t, n_c, n_t) = stream_draws(scenario, n_total, scenario.replicates)
    y_c, y_t = y[:, 2], y[:, 3]
    if informative:
        y_c, y_t = y_c + y[:, 0], y_t + y[:, 1]
        n_c, n_t = n_c + pilot_c, n_t + pilot_t
    prob = exceedance_pairs(1 + y_t, 1 + n_t - y_t, 1 + y_c, 1 + n_c - y_c)
    return prob > scenario.threshold


class TestSplitArms:
    @pytest.mark.parametrize("total,expected", [(206, (103, 103)), (147, (74, 73)), (0, (0, 0)), (1, (1, 0))])
    def test_examples(self, total, expected):
        assert split_arms(total) == expected

    def test_sums_to_total(self):
        for total in range(0, 50):
            control, treatment = split_arms(total)
            assert control + treatment == total
            assert 0 <= control - treatment <= 1

    def test_negative_total(self):
        with pytest.raises(ValueError):
            split_arms(-1)


class TestPilotSize:
    @pytest.mark.parametrize(
        "fraction,n,expected",
        [(0.2, 736, 147), (0.4, 650, 260), (0.2, 206, 41), (0.4, 192, 77), (0.2, 186, 37), (0.4, 172, 69)],
    )
    def test_reference_values(self, fraction, n, expected):
        assert pilot_size(fraction, n) == expected

    def test_half_rounds_away_from_zero(self):
        assert pilot_size(0.25, 206) == 52  # 51.5 -> 52
        assert pilot_size(0.0, 400) == 0


class TestDesignScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.0, risk_ratio=1.5)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.6, risk_ratio=1.9)  # p_T > 1
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.5, risk_ratio=1.5, pilot_rr_multiplier=1.5)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=1.0)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, threshold=1.0)
        with pytest.raises(ValueError):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, replicates=0)

    @pytest.mark.parametrize(
        "setting", [{"master_seed": 7.5}, {"replicates": True}, {"replicates": 300.5}]
    )
    def test_run_settings_are_checked_by_type(self, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, **setting)

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda s: estimate_power(s, 40, workers=0), "workers"),
            (lambda s: estimate_power(s, 40, workers=-3), "workers"),
            (lambda s: estimate_power(s, 40, workers=2.5), "workers"),
            (lambda s: estimate_power(replace(s, replicates=5000), 40, workers=2.5), "workers"),
            (lambda s: estimate_power(s, 40, workers=True), "workers"),
            (lambda s: find_min_sample_size(s, workers=0), "workers"),
            (lambda s: find_min_sample_size(s, workers=2.5), "workers"),
            (lambda s: find_min_sample_size(s, workers=True), "workers"),
            (lambda s: find_min_sample_size(s, target_power=True), "target_power"),
            (lambda s: find_min_sample_size(s, target_power=float("nan")), "target_power"),
            (lambda s: estimate_power(s, 206.0), "n_total"),
            (lambda s: estimate_power(s, True), "n_total"),
            (lambda s: estimate_power(s, (1 << 64) + 2), "n_total"),
            (lambda s: trace_replicate(s, 206.0, 0), "n_total"),
            (lambda s: trace_replicate(s, (1 << 64) + 2, 0), "n_total"),
            (lambda s: trace_replicate(s, 40, 1 << 64), "index"),
            (lambda s: trace_replicate(s, 40, 1.0), "index"),
        ],
    )
    def test_simulation_arguments_are_checked_by_type_and_range(self, call, name):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, replicates=20)
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(scenario)

    def test_last_replicate_index_runs(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7)
        assert trace_replicate(scenario, 40, (1 << 64) - 1).draws.shape == (1, 4)

    @pytest.mark.parametrize("field", ["risk_ratio", "pilot_rr_multiplier"])
    def test_nan_is_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            DesignScenario(**{"control_rate": 0.25, "risk_ratio": 1.7, field: float("nan")})

    def test_error_names_config_key_then_field(self):
        message = r"^p_C \(control_rate\) must lie in \(0, 1\), got 1.5$"
        with pytest.raises(ValueError, match=message):
            DesignScenario(control_rate=1.5, risk_ratio=1.7)

    def test_is_a_grid_cell_with_its_positional_order(self):
        scenario = DesignScenario(0.25, 1.7, 0.2, 0.9, 0.3, 0.95, 100, 7)
        assert isinstance(scenario, GridCell)
        assert scenario == DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, pilot_rr_multiplier=0.9,
            prior_weight=0.3, threshold=0.95, replicates=100, master_seed=7,
        )

    def test_derived_rates(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_rr_multiplier=0.8)
        assert scenario.treatment_rate == pytest.approx(0.425)
        assert scenario.pilot_treatment_rate == pytest.approx(0.34)


class TestReplicateStream:
    def test_reproducible_and_distinct(self):
        a = replicate_stream(123, 100, 7).binomial(50, 0.5, 8)
        b = replicate_stream(123, 100, 7).binomial(50, 0.5, 8)
        c = replicate_stream(123, 100, 8).binomial(50, 0.5, 8)
        d = replicate_stream(123, 102, 7).binomial(50, 0.5, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestSimulateReplicate:
    def test_deterministic(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, **FAST)
        first = trace_replicate(scenario, 100, 3)
        second = trace_replicate(scenario, 100, 3)
        assert np.array_equal(first.draws, second.draws)
        assert np.array_equal(first.superiority, second.superiority)
        assert first.success[0] == second.success[0]

    def test_requires_two_participants(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, **FAST)
        with pytest.raises(ValueError):
            trace_replicate(scenario, 1, 0)

    def test_trace_is_consistent(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.3, **FAST)
        trace = trace_replicate(scenario, 120, 11)
        pilot_c, pilot_t, control, treatment = trace.sizes
        assert pilot_c + pilot_t == pilot_size(0.3, 120)
        assert control + treatment == 120
        assert 0.0 <= trace.superiority[0] <= 1.0
        assert trace.success[0] == (trace.superiority[0] > scenario.threshold)
        y_pilot_c, _, y_c, _ = trace.draws[0]
        _, alphas, _ = trace.control
        assert alphas[0, 0] == 1.0 + y_c
        assert alphas[0, 1] == 1.0 + y_pilot_c + y_c

    def test_no_pilot_equals_vague_prior_reference(self):
        scenario = DesignScenario(
            control_rate=0.3, risk_ratio=1.6, pilot_fraction=0.0, replicates=300, master_seed=90210
        )
        reference = single_component_decisions(scenario, 60, informative=False)
        for index in range(scenario.replicates):
            mixture_path = trace_replicate(scenario, 60, index).success[0]
            assert mixture_path == reference[index], f"replicate {index} diverged"


class TestEstimatePower:
    def test_matches_replicate_loop_exactly(self):
        # Of n_total = 24, 0.1 gives pilot arms of one each, 0.05 a pilot of
        # one with an empty treatment arm, and 0.0 leaves both pilot arms empty.
        n_total = 24
        for pilot_fraction in (0.2, 0.1, 0.05, 0.0):
            scenario = DesignScenario(
                control_rate=0.3, risk_ratio=1.8, pilot_fraction=pilot_fraction, replicates=400,
                master_seed=5150,
            )
            estimate = estimate_power(scenario, n_total)
            manual = sum(
                bool(trace_replicate(scenario, n_total, i).success[0])
                for i in range(scenario.replicates)
            )
            assert round(estimate.power * scenario.replicates) == manual, pilot_fraction
            draws, _ = stream_draws(scenario, n_total, scenario.replicates)
            batch = simulate_batch(scenario, n_total, 0, scenario.replicates)
            assert np.array_equal(batch.draws, draws), pilot_fraction

    def test_bit_identical_across_runs_and_workers(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=9000, master_seed=77
        )
        serial = estimate_power(scenario, 80, workers=1)
        again = estimate_power(scenario, 80, workers=1)
        parallel = estimate_power(scenario, 80, workers=2)
        assert serial == again
        assert serial == parallel

    @pytest.mark.parametrize("replicates", [1, 4095, 4097, 8193, 10_000])
    def test_any_chunk_layout_counts_the_same_successes(self, replicates):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=replicates,
            master_seed=78,
        )
        expected = np.count_nonzero(simulate_batch(scenario, 40, 0, replicates).success)
        for workers in (1, 2, 3):
            estimate = estimate_power(scenario, 40, workers=workers)
            assert round(estimate.power * replicates) == expected, f"workers={workers}"

    def test_chunks_are_balanced(self):
        for replicates in (1, 4095, 4096, 4097, 8193, 10_000, 40_000):
            for workers in (1, 2, 3):
                bounds = _chunk_bounds(replicates, workers)
                assert bounds[0][0] == 0 and bounds[-1][1] == replicates
                assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) <= _REPLICATE_CHUNK and max(sizes) - min(sizes) <= 1
                assert len(bounds) == 1 or len(bounds) % workers == 0, (replicates, workers)

    def test_standard_error_formula(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, **FAST)
        estimate = estimate_power(scenario, 60)
        expected_se = math.sqrt(estimate.power * (1 - estimate.power) / estimate.replicates)
        assert estimate.standard_error == expected_se
        assert estimate.replicates == scenario.replicates

    def test_null_scenario_controls_type_one_error(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.0, replicates=4000, master_seed=11
        )
        estimate = estimate_power(scenario, 400)
        assert 0.008 <= estimate.power <= 0.05

    def test_power_grows_with_sample_size(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=2.0, replicates=3000, master_seed=13)
        small = estimate_power(scenario, 40)
        large = estimate_power(scenario, 80)
        assert large.power >= small.power - 0.02


class TestFindMinSampleSize:
    def test_contract_on_fast_cell(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=2.4, replicates=2000, master_seed=314
        )
        result = find_min_sample_size(scenario, target_power=0.80)
        assert result.achieved
        assert result.n_total % 2 == 0
        assert result.pilot_total == pilot_size(scenario.pilot_fraction, result.n_total)
        probes = dict(result.probes)
        assert probes[result.n_total] >= 0.80
        for n, power in probes.items():
            if n < result.n_total:
                assert power < 0.80, f"probe at {n} already met the target"
        # verification estimate is close to the target but from an independent seed
        assert result.power_at_n.n_total == result.n_total
        assert abs(result.power_at_n.power - 0.80) < 0.08

    def test_deterministic(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=2.4, replicates=1000, master_seed=314)
        first = find_min_sample_size(scenario, target_power=0.80)
        second = find_min_sample_size(scenario, target_power=0.80)
        assert first == second

    def test_same_result_for_any_worker_count(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=2.4, pilot_fraction=0.2, replicates=4500,
            master_seed=315,
        )
        serial = find_min_sample_size(scenario, target_power=0.80, workers=1)
        for workers in (2, 3):
            parallel = find_min_sample_size(scenario, target_power=0.80, workers=workers)
            assert parallel.n_total == serial.n_total
            assert parallel.probes == serial.probes
            assert parallel.power_at_n == serial.power_at_n

    def test_one_pool_serves_the_whole_search(self, monkeypatch):
        opened = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=2.4, replicates=_REPLICATE_CHUNK + 1, master_seed=316
        )
        result = find_min_sample_size(scenario, target_power=0.80, workers=2)
        assert len(result.probes) > 1
        assert opened == [2]

    def test_range_exhaustion_is_explicit(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, replicates=800, master_seed=314)
        result = find_min_sample_size(scenario, target_power=0.80, n_lo=2, n_hi=40)
        assert not result.achieved
        assert result.n_total == 40
        assert result.power_at_n.power < 0.80

    def test_null_scenario_exhausts_range(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.0, replicates=500, master_seed=9)
        result = find_min_sample_size(scenario, target_power=0.80, n_lo=2, n_hi=600)
        assert not result.achieved

    def test_input_validation(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, **FAST)
        with pytest.raises(ValueError):
            find_min_sample_size(scenario, target_power=1.2)
        with pytest.raises(ValueError):
            find_min_sample_size(scenario, n_lo=3, n_hi=100)
        with pytest.raises(ValueError):
            find_min_sample_size(scenario, n_lo=100, n_hi=100)


class TestAcceptedDomain:
    """The model at the edges of what DesignScenario accepts."""

    def test_prior_weight_zero_is_the_vague_prior(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.3, prior_weight=0.0,
            replicates=300, master_seed=606,
        )
        reference = single_component_decisions(scenario, 120, informative=False)
        for index in range(scenario.replicates):
            trace = trace_replicate(scenario, 120, index)
            assert trace.control[0][0, 1] == 0.0 and trace.treatment[0][0, 1] == 0.0
            assert trace.success[0] == reference[index], f"replicate {index} diverged"
        assert round(estimate_power(scenario, 120).power * 300) == np.count_nonzero(reference)

    def test_prior_weight_one_is_the_informative_prior(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_rr_multiplier=0.8, pilot_fraction=0.3,
            prior_weight=1.0, replicates=300, master_seed=607,
        )
        reference = single_component_decisions(scenario, 120, informative=True)
        for index in range(scenario.replicates):
            trace = trace_replicate(scenario, 120, index)
            assert trace.control[0][0, 0] == 0.0 and trace.treatment[0][0, 0] == 0.0
            assert trace.success[0] == reference[index], f"replicate {index} diverged"
        assert round(estimate_power(scenario, 120).power * 300) == np.count_nonzero(reference)

    def test_pilot_fraction_near_one_at_the_search_ceiling(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.05, pilot_fraction=0.99, replicates=5, master_seed=608
        )
        successes = 0
        for index in range(scenario.replicates):
            trace = trace_replicate(scenario, SEARCH_N_HI, index)
            sizes, draws = trace.sizes, trace.draws[0]
            components = []
            for pilot, arm in ((0, 2), (1, 3)):  # control, treatment
                y_p, n_p, y, n = draws[pilot], sizes[pilot], draws[arm], sizes[arm]
                w = float(robust_posterior_weight(scenario.prior_weight, y_p, n_p, y, n))
                components.append([(1.0 - w, y, n), (w, y_p + y, n_p + n)])
            control, treatment = components
            expected = sum(
                w_t * w_c * float(beta_exceedance_window(1 + s_t, 1 + m_t - s_t, 1 + s_c, 1 + m_c - s_c)[0])
                for w_t, s_t, m_t in treatment
                for w_c, s_c, m_c in control
            )
            assert abs(trace.superiority[0] - expected) <= 1e-9, f"replicate {index}"
            successes += bool(trace.success[0])
        assert round(estimate_power(scenario, SEARCH_N_HI).power * 5) == successes
