import hashlib
import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pilot_borrow import decision, runner, simulate
from pilot_borrow.config import parse_config
from pilot_borrow.decision import _CALL_ROWS, _exceedance_unique
from pilot_borrow.runner import SEARCH_N_HI
from pilot_borrow.simulate import (
    DesignScenario,
    GridCell,
    estimate_power,
    find_min_sample_size,
    pilot_size,
    simulate_batch,
    split_arms,
    trace_replicate,
)

from oracles import beta_exceedance_window, philox_binomial_draws, robust_posterior_weight

FAST = dict(replicates=1500, master_seed=90210)


# Four simulated batches and the sha256 of their superiority values.
GOLDEN_SUPERIORITY = [
    # no pilot: the two components of an arm coincide, one distinct pair
    (
        (0.25, 1.3, 0.0), 1130, 10_000,
        "cdaab859463ebae32ab4f0bc810f7d165f3545859786ece9ec3337b21ae40cad",
    ),
    # a pool share: two pairs per call of the grouped CDF
    (
        (0.06, 1.9, 0.2), 730, 5_000,
        "96be26be0b0119e7b3fba4ec3521a40df4f6dcaa00a459825107bd0016a14696",
    ),
    # shapes near 10^4: 1,122 groups over 93 blocks
    (
        (0.25, 1.05, 0.2), 20_000, 10_000,
        "b6a769f74ffbb2e812d39b9c64295b682f1a91623008cc4128a01561c552df9e",
    ),
    # every distinct pair in one call
    (
        (0.25, 1.7, 0.2), 206, 200,
        "dfc3ae1d0a9949c5c59d5291eeb08690d1d1d710b111bd8edfa512e48da7933e",
    ),
]


def stream_draws(scenario, n_total, replicates):
    """(pilot control, pilot treatment, control, treatment) draws, one row per
    replicate, from the independent per-replicate Philox reference."""
    pilot_c, pilot_t = split_arms(pilot_size(scenario.pilot_fraction, n_total))
    control, treatment = split_arms(n_total)
    sizes = (pilot_c, pilot_t, control, treatment)
    rates = (
        scenario.control_rate, scenario.pilot_treatment_rate, scenario.control_rate,
        scenario.treatment_rate,
    )
    draws = philox_binomial_draws(scenario.master_seed, n_total, sizes, rates, range(replicates))
    return draws, sizes


def single_component_decisions(scenario, n_total, informative: bool) -> np.ndarray:
    """Decisions when each arm keeps one Beta component: the vague Beta(1 + y,
    1 + n - y), or the informative one, which adds the pilot counts."""
    y, (pilot_c, pilot_t, n_c, n_t) = stream_draws(scenario, n_total, scenario.replicates)
    y_c, y_t = y[:, 2], y[:, 3]
    if informative:
        y_c, y_t = y_c + y[:, 0], y_t + y[:, 1]
        n_c, n_t = n_c + pilot_c, n_t + pilot_t
    rows = np.column_stack([1 + y_t, 1 + n_t - y_t, 1 + y_c, 1 + n_c - y_c])
    prob = _exceedance_unique(rows.astype(np.float64))
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
        with pytest.raises(ValueError, match="risk_ratio"):  # past the largest double
            DesignScenario(control_rate=0.25, risk_ratio=10**400)

    @pytest.mark.parametrize(
        "setting", [{"master_seed": 7.5}, {"replicates": True}, {"replicates": 300.5}]
    )
    def test_run_settings_are_checked_by_type(self, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, **setting)

    def test_replicates_run_to_the_stream_counter_range(self):
        """Replicate indices below 2**64 fit the stream's 64-bit counter words."""
        widest = DesignScenario(control_rate=0.25, risk_ratio=1.7, replicates=1 << 64)
        assert widest.replicates == 1 << 64
        with pytest.raises(ValueError, match=r"^replicates must be <= 18446744073709551616, got "):
            DesignScenario(control_rate=0.25, risk_ratio=1.7, replicates=(1 << 64) + 1)

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda s: find_min_sample_size(s, workers=0), "workers"),
            (lambda s: find_min_sample_size(s, workers=2.5), "workers"),
            (lambda s: find_min_sample_size(s, workers=True), "workers"),
            (lambda s: find_min_sample_size(s, target_power=True), "target_power"),
            (lambda s: find_min_sample_size(s, target_power=float("nan")), "target_power"),
            (lambda s: find_min_sample_size(s, n_hi=2000.0), "n_hi"),
            (lambda s: find_min_sample_size(s, n_hi=10**30), "n_hi"),
            (lambda s: find_min_sample_size(s, n_hi=(1 << 20) + 2), "n_hi"),
            (lambda s: find_min_sample_size(s, n_lo=True), "n_lo"),
            (lambda s: find_min_sample_size(s, n_lo=2.0), "n_lo"),
            (lambda s: find_min_sample_size(s, n_lo=0), "n_lo"),
            (lambda s: estimate_power(s, 206.0), "n_total"),
            (lambda s: estimate_power(s, True), "n_total"),
            (lambda s: estimate_power(s, (1 << 64) + 2), "n_total"),
            (lambda s: estimate_power(s, (1 << 20) + 2), "n_total"),
            (lambda s: trace_replicate(s, 206.0, 0), "n_total"),
            (lambda s: trace_replicate(s, (1 << 64) + 2, 0), "n_total"),
            (lambda s: trace_replicate(s, 40, 1 << 64), "index"),
            (lambda s: trace_replicate(s, 40, 1.0), "index"),
            (lambda s: simulate_batch(s, 206, -3, 2), "start"),
            (lambda s: simulate_batch(s, 206, 5, 3), "start"),
            (lambda s: simulate_batch(s, 206, 0.0, 3), "start"),
            (lambda s: simulate_batch(s, 206, 0, (1 << 64) + 1), "stop"),
            (lambda s: simulate_batch(s, 206, 0, -1), "stop"),
            (lambda s: simulate_batch(s, 206, 0, True), "stop"),
            (lambda s: simulate_batch(s, 206.0, 0, 2), "n_total"),
            (lambda s: simulate_batch(s, 1, 0, 2), "n_total"),
            (lambda s: split_arms(-1), "total"),
            (lambda s: split_arms(2.5), "total"),
            (lambda s: split_arms(True), "total"),
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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("risk_ratio", True, r"rr \(risk_ratio\) must be positive and finite, got True"),
            ("risk_ratio", math.inf, r"rr \(risk_ratio\) must be positive and finite, got inf"),
            ("risk_ratio", "1.7", r"rr \(risk_ratio\) must be positive and finite, got 1.7"),
            ("risk_ratio", 0, r"rr \(risk_ratio\) must be positive and finite, got 0"),
            # an integer past the largest double has no float value
            (
                "risk_ratio", 10**400,
                rf"rr \(risk_ratio\) must be positive and finite, got {10**400}",
            ),
            (
                "pilot_rr_multiplier", 10**400,
                rf"rr_pilot_multiplier \(pilot_rr_multiplier\) must be positive and finite, got {10**400}",
            ),
            (
                "pilot_rr_multiplier", True,
                r"rr_pilot_multiplier \(pilot_rr_multiplier\) must be positive and finite, got True",
            ),
            (
                "pilot_rr_multiplier", -1.0,
                r"rr_pilot_multiplier \(pilot_rr_multiplier\) must be positive and finite, got -1.0",
            ),
            ("pilot_fraction", True, r"pilot_fraction must lie in \[0, 1\), got True"),
            ("pilot_fraction", False, r"pilot_fraction must lie in \[0, 1\), got False"),
            ("pilot_fraction", 1.0, r"pilot_fraction must lie in \[0, 1\), got 1.0"),
            ("pilot_fraction", "0.2", r"pilot_fraction must lie in \[0, 1\), got 0.2"),
            ("pilot_fraction", math.nan, r"pilot_fraction must lie in \[0, 1\), got nan"),
            ("prior_weight", True, r"w \(prior_weight\) must lie in \[0, 1\], got True"),
            ("prior_weight", False, r"w \(prior_weight\) must lie in \[0, 1\], got False"),
            ("prior_weight", 1.5, r"w \(prior_weight\) must lie in \[0, 1\], got 1.5"),
            ("prior_weight", -0.1, r"w \(prior_weight\) must lie in \[0, 1\], got -0.1"),
        ],
    )
    def test_cell_fields_reject_bools_and_non_numbers(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridCell(**{"control_rate": 0.25, "risk_ratio": 1.7, field: value})

    @pytest.mark.parametrize("big", [sys.float_info.max, int(sys.float_info.max), 10**300])
    def test_rates_up_to_the_largest_double_make_an_infeasible_cell(self, big):
        cell = GridCell(0.25, big, pilot_rr_multiplier=big)
        assert not cell.feasible
        assert cell.pilot_treatment_rate == math.inf

    def test_cell_fields_keep_their_closed_ends(self):
        for weight in (0, 1, 0.0, 1.0):
            assert GridCell(0.25, 2, pilot_fraction=0, prior_weight=weight).prior_weight == weight

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
        scenario = DesignScenario(control_rate=0.3, risk_ratio=1.5, pilot_fraction=0.2, master_seed=123)
        a = simulate_batch(scenario, 100, 0, 8).draws
        b = simulate_batch(scenario, 100, 0, 8).draws
        c = simulate_batch(scenario, 100, 256, 264).draws  # other replicates
        d = simulate_batch(scenario, 102, 0, 8).draws  # another total
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize(
        "start,stop",
        [(0, 1), (0, 255), (0, 256), (0, 257), (1, 2), (3, 200), (100, 256), (255, 257),
         (256, 512), (300, 301), (300, 700), (511, 513), (700, 1000), (999, 1000), (5, 5)],
    )
    def test_rows_do_not_depend_on_the_range(self, start, stop):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, master_seed=41)
        full = simulate_batch(scenario, 206, 0, 1000)
        part = simulate_batch(scenario, 206, start, stop)
        assert np.array_equal(part.draws, full.draws[start:stop])
        assert np.array_equal(part.superiority, full.superiority[start:stop])

    def test_draws_match_the_per_replicate_reference(self):
        """Each row is its replicate's own Philox step mapped by scipy's
        binomial ppf, up to the last index, whose counter carries into the
        second word."""
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, master_seed=41)
        last = (1 << 64) - 1
        sizes = simulate_batch(scenario, 206, 0, 0).sizes
        rates = (0.25, scenario.treatment_rate, 0.25, scenario.treatment_rate)
        indices = [0, 1, 255, 256, 999, 1 << 63, last - 1, last]
        reference = philox_binomial_draws(41, 206, sizes, rates, indices)
        for index, row in zip(indices, reference):
            assert np.array_equal(trace_replicate(scenario, 206, index).draws[0], row), index
        tail = simulate_batch(scenario, 206, last - 1, last + 1)
        assert np.array_equal(tail.draws, reference[-2:])

    def test_trace_is_its_row_of_the_full_batch(self):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, master_seed=42)
        full = simulate_batch(scenario, 206, 0, 600)
        for index in (0, 3, 255, 256, 257, 511, 599):
            trace = trace_replicate(scenario, 206, index)
            assert np.array_equal(trace.draws[0], full.draws[index]), index
            assert trace.superiority[0] == full.superiority[index], index


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

    def test_bit_identical_across_runs(self):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=9000, master_seed=77
        )
        assert estimate_power(scenario, 80) == estimate_power(scenario, 80)

    @pytest.mark.parametrize("replicates", [1, 4095, 4097, 8193, 10_000])
    def test_any_chunk_layout_counts_the_same_successes(self, replicates):
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=replicates,
            master_seed=78,
        )
        full = simulate_batch(scenario, 40, 0, replicates).success
        expected = np.count_nonzero(full)
        assert round(estimate_power(scenario, 40).power * replicates) == expected
        for parts in (1, 2, 3):
            bounds = [(replicates * i // parts, replicates * (i + 1) // parts) for i in range(parts)]
            counts = [simulate._chunk_task(scenario, 40, lo, hi) for lo, hi in bounds]
            assert sum(counts) == expected, f"parts={parts}"
            chunks = [simulate_batch(scenario, 40, lo, hi).success for lo, hi in bounds]
            assert np.array_equal(np.concatenate(chunks), full), f"parts={parts}"

    @pytest.mark.parametrize(
        "size", [1, 4096, _CALL_ROWS, _CALL_ROWS + 1, 2 * _CALL_ROWS + 1, 100_000]
    )
    def test_batches_are_balanced(self, monkeypatch, size):
        """A range runs as ceil(size / _CALL_ROWS) contiguous batches (7 for
        100,000), none empty, none past _CALL_ROWS, sizes differing by at most
        one, which count what one batch counts."""
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=size, master_seed=81
        )
        ranges = []

        def recording_batch(scenario, n_total, start, stop):
            ranges.append((start, stop))
            return simulate_batch(scenario, n_total, start, stop)

        monkeypatch.setattr(simulate, "simulate_batch", recording_batch)
        successes = simulate._chunk_task(scenario, 40, 3, 3 + size)
        assert len(ranges) == -(-size // _CALL_ROWS)
        assert ranges[0][0] == 3 and ranges[-1][1] == 3 + size
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        sizes = [hi - lo for lo, hi in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert max(sizes) <= _CALL_ROWS
        assert successes == np.count_nonzero(simulate_batch(scenario, 40, 3, 3 + size).success)

    def test_a_probe_sends_no_call_past_the_row_bound(self, monkeypatch):
        """A probe of 2 * _CALL_ROWS + 1 replicates with a pilot makes no
        superiority call above _CALL_ROWS rows, and counts what one batch
        over the whole range counts."""
        size = 2 * _CALL_ROWS + 1
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.7, pilot_fraction=0.2, replicates=size,
            master_seed=82,
        )
        expected = np.count_nonzero(simulate_batch(scenario, 40, 0, size).success)
        calls = []
        exceedance_unique = decision._exceedance_unique

        def counted(rows):
            calls.append(rows.shape[0])
            return exceedance_unique(rows)

        monkeypatch.setattr(decision, "_exceedance_unique", counted)
        estimate = estimate_power(scenario, 40)
        assert calls and max(calls) <= _CALL_ROWS
        assert round(estimate.power * size) == expected

    def test_a_share_walks_its_batches_lazily(self, monkeypatch):
        """A 2**33-replicate share makes its 2**19 batch ranges one at a time:
        a list of them would take tens of MB before the first draw."""
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7)
        walked = {"batches": 0, "next": 0}
        none_succeed = simulate_batch(scenario, 40, 0, 0)

        def stub_batch(scenario, n_total, start, stop):
            assert start == walked["next"]
            walked["batches"] += 1
            walked["next"] = stop
            return none_succeed

        monkeypatch.setattr(simulate, "simulate_batch", stub_batch)
        tracemalloc.start()
        try:
            successes = simulate._chunk_task(scenario, 40, 0, 1 << 33)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert successes == 0 and walked == {"batches": 1 << 19, "next": 1 << 33}
        assert peak < 1 << 20

    def test_serial_probe_builds_each_group_once(self, monkeypatch):
        """A serial 10,000-replicate probe passes each (m, a, b) group of its
        superiority sum to _window_block once, in one batch."""
        scenario = DesignScenario(
            control_rate=0.25, risk_ratio=1.3, pilot_fraction=0.2, replicates=10_000,
            master_seed=79,
        )
        batch = simulate_batch(scenario, 2000, 0, scenario.replicates)
        (_, a_t, b_t), (_, a_c, b_c) = batch.treatment, batch.control
        expected = {
            (a_t[r, i] + b_t[r, i] - 1.0, a_c[r, j], b_c[r, j])
            for r in range(scenario.replicates)
            for i in range(2)
            for j in range(2)
        }
        built = []
        window_block = decision._window_block

        def counted(m, a, b, *rest):
            built.extend(zip(m.tolist(), a.tolist(), b.tolist()))
            return window_block(m, a, b, *rest)

        monkeypatch.setattr(decision, "_window_block", counted)
        estimate = estimate_power(scenario, 2000)
        assert round(estimate.power * scenario.replicates) == np.count_nonzero(batch.success)
        assert len(built) == len(set(built))
        assert set(built) == expected

    @pytest.mark.parametrize("narrow", [False, True])
    @pytest.mark.parametrize("cell,n_total,replicates,digest", GOLDEN_SUPERIORITY)
    def test_golden_superiority_bits(self, monkeypatch, cell, n_total, replicates, digest, narrow):
        """The superiority values of four batches keep their bits. First
        windows of one standard deviation, widened by the tail check until it
        holds, give the same bits."""
        if narrow:
            monkeypatch.setattr(decision, "_WINDOW_SD", 1.0)
            monkeypatch.setattr(decision, "_SKEW_SD", 0.0)
            monkeypatch.setattr(decision, "_MIN_SD", 1.0)
        p_c, rr, f = cell
        scenario = DesignScenario(
            control_rate=p_c, risk_ratio=rr, pilot_fraction=f, replicates=replicates, master_seed=4
        )
        batch = simulate_batch(scenario, n_total, 0, replicates)
        assert hashlib.sha256(batch.superiority.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "layout",
        [
            # every round of groups in blocks of one group, or of 2**10 terms
            pytest.param({"_BLOCK": 1}, id="one-group-blocks"),
            pytest.param({"_BLOCK": 1 << 10}, id="small-blocks"),
            # every round of groups in one table, read by one gather
            pytest.param({"_BLOCK": 1 << 40}, id="one-block"),
            # each row its own group in place of the dense key map
            pytest.param({"_KEY_SPAN": 0}, id="one-group-per-row"),
        ],
    )
    @pytest.mark.parametrize("narrow", [False, True])
    @pytest.mark.parametrize("cell,n_total,replicates,digest", GOLDEN_SUPERIORITY)
    def test_golden_superiority_bits_in_any_layout(
        self, monkeypatch, cell, n_total, replicates, digest, narrow, layout
    ):
        """The golden bits hold however the groups are laid out in blocks and
        however they are found: each table column and each row's read
        depend on the group alone."""
        for name, value in layout.items():
            monkeypatch.setattr(decision, name, value)
        self.test_golden_superiority_bits(monkeypatch, cell, n_total, replicates, digest, narrow)

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


    @pytest.mark.parametrize(
        "cell,search,n_total,successes",
        [
            pytest.param(
                dict(control_rate=0.25, risk_ratio=1.3), dict(target_power=0.5, n_hi=400),
                400, [(400, 118)], id="up-unreachable",
            ),
            pytest.param(
                dict(control_rate=0.25, risk_ratio=1.3), dict(target_power=0.8), 1166,
                [(1140, 229), (1160, 238), (1164, 239), (1166, 246), (1170, 241), (1182, 252),
                 (1226, 249), (1312, 253)],
                id="up-within-factor-table",
            ),
            pytest.param(
                dict(control_rate=0.25, risk_ratio=1.3, pilot_fraction=0.4,
                     pilot_rr_multiplier=0.5, prior_weight=1.0),
                dict(target_power=0.8), 5644,
                [(1026, 82), (1180, 76), (1386, 102), (1692, 114), (2052, 115), (4104, 227),
                 (5130, 233), (5642, 238), (5644, 243), (5646, 251), (5650, 246), (5658, 251),
                 (5674, 250), (5706, 248), (5770, 245), (5898, 243), (6156, 259), (8208, 283)],
                id="up-past-factor-table",
            ),
            pytest.param(
                dict(control_rate=0.25, risk_ratio=1.3), dict(target_power=0.5), 488,
                [(426, 115), (456, 120), (472, 110), (480, 134), (484, 140), (486, 147),
                 (488, 156), (560, 161)],
                id="down-stops-at-failure",
            ),
            pytest.param(
                dict(control_rate=0.25, risk_ratio=1.7), dict(target_power=0.5, n_lo=100, n_hi=400),
                110, [(100, 124), (106, 137), (108, 136), (110, 155), (112, 153)], id="down-to-n-lo",
            ),
        ],
    )
    def test_golden_walk(self, cell, search, n_total, successes):
        """The probes of one search per branch of the walk, as (n, successes of 300)."""
        scenario = DesignScenario(**cell, replicates=300, master_seed=314)
        result = find_min_sample_size(scenario, **search)
        assert result.n_total == n_total
        assert result.achieved == (n_total != search.get("n_hi"))
        assert result.probes == tuple((n, k / 300) for n, k in successes)

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


@pytest.fixture
def recording_pool(monkeypatch):
    """The max_workers of each pool opened; the pools run their tasks in this
    process and start no process."""
    opened = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    return opened


class TestPoolSize:
    """No pool asks for more processes than it has tasks, and only a grid of
    several cells opens one."""

    def test_probe(self, recording_pool):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=1.7, replicates=10_000)
        estimate = estimate_power(scenario, 40)
        successes = np.count_nonzero(simulate_batch(scenario, 40, 0, 10_000).success)
        assert round(estimate.power * 10_000) == successes
        assert recording_pool == []

    def test_search(self, recording_pool):
        scenario = DesignScenario(control_rate=0.25, risk_ratio=2.4, replicates=4097, master_seed=316)
        result = find_min_sample_size(scenario, target_power=0.80, workers=5000)
        assert len(result.probes) > 1
        assert result == find_min_sample_size(scenario, target_power=0.80)
        assert recording_pool == []

    def test_grid(self, recording_pool):
        doc = {
            "scenarios": {"p_C": [0.3], "rr": [2.2], "pilot_fraction": [0, 0.2, 0.4]},
            "replicates": 200,
            "workers": 5000,
        }
        rows = runner.run_grid(parse_config(json.dumps(doc)))
        assert len(rows) == 3
        assert recording_pool == [3]

    def test_one_cell_grid(self, recording_pool):
        doc = {"scenarios": {"p_C": [0.3], "rr": [2.2], "pilot_fraction": [0.2]}, "replicates": 200}
        config = parse_config(json.dumps(doc))
        assert runner.run_grid(replace(config, workers=5000)) == runner.run_grid(config)
        assert recording_pool == []


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
