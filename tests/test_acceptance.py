"""End-to-end acceptance checks: required sample sizes over the design grid,
duration and recruitment arithmetic, prior-updating and decision oracles, and
byte-level determinism of grid output.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one PASS/FAIL line
per check. The full module takes roughly 5 minutes on two cores; the heavy
searches run once in module-scoped fixtures and are shared.

``test_accept_large_sample_cell`` checks the cell (p_C=0.25, RR=1.3) against
power from ``oracles.py`` rather than against fixed totals: each returned
total n must satisfy power(n - 20) < 0.80 <= power(n + 20), by exact
enumeration without a pilot and by an independent 400k-replicate sampler
with a 20% pilot. The totals once recorded for this cell, 1402 and 1244, were
dropped because no design reproduces them: exact power of this cell is
0.8001 at n=1140 and 0.8744 at n=1402, and the arm-swapped design
(p_C=0.1875, RR=4/3) first reaches 0.80 at n=1372. Where they came from is
unknown.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from pilot_borrow.config import parse_config
from pilot_borrow.decision import _exceedance_unique, mixture_superiority_batch
from pilot_borrow.recruitment import (
    RecruitmentModel,
    expected_duration,
    recruitment_probability,
    round_months,
)
from pilot_borrow.runner import emit_results, run_grid
from pilot_borrow.simulate import (
    DesignScenario,
    _posterior_components,
    estimate_power,
    find_min_sample_size,
)

from oracles import (
    exact_power_no_pilot,
    exceedance_mc,
    gamma_poisson_survival_mc,
    mixture_superiority_mc,
    sampled_power,
    updated_weight_quad,
)

REPLICATES = 10_000
ORACLE_REPLICATES = 400_000
SEED = 20260808


def report(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _search(control_rate, risk_ratio, pilot_fraction, multiplier=1.0):
    scenario = DesignScenario(
        control_rate=control_rate,
        risk_ratio=risk_ratio,
        pilot_fraction=pilot_fraction,
        pilot_rr_multiplier=multiplier,
        replicates=REPLICATES,
        master_seed=SEED,
    )
    return find_min_sample_size(scenario)


@pytest.fixture(scope="module")
def figure1():
    """Minimal sample sizes for the main grid cells, with per-cell wall time."""
    cells = {}
    timings = {}
    for control_rate, risk_ratio in ((0.06, 1.9), (0.25, 1.7), (0.6, 1.3)):
        for fraction in (0.0, 0.2, 0.4):
            started = time.perf_counter()
            cells[(control_rate, risk_ratio, fraction)] = _search(
                control_rate, risk_ratio, fraction
            )
            timings[(control_rate, risk_ratio, fraction)] = time.perf_counter() - started
    return cells, timings


@pytest.fixture(scope="module")
def conflict_sweeps(figure1):
    """Searches under pilot/definitive disagreement (pilot fraction 0.2)."""
    sweeps = {}
    for control_rate, risk_ratio in ((0.06, 1.9), (0.25, 1.7)):
        sweeps[control_rate] = {
            multiplier: _search(control_rate, risk_ratio, 0.2, multiplier)
            for multiplier in (0.8, 0.85, 0.9, 0.95)
        }
        sweeps[control_rate][1.0] = figure1[0][(control_rate, risk_ratio, 0.2)]
    sweeps["high_conflict_cell"] = _search(0.6, 1.3, 0.2, 0.8)
    return sweeps


def test_accept_low_event_rate_sample_sizes(figure1):
    cells, timings = figure1
    results = {f: cells[(0.06, 1.9, f)] for f in (0.0, 0.2, 0.4)}
    elapsed = sum(timings[(0.06, 1.9, f)] for f in (0.0, 0.2, 0.4))
    ok = (
        abs(results[0.0].n_total - 846) <= 20
        and abs(results[0.2].n_total - 736) <= 20
        and results[0.2].pilot_total == pytest.approx(0.2 * results[0.2].n_total, abs=0.5)
        and abs(results[0.4].n_total - 650) <= 20
        and results[0.4].pilot_total == pytest.approx(0.4 * results[0.4].n_total, abs=0.5)
        and elapsed < 600.0
    )
    report(
        "low_event_rate_sample_sizes",
        ok,
        f"n(f=0)={results[0.0].n_total} (846+/-20), n(f=0.2)={results[0.2].n_total} "
        f"(736+/-20, pilot {results[0.2].pilot_total}), n(f=0.4)={results[0.4].n_total} "
        f"(650+/-20, pilot {results[0.4].pilot_total}), cell-set time {elapsed:.0f}s (<600s)",
    )


def test_accept_moderate_event_rate_sample_sizes(figure1):
    cells, _ = figure1
    results = {f: cells[(0.25, 1.7, f)] for f in (0.0, 0.2, 0.4)}
    ok = (
        abs(results[0.0].n_total - 230) <= 6
        and abs(results[0.2].n_total - 206) <= 6
        and results[0.2].pilot_total == round(0.2 * results[0.2].n_total)
        and abs(results[0.4].n_total - 192) <= 6
        and results[0.4].pilot_total == round(0.4 * results[0.4].n_total)
    )
    report(
        "moderate_event_rate_sample_sizes",
        ok,
        f"n(f=0)={results[0.0].n_total} (230+/-6), n(f=0.2)={results[0.2].n_total} "
        f"(206+/-6, pilot {results[0.2].pilot_total}), n(f=0.4)={results[0.4].n_total} "
        f"(192+/-6, pilot {results[0.4].pilot_total})",
    )


def test_accept_high_event_rate_sample_sizes(figure1):
    cells, _ = figure1
    results = {f: cells[(0.6, 1.3, f)] for f in (0.0, 0.2, 0.4)}
    ok = (
        abs(results[0.0].n_total - 208) <= 6
        and abs(results[0.2].n_total - 186) <= 6
        and results[0.2].pilot_total == round(0.2 * results[0.2].n_total)
        and abs(results[0.4].n_total - 172) <= 6
        and results[0.4].pilot_total == round(0.4 * results[0.4].n_total)
    )
    report(
        "high_event_rate_sample_sizes",
        ok,
        f"n(f=0)={results[0.0].n_total} (208+/-6), n(f=0.2)={results[0.2].n_total} "
        f"(186+/-6, pilot {results[0.2].pilot_total}), n(f=0.4)={results[0.4].n_total} "
        f"(172+/-6, pilot {results[0.4].pilot_total})",
    )


def test_accept_large_sample_cell():
    no_pilot = _search(0.25, 1.3, 0.0)
    with_pilot = _search(0.25, 1.3, 0.2)
    exact_below = exact_power_no_pilot(0.25, 1.3, no_pilot.n_total - 20)
    exact_above = exact_power_no_pilot(0.25, 1.3, no_pilot.n_total + 20)
    sampled_below, se_below = sampled_power(
        0.25, 1.3, 0.2, with_pilot.n_total - 20, ORACLE_REPLICATES, seed=SEED + 3
    )
    sampled_above, se_above = sampled_power(
        0.25, 1.3, 0.2, with_pilot.n_total + 20, ORACLE_REPLICATES, seed=SEED + 4
    )
    ok = (
        exact_below < 0.80 <= exact_above
        and sampled_below < 0.80 <= sampled_above
        and with_pilot.n_total < no_pilot.n_total
    )
    report(
        "large_sample_cell",
        ok,
        f"n(f=0)={no_pilot.n_total}: exact power {exact_below:.4f} at n-20, "
        f"{exact_above:.4f} at n+20; n(f=0.2)={with_pilot.n_total}: sampled power "
        f"{sampled_below:.4f} at n-20, {sampled_above:.4f} at n+20 "
        f"(se {max(se_below, se_above):.4f}); the 0.80 crossing must lie within +/-20 "
        f"and f=0.2 below f=0 (recorded 1402/1244 dropped: no design reproduces them)",
    )


DURATION_TABLE = [
    (846, 10.0, 85), (736, 10.0, 74), (230, 10.0, 23), (206, 10.0, 21),
    (208, 10.0, 21), (186, 10.0, 19),
    (846, 5.0, 169), (736, 5.0, 147), (230, 5.0, 46), (206, 5.0, 41),
    (208, 5.0, 42), (186, 5.0, 37),
    (230, 2.0, 115), (206, 2.0, 103), (208, 2.0, 104), (186, 2.0, 93),
]


def test_accept_duration_table():
    mismatches = [
        (n, rate, round_months(expected_duration(n, rate)), displayed)
        for n, rate, displayed in DURATION_TABLE
        if round_months(expected_duration(n, rate)) != displayed
    ]
    report(
        "duration_table",
        not mismatches,
        f"all {len(DURATION_TABLE)} rounded durations exact" if not mismatches else f"mismatches: {mismatches}",
    )


def test_accept_conflict_study(figure1, conflict_sweeps):
    cells, _ = figure1
    problems = []

    high = conflict_sweeps["high_conflict_cell"]
    if abs(high.n_total - 216) > 6:
        problems.append(f"high-rate conflict cell n={high.n_total} not 216+/-6")
    if not high.n_total > 208 - 6:
        problems.append(f"high-rate conflict cell n={high.n_total} not above no-pilot 208")

    for control_rate, risk_ratio in ((0.06, 1.9), (0.25, 1.7)):
        sweep = conflict_sweeps[control_rate]
        no_pilot = cells[(control_rate, risk_ratio, 0.0)].n_total
        ordered = [sweep[c].n_total for c in (0.8, 0.85, 0.9, 0.95, 1.0)]
        if not all(n < no_pilot for n in ordered):
            problems.append(f"p_C={control_rate}: sweep {ordered} not all below no-pilot {no_pilot}")
        if not all(b <= a + 6 for a, b in zip(ordered, ordered[1:])):
            problems.append(f"p_C={control_rate}: sweep {ordered} not nonincreasing within 6")

    sweeps_text = {
        p: [conflict_sweeps[p][c].n_total for c in (0.8, 0.85, 0.9, 0.95, 1.0)]
        for p in (0.06, 0.25)
    }
    report(
        "conflict_study",
        not problems,
        f"high-rate conflict n={high.n_total} (216+/-6, above 208); sweeps {sweeps_text}"
        if not problems
        else "; ".join(problems),
    )


def test_accept_recruitment_model_oracle():
    problems = []
    index = 0
    for lambda0 in (2.0, 5.0, 10.0):
        model = RecruitmentModel(lambda0)
        for n in (50, 200, 800):
            values_over_m = []
            for m in (12.0, 24.0, 48.0, 96.0):
                index += 1
                analytic = recruitment_probability(model, n, m)
                estimate, se = gamma_poisson_survival_mc(
                    lambda0, n, m, 1_000_000, seed=10_000 + index
                )
                if abs(analytic - estimate) > max(3 * se, 1e-6):
                    problems.append(
                        f"lambda0={lambda0} n={n} m={m}: analytic {analytic:.6f} vs "
                        f"sampled {estimate:.6f} (3se={3 * se:.2e})"
                    )
                values_over_m.append(analytic)
            if not all(b >= a for a, b in zip(values_over_m, values_over_m[1:])):
                problems.append(f"lambda0={lambda0} n={n}: not monotone in months")
        for m in (12.0, 24.0, 48.0, 96.0):
            over_n = [recruitment_probability(model, n, m) for n in (50, 200, 800)]
            if not all(b <= a for a, b in zip(over_n, over_n[1:])):
                problems.append(f"lambda0={lambda0} m={m}: not decreasing in target")
    report(
        "recruitment_model_oracle",
        not problems,
        "36-cell analytic/sampling agreement within 3 oracle SE, monotone both ways"
        if not problems
        else "; ".join(problems[:4]),
    )


def test_accept_type_one_error():
    rates = {}
    for control_rate in (0.06, 0.25, 0.6):
        scenario = DesignScenario(
            control_rate=control_rate,
            risk_ratio=1.0,
            replicates=REPLICATES,
            master_seed=SEED,
        )
        rates[control_rate] = estimate_power(scenario, 400).power
    ok = all(0.015 <= value <= 0.035 for value in rates.values())
    report(
        "type_one_error",
        ok,
        ", ".join(f"p_C={k}: {v:.4f}" for k, v in rates.items()) + " (bounds [0.015, 0.035])",
    )


def test_accept_map_weight_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        pilot_n = int(rng.integers(0, 150))
        pilot_y = int(rng.integers(0, pilot_n + 1)) if pilot_n else 0
        def_n = int(rng.integers(1, 500))
        def_y = int(rng.integers(0, def_n + 1))
        weight = float(rng.uniform(0.05, 0.95))
        weights, _, _ = _posterior_components(
            weight, np.array([pilot_y]), pilot_n, np.array([def_y]), def_n
        )
        expected = updated_weight_quad(
            weight, 1.0 + pilot_y, 1.0 + pilot_n - pilot_y, def_y, def_n
        )
        worst = max(worst, abs(weights[0, 1] - expected))
    report(
        "map_weight_oracle",
        worst <= 1e-8,
        f"worst |w - oracle| over 100 randomized count pairs: {worst:.2e} (<= 1e-8)",
    )


def _random_posterior(rng):
    """One arm's posterior (weights, alphas, betas), each of shape (1, 2)."""
    pilot_n = int(rng.integers(0, 100))
    pilot_y = int(rng.integers(0, pilot_n + 1)) if pilot_n else 0
    def_n = int(rng.integers(2, 900))
    def_y = int(rng.integers(0, def_n + 1))
    weight = float(rng.uniform(0.2, 0.8))
    return _posterior_components(weight, np.array([pilot_y]), pilot_n, np.array([def_y]), def_n)


def _single_beta(alpha, beta):
    return np.array([[1.0]]), np.array([[float(alpha)]]), np.array([[float(beta)]])


def test_accept_superiority_oracle():
    spot_tied = mixture_superiority_batch(*_single_beta(3, 7), *_single_beta(3, 7))[0]
    spot_linear = mixture_superiority_batch(*_single_beta(2, 1), *_single_beta(1, 1))[0]
    problems = []
    if abs(spot_tied - 0.5) > 1e-8:
        problems.append(f"symmetric spot check {spot_tied!r} != 0.5")
    if abs(spot_linear - 2.0 / 3.0) > 1e-8:
        problems.append(f"Beta(2,1) vs Beta(1,1) spot check {spot_linear!r} != 2/3")

    rng = np.random.default_rng(SEED + 1)
    worst_ratio = 0.0
    for k in range(50):
        mix_t = _random_posterior(rng)
        mix_c = _random_posterior(rng)
        exact = mixture_superiority_batch(*mix_t, *mix_c)[0]
        estimate, se = mixture_superiority_mc(
            tuple(v[0] for v in mix_t), tuple(v[0] for v in mix_c), 10_000_000, seed=20_000 + k
        )
        # the plug-in SE degenerates when the sample proportion hits 0 or 1;
        # 1e-6 is about the actual resolving power of a 1e7-draw oracle
        tolerance = max(4 * se, 1e-6)
        gap = abs(exact - estimate) / tolerance
        worst_ratio = max(worst_ratio, gap)
        if gap > 1.0:
            problems.append(
                f"pair {k}: exact sum {exact:.8f} vs sampled {estimate:.8f} "
                f"exceeds tolerance {tolerance:.2e}"
            )
    report(
        "superiority_oracle",
        not problems,
        f"50 randomized mixture pairs within 4 oracle SE (worst 4SE-ratio {worst_ratio:.2f}); "
        f"analytic spot checks exact to 1e-8"
        if not problems
        else "; ".join(problems[:4]),
    )


PAPER_GRID_CONFIG = """
{
  "scenarios": {
    "p_C": [0.06, 0.25, 0.6],
    "rr": [1.3, 1.7, 1.9],
    "pilot_fraction": [0, 0.1, 0.2, 0.3, 0.4]
  },
  "replicates": 10000,
  "master_seed": 20260808,
  "recruitment": {"lambda0": [2, 5, 10], "months": [46]}
}
"""


# sha256 of the CSV that the 10k PAPER_GRID_CONFIG grid writes. It moves only
# with a change that alters numbers on purpose and lists every changed cell.
PAPER_GRID_SHA256 = "2ce0e08db9b1c578027ed0dd50cc5eadbc84fe92eecff1a0af4f2325b285c546"


def test_accept_grid_determinism(tmp_path):
    config = parse_config(PAPER_GRID_CONFIG)
    rows_serial = run_grid(replace(config, workers=1))
    rows_parallel = run_grid(replace(config, workers=2))
    path_serial = tmp_path / "serial.csv"
    path_parallel = tmp_path / "parallel.csv"
    emit_results(rows_serial, str(path_serial), recruitment=config.recruitment)
    emit_results(rows_parallel, str(path_parallel), recruitment=config.recruitment)
    identical = path_serial.read_bytes() == path_parallel.read_bytes()
    digest = hashlib.sha256(path_serial.read_bytes()).hexdigest()
    ok = identical and len(rows_serial) == 45 and digest == PAPER_GRID_SHA256
    report(
        "grid_determinism",
        ok,
        f"grid of {len(rows_serial)} rows byte-identical across 1 and 2 workers: {identical}; "
        f"sha256 {digest}",
    )


def test_power_probes_are_monotone_within_noise(figure1):
    """Supplementary: power estimates rise with n across all recorded probes."""
    cells, _ = figure1
    for key, result in cells.items():
        probes = sorted(result.probes)
        for (n_small, power_small), (n_large, power_large) in zip(probes, probes[1:]):
            if n_large - n_small >= 40:
                assert power_large >= power_small - 0.02, (
                    f"cell {key}: power({n_large})={power_large:.4f} fell more than 0.02 "
                    f"below power({n_small})={power_small:.4f}"
                )


def test_pair_exceedance_matches_sampling_at_scale():
    """Supplementary: single-pair exact sum vs 1e7-draw sampling, 50 pairs."""
    rng = np.random.default_rng(SEED + 2)
    for k in range(50):
        n1 = int(rng.integers(2, 1999))
        y1 = int(rng.integers(0, n1 + 1))
        n2 = int(rng.integers(2, 1999))
        y2 = int(rng.integers(0, n2 + 1))
        t = (1.0 + y1, 1.0 + n1 - y1)
        c = (1.0 + y2, 1.0 + n2 - y2)
        estimate, se = exceedance_mc(*t, *c, 10_000_000, 30_000 + k)
        value = _exceedance_unique(np.array([[*t, *c]]))[0]
        assert abs(value - estimate) <= max(4 * se, 1e-6), (
            f"pair {k} (Beta{t} vs Beta{c}): exact sum {value!r} vs sampled {estimate!r} "
            f"beyond 4 oracle SE {4 * se:.2e}"
        )
