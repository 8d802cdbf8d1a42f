import json
import os
from dataclasses import replace

import pytest

from pilot_borrow.config import ConfigError, GridCell, RecruitmentPlan, RunConfig, parse_config
from pilot_borrow.runner import run_grid


MINIMAL = '{"scenarios": {"p_C": [0.25], "rr": [1.7], "pilot_fraction": [0, 0.2]}}'


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        config = parse_config(MINIMAL)
        assert len(config.cells) == 2
        assert config.cells[0] == GridCell(0.25, 1.7, 0.0, 1.0, 0.5)
        assert config.cells[1] == GridCell(0.25, 1.7, 0.2, 1.0, 0.5)
        assert config.target_power == 0.80
        assert config.threshold == 0.975
        assert config.replicates == 10_000
        assert config.workers == 1
        assert config.output_path is None
        assert config.recruitment == RecruitmentPlan()

    def test_shorthand_cross_product_order(self):
        text = json.dumps(
            {
                "scenarios": {
                    "p_C": [0.06, 0.25],
                    "rr": [1.3, 1.7],
                    "pilot_fraction": [0, 0.2],
                    "rr_pilot_multiplier": [0.8, 1.0],
                }
            }
        )
        config = parse_config(text)
        assert len(config.cells) == 16
        # multiplier varies fastest, control rate slowest
        assert config.cells[0] == GridCell(0.06, 1.3, 0.0, 0.8)
        assert config.cells[1] == GridCell(0.06, 1.3, 0.0, 1.0)
        assert config.cells[2] == GridCell(0.06, 1.3, 0.2, 0.8)
        assert config.cells[-1] == GridCell(0.25, 1.7, 0.2, 1.0)

    def test_explicit_scenario_list(self):
        text = json.dumps(
            {
                "scenarios": [
                    {"p_C": 0.25, "rr": 1.7, "pilot_fraction": 0.2, "w": 0.3},
                    {"p_C": 0.6, "rr": 1.3},
                ]
            }
        )
        config = parse_config(text)
        assert config.cells[0].prior_weight == 0.3
        assert config.cells[1] == GridCell(0.6, 1.3, 0.0, 1.0, 0.5)

    def test_shorthand_cells_equal_list_cells(self):
        lists = {"p_C": [0.06, 0.6], "rr": [1.3, 1.9], "pilot_fraction": [0, 0.4]}
        cells = [
            {"p_C": p_c, "rr": rr, "pilot_fraction": f}
            for p_c in lists["p_C"]
            for rr in lists["rr"]
            for f in lists["pilot_fraction"]
        ]
        shorthand = parse_config(json.dumps({"scenarios": lists}))
        assert shorthand == parse_config(json.dumps({"scenarios": cells}))

    @pytest.mark.parametrize(
        "key,values",
        [
            ("p_C", [0.25, 1.5]),
            ("p_C", [0.0]),
            ("p_C", ["0.25"]),
            ("p_C", []),
            ("rr", [1.7, -1]),
            ("rr", [float("nan")]),
            ("rr", 1.7),
            ("pilot_fraction", [0.2, 1.0]),
            ("pilot_fraction", [float("nan")]),
            ("rr_pilot_multiplier", [1.0, 0]),
            ("rr_pilot_multiplier", [float("nan")]),
            # json.dumps writes the integer literal, which float() cannot convert
            ("rr", [10**400]),
            ("p_C", [-(10**400)]),
        ],
    )
    def test_shorthand_entry_rejected_with_field_name(self, key, values):
        scenarios = {"p_C": [0.25], "rr": [1.7], key: values}
        with pytest.raises(ConfigError, match=f"scenarios.{key}"):
            parse_config(json.dumps({"scenarios": scenarios}))

    def test_infeasible_cell_is_flagged_not_fatal(self):
        text = json.dumps({"scenarios": {"p_C": [0.6], "rr": [1.9]}})
        config = parse_config(text)
        assert len(config.cells) == 1
        assert not config.cells[0].feasible
        assert config.infeasible_cells() == (config.cells[0],)

    def test_phi_out_of_range_names_field(self):
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "phi": 1.5})
        with pytest.raises(ConfigError, match="phi"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(text)
        nested = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7], "oops": []}})
        with pytest.raises(ConfigError, match="oops"):
            parse_config(nested)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_config('{\n  "scenarios": }')

    def test_missing_scenarios(self):
        with pytest.raises(ConfigError, match="scenarios"):
            parse_config("{}")

    def test_workers_auto(self):
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "workers": "auto"})
        config = parse_config(text)
        assert config.workers == max(os.cpu_count() or 1, 1)

    def test_master_seed_validation(self):
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "master_seed": -1})
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(text)

    def test_recruitment_block(self):
        text = json.dumps(
            {
                "scenarios": {"p_C": [0.25], "rr": [1.7]},
                "recruitment": {"lambda0": [2, 5], "months": [46], "rate_interpretation": "per_arm"},
            }
        )
        config = parse_config(text)
        assert config.recruitment.rates == (2.0, 5.0)
        assert config.recruitment.months == (46.0,)
        assert config.recruitment.target_n(206) == 103

    def test_recruitment_validation(self):
        text = json.dumps(
            {"scenarios": {"p_C": [0.25], "rr": [1.7]}, "recruitment": {"lambda0": [0]}}
        )
        with pytest.raises(ConfigError, match="lambda0"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["lambda0", "months"])
    def test_infinite_recruitment_entry_rejected(self, key):
        # json.dumps writes Infinity, which json.loads reads back as inf
        block = {"lambda0": [5], "months": [46], key: [float("inf")]}
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "recruitment": block})
        with pytest.raises(ConfigError, match=f"recruitment.{key}"):
            parse_config(text)

    @pytest.mark.parametrize(
        "plan,message",
        [
            (dict(rates=(True,)), "recruitment.lambda0 entries must be positive and finite, got True"),
            (dict(rates=(5.0, "2")), "recruitment.lambda0 entries must be positive and finite, got 2"),
            (dict(months=(True,)), "recruitment.months entries must be positive and finite, got True"),
            (dict(months=(0.0,)), "recruitment.months entries must be positive and finite, got 0.0"),
        ],
    )
    def test_recruitment_plan_rejects_bools_and_non_numbers(self, plan, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            RecruitmentPlan(**plan)

    _RATES = "recruitment.lambda0 entries"

    @pytest.mark.parametrize(
        "plan,message",
        [
            # ln Γ(2 lambda0 + n) overflows, or n / rate does
            (dict(rates=(5.0, 1.3e305)), f"{_RATES} must lie in [1e-300, 1.27e+305], got 1.3e+305"),
            (dict(rates=(1e-320,)), f"{_RATES} must lie in [1e-300, 1.27e+305], got 1e-320"),
            (dict(months=(46.0, 1e9)), "recruitment.months entries must be at most 1e+08, got 1000000000.0"),
        ],
    )
    def test_recruitment_plan_bounds_rates_and_windows(self, plan, message):
        with pytest.raises(ConfigError) as raised:
            RecruitmentPlan(**plan)
        assert str(raised.value) == message

    @pytest.mark.parametrize("key", ["lambda0", "months"])
    def test_integer_past_the_largest_double_is_rejected(self, key):
        block = {"lambda0": [5], "months": [46], key: [10**400]}
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "recruitment": block})
        with pytest.raises(ConfigError, match=f"^recruitment.{key} must fit in a double, got 1"):
            parse_config(text)
        plan = {"lambda0": "rates", "months": "months"}[key]
        with pytest.raises(ConfigError, match=f"^recruitment.{key} entries must be positive"):
            RecruitmentPlan(**{plan: (10**400,)})

    def test_integer_past_the_largest_double_in_a_cell_names_it(self):
        text = json.dumps({"scenarios": [{"p_C": 0.25, "rr": 1.7, "w": 10**400}]})
        with pytest.raises(ConfigError, match=r"^scenarios\[0\]\.w must fit in a double"):
            parse_config(text)

    def test_seed_checked_when_a_config_is_replaced(self):
        config = parse_config(json.dumps({"scenarios": {"p_C": [0.6], "rr": [1.9]}}))
        for seed in (-1, 1 << 64):
            with pytest.raises(ConfigError, match="master_seed"):
                replace(config, master_seed=seed)

    @pytest.mark.parametrize(
        "item,message",
        [
            (
                {"p_C": 1.5, "rr": 1.7},
                r"scenarios\[0\]\.p_C \(control_rate\) must lie in \(0, 1\), got 1.5",
            ),
            (
                {"p_C": 0.25, "rr": 1.7, "w": 2},
                r"scenarios\[0\]\.w \(prior_weight\) must lie in \[0, 1\]",
            ),
        ],
    )
    def test_cell_error_names_key_then_field(self, item, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"scenarios": [item]}))

    @pytest.mark.parametrize(
        "settings,name",
        [
            ({"workers": 0}, "workers"),
            ({"workers": -1}, "workers"),
            ({"workers": True}, "workers"),
            ({"workers": 1.5}, "workers"),
            ({"replicates": 0}, "replicates"),
            ({"replicates": 200.0}, "replicates"),
            ({"target_power": 1.5}, "target_power"),
            ({"target_power": float("nan")}, "target_power"),
            ({"threshold": 1.0}, "phi"),
            ({"workers": None}, "workers"),
            ({"output_path": ""}, "output_path"),
            ({"output_path": 5}, "output_path"),
        ],
    )
    def test_run_settings_checked_where_a_run_config_is_built(self, settings, name):
        cells = (GridCell(0.25, 1.9, 0.2),)
        with pytest.raises(ConfigError, match=name):
            run_grid(RunConfig(cells=cells, **{"replicates": 200, **settings}))
        config = RunConfig(cells=cells, replicates=200)
        with pytest.raises(ConfigError, match=name):
            replace(config, **settings)

    def test_workers_null_is_not_auto(self):
        text = json.dumps({"scenarios": {"p_C": [0.25], "rr": [1.7]}, "workers": None})
        with pytest.raises(ConfigError, match="workers"):
            parse_config(text)

    def test_round_trip_through_canonical_json(self):
        text = json.dumps(
            {
                "scenarios": {
                    "p_C": [0.06, 0.25],
                    "rr": [1.7],
                    "pilot_fraction": [0, 0.2],
                },
                "target_power": 0.85,
                "phi": 0.95,
                "replicates": 500,
                "master_seed": 42,
                "workers": 2,
                "output_path": "out.csv",
                "recruitment": {"lambda0": [5], "months": [24, 46]},
            }
        )
        config = parse_config(text)
        assert config.cells == tuple(
            GridCell(control_rate=p_c, risk_ratio=1.7, pilot_fraction=f)
            for p_c in (0.06, 0.25)
            for f in (0.0, 0.2)
        )
        assert (config.target_power, config.threshold) == (0.85, 0.95)
        assert (config.replicates, config.master_seed, config.workers) == (500, 42, 2)
        assert config.output_path == "out.csv"
        assert config.recruitment == RecruitmentPlan(rates=(5.0,), months=(24.0, 46.0))
