import json
import math
from dataclasses import replace

import pytest

from pilot_borrow.config import ConfigError, RecruitmentPlan, parse_config
from pilot_borrow.runner import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_UNREACHABLE,
    ResultRow,
    csv_header,
    emit_results,
    run_grid,
)


def fast_config(**extra) -> str:
    doc = {
        "scenarios": {"p_C": [0.3], "rr": [2.2], "pilot_fraction": [0, 0.2]},
        "replicates": 600,
        "master_seed": 1234,
        "recruitment": {"lambda0": [5, 10], "months": [24]},
    }
    doc.update(extra)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fast_rows():
    config = parse_config(fast_config())
    return config, run_grid(config)


class TestRunGrid:
    def test_row_per_cell_in_config_order(self, fast_rows):
        config, rows = fast_rows
        assert len(rows) == len(config.cells)
        for row, cell in zip(rows, config.cells):
            assert row.control_rate == cell.control_rate
            assert row.pilot_fraction == cell.pilot_fraction

    def test_feasible_rows_have_results(self, fast_rows):
        _, rows = fast_rows
        for row in rows:
            assert row.status == STATUS_OK
            assert row.n_total is not None and row.n_total % 2 == 0
            assert row.power is not None and row.power >= 0.75
            assert len(row.durations) == 2
            assert len(row.recruit_probs) == 2
            assert row.durations[0] == row.n_total / 5

    def test_pilot_shrinks_required_size(self, fast_rows):
        _, rows = fast_rows
        no_pilot, with_pilot = rows
        assert with_pilot.n_total <= no_pilot.n_total

    def test_infeasible_cell_row(self):
        config = parse_config(
            json.dumps(
                {
                    "scenarios": {"p_C": [0.6], "rr": [1.9]},
                    "replicates": 200,
                }
            )
        )
        rows = run_grid(config)
        assert len(rows) == 1
        assert rows[0].status == STATUS_INFEASIBLE
        assert rows[0].n_total is None and rows[0].power is None

    def test_unreachable_cell_row(self):
        config = parse_config(
            json.dumps(
                {
                    "scenarios": {"p_C": [0.3], "rr": [1.05]},
                    "replicates": 300,
                    "target_power": 0.99,
                }
            )
        )
        import pilot_borrow.runner as runner_module

        original = runner_module.SEARCH_N_HI
        runner_module.SEARCH_N_HI = 60
        try:
            rows = run_grid(config)
        finally:
            runner_module.SEARCH_N_HI = original
        assert rows[0].status == STATUS_UNREACHABLE
        assert rows[0].n_total == 60

    def test_worker_counts_agree(self):
        config = parse_config(fast_config(replicates=400))
        serial = run_grid(config)
        from dataclasses import replace

        parallel = run_grid(replace(config, workers=2))
        assert serial == parallel

    def test_per_arm_durations_use_one_arm(self):
        plan = {"lambda0": [5], "months": [24], "rate_interpretation": "per_arm"}
        config = parse_config(fast_config(replicates=300, recruitment=plan))
        total = run_grid(replace(config, recruitment=RecruitmentPlan(rates=(5.0,), months=(24.0,))))
        for row, total_row in zip(run_grid(config), total):
            assert row.n_total == total_row.n_total
            assert row.durations == (math.ceil(row.n_total / 2) / 5,)
            assert total_row.durations == (row.n_total / 5,)
            assert row.recruit_probs[0] > total_row.recruit_probs[0]

    def test_fewer_replicates_same_shape_larger_se(self):
        small = run_grid(parse_config(fast_config(replicates=250)))
        large = run_grid(parse_config(fast_config(replicates=4000)))
        assert len(small) == len(large)
        for row_small, row_large in zip(small, large):
            assert row_small.replicates == 250
            assert row_small.power_se > row_large.power_se


class TestEmitResults:
    def test_header_matches_configured_columns(self, fast_rows):
        config, _ = fast_rows
        header = csv_header(config.recruitment)
        assert header[:9] == [
            "p_C",
            "rr",
            "rr_pilot_multiplier",
            "pilot_fraction",
            "n_total",
            "pilot_total",
            "power",
            "power_se",
            "replicates",
        ]
        assert header[9:] == [
            "duration_rate5",
            "duration_rate10",
            "recruit_prob_rate5_m24",
            "recruit_prob_rate10_m24",
            "status",
            "seed",
        ]

    @pytest.mark.parametrize(
        "key,values", [("lambda0", [5, 5]), ("lambda0", [5, 5.0000001]), ("months", [46, 46])]
    )
    def test_colliding_column_names_rejected(self, key, values):
        plan = {"lambda0": [5], "months": [46], key: values}
        with pytest.raises(ConfigError, match=f"recruitment.{key}"):
            parse_config(fast_config(recruitment=plan))
        field = {"lambda0": "rates", "months": "months"}[key]
        with pytest.raises(ConfigError, match=f"recruitment.{key}"):
            RecruitmentPlan(**{field: tuple(values)})

    def test_empty_rows_write_header_only(self, fast_rows, tmp_path, capsys):
        config, _ = fast_rows
        path = tmp_path / "empty.csv"
        emit_results([], str(path), recruitment=config.recruitment)
        content = path.read_text()
        assert content.count("\n") == 1
        assert content.startswith("p_C,rr,")
        assert "\r" not in content

    def test_single_row_layout(self, fast_rows, tmp_path):
        config, rows = fast_rows
        path = tmp_path / "one.csv"
        emit_results(rows[:1], str(path), recruitment=config.recruitment)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert len(values) == len(header)
        record = dict(zip(header, values))
        assert record["p_C"] == "0.3"
        assert record["n_total"] == str(rows[0].n_total)
        assert record["status"] == "ok"
        assert record["seed"] == "1234"

    def test_reruns_are_byte_identical(self, fast_rows, tmp_path):
        config, rows = fast_rows
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        emit_results(rows, str(path_a), recruitment=config.recruitment)
        emit_results(rows, str(path_b), recruitment=config.recruitment)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_unwritable_path_raises_oserror(self, fast_rows):
        config, rows = fast_rows
        with pytest.raises(OSError, match="no/such/dir"):
            emit_results(rows, "no/such/dir/out.csv", recruitment=config.recruitment)

    def test_summary_prints_every_row(self, fast_rows, capsys):
        config, rows = fast_rows
        from pilot_borrow.runner import print_summary

        print_summary(rows)
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(rows) + 1
        assert "n_total" in out

    def test_golden_rows(self, tmp_path, capsys):
        # One row per status, written byte for byte: the infeasible row keeps
        # every search and recruitment field empty, and the unreachable row
        # carries the top of the search range with the power reached there.
        plan = RecruitmentPlan(rates=(5.0, 10.0), months=(24.0,))
        rows = [
            ResultRow(
                control_rate=0.25, risk_ratio=1.7, pilot_rr_multiplier=1.0,
                pilot_fraction=0.2, n_total=206, pilot_total=41,
                power=0.80123456789, power_se=0.0039893, replicates=10_000,
                durations=(41.2, 20.6), recruit_probs=(1.5e-07, 0.999999999912),
                status=STATUS_OK, seed=12345,
            ),
            ResultRow(
                control_rate=0.3, risk_ratio=1.05, pilot_rr_multiplier=0.8,
                pilot_fraction=0.0, n_total=20_000, pilot_total=0,
                power=0.61, power_se=0.0048773, replicates=10_000,
                durations=(4000.0, 2000.0), recruit_probs=(0.0, 1.2e-300),
                status=STATUS_UNREACHABLE, seed=12345,
            ),
            ResultRow(
                control_rate=0.6, risk_ratio=1.9, pilot_rr_multiplier=1.0,
                pilot_fraction=0.4, replicates=10_000,
                status=STATUS_INFEASIBLE, seed=12345,
            ),
        ]
        path = tmp_path / "golden.csv"
        emit_results(rows, str(path), recruitment=plan)
        assert path.read_bytes() == (
            b"p_C,rr,rr_pilot_multiplier,pilot_fraction,n_total,pilot_total,power,power_se,"
            b"replicates,duration_rate5,duration_rate10,recruit_prob_rate5_m24,"
            b"recruit_prob_rate10_m24,status,seed\n"
            b"0.25,1.7,1,0.2,206,41,0.8012345679,0.0039893,10000,41.2,20.6,1.5e-07,"
            b"0.9999999999,ok,12345\n"
            b"0.3,1.05,0.8,0,20000,0,0.61,0.0048773,10000,4000,2000,0,1.2e-300,"
            b"unreachable,12345\n"
            b"0.6,1.9,1,0.4,,,,,10000,,,,,infeasible,12345\n"
        )
        assert capsys.readouterr().out == (
            "   p_C    rr     c     f  n_total  pilot   power      se       status\n"
            "  0.25   1.7     1   0.2      206     41  0.8012  0.0040           ok\n"
            "   0.3  1.05   0.8     0    20000      0  0.6100  0.0049  unreachable\n"
            "   0.6   1.9     1   0.4        -      -       -       -   infeasible\n"
        )
