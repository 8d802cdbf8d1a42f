import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pilot_borrow.cli import EXIT_FLAGGED, EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from pilot_borrow.config import RunConfig
from pilot_borrow.simulate import DesignScenario, find_min_sample_size

from oracles import philox_binomial_draws


def write_config(tmp_path, **extra):
    doc = {
        "scenarios": {"p_C": [0.3], "rr": [2.2], "pilot_fraction": [0.2]},
        "replicates": 400,
        "master_seed": 777,
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


_CELL = ["--p-c", "0.25", "--rr", "1.7"]
_RECRUIT = ["recruit", "--lambda0", "5", "--n", "230"]
# n = 2**53 once printed a negative probability and exited 0
_NEGATIVE_PROBABILITY = [
    "recruit", "--lambda0", "5", "--n", str(1 << 53), "--months", "1801439850948198"
]

# (argv, environment, stdout lines printed before the bad input); "{config}"
# stands for a valid grid config file, "{infeasible}" for one whose cells are
# all infeasible, "{huge_rr}" for one whose rr is a 401-digit integer, and
# "{huge_lambda0}" and "{long_window}" for the valid one with a recruitment
# rate or window past its bound
REJECTED = [
    # checked by the library: simulate, recruitment and DesignScenario
    pytest.param(["power", *_CELL, "--n-total", "1"], {}, 0, id="power-n-total"),
    pytest.param(["replicate", *_CELL, "--n-total", "1"], {}, 0, id="replicate-n-total"),
    pytest.param(["replicate", *_CELL, "--n-total", "40", "--index", "-1"], {}, 0, id="index"),
    # the Philox counter words are 64-bit
    pytest.param(
        ["replicate", *_CELL, "--n-total", "40", "--index", str(1 << 64)], {}, 0, id="index-overflow"
    ),
    pytest.param(["power", *_CELL, "--n-total", str((1 << 64) + 2)], {}, 0, id="n-total-overflow"),
    pytest.param(
        ["replicate", *_CELL, "--n-total", str((1 << 64) + 2)], {}, 0, id="replicate-n-total-overflow"
    ),
    # one past the largest total the ln Γ table serves
    pytest.param(["power", *_CELL, "--n-total", "1048578"], {}, 0, id="power-n-total-past-bound"),
    pytest.param(
        ["replicate", *_CELL, "--n-total", "1048578"], {}, 0, id="replicate-n-total-past-bound"
    ),
    pytest.param(["conflict", *_CELL, "--target-power", "1.5"], {}, 0, id="target-power"),
    pytest.param(
        ["conflict", *_CELL, "--target-power", "1.5", "--workers", "2", "--replicates", "200"],
        {},
        0,
        id="target-power-from-pool-worker",
    ),
    pytest.param(["conflict", *_CELL, "--target-power", "nan"], {}, 0, id="target-power-nan"),
    pytest.param(["duration", "--n", "-1"], {}, 0, id="duration-n"),
    pytest.param(["duration", "--n", "100", "--rates", "0"], {}, 0, id="duration-rate"),
    pytest.param(["duration", "--n", "100", "--rates", "5,-1"], {}, 1, id="duration-later-rate"),
    pytest.param(["duration", "--n", "100", "--rates", "nan"], {}, 0, id="duration-rate-nan"),
    pytest.param(["recruit", "--lambda0", "5", "--n", "-1", "--months", "46"], {}, 0, id="recruit-n"),
    pytest.param(["recruit", "--lambda0", "5", "--n", "-1", "--solve", "0.8"], {}, 0, id="solve-n"),
    pytest.param([*_RECRUIT, "--months", "0"], {}, 0, id="months"),
    pytest.param([*_RECRUIT, "--months", "46,-1"], {}, 1, id="later-months"),
    pytest.param(["recruit", "--lambda0", "5", "--n", "0", "--months", "-1"], {}, 0, id="months-n-0"),
    pytest.param([*_RECRUIT, "--months", "nan"], {}, 0, id="months-nan"),
    pytest.param([*_RECRUIT, "--solve", "1.5"], {}, 0, id="solve"),
    pytest.param([*_RECRUIT, "--months", "46", "--solve", "1"], {}, 1, id="solve-after-months"),
    pytest.param([*_RECRUIT, "--solve", "nan"], {}, 0, id="solve-nan"),
    pytest.param(["recruit", "--lambda0", "0", "--n", "230", "--months", "46"], {}, 0, id="lambda0"),
    pytest.param(
        ["recruit", "--lambda0", "nan", "--n", "230", "--solve", "0.8"], {}, 0, id="lambda0-nan-solve"
    ),
    pytest.param(
        ["recruit", "--lambda0", "nan", "--n", "230", "--months", "46"], {}, 0, id="lambda0-nan-months"
    ),
    pytest.param(["power", "--p-c", "1.5", "--rr", "1.7", "--n-total", "40"], {}, 0, id="p-c"),
    pytest.param(["power", "--p-c", "0.6", "--rr", "1.9", "--n-total", "40"], {}, 0, id="infeasible"),
    pytest.param(["power", *_CELL, "--phi", "1", "--n-total", "40"], {}, 0, id="phi"),
    pytest.param(["power", *_CELL, "--w", "1.5", "--n-total", "40"], {}, 0, id="w"),
    pytest.param(["power", *_CELL, "--pilot-fraction", "1", "--n-total", "40"], {}, 0, id="fraction"),
    pytest.param(["power", *_CELL, "--replicates", "0", "--n-total", "40"], {}, 0, id="replicates"),
    pytest.param(["power", *_CELL, "--seed", "-1", "--n-total", "40"], {}, 0, id="seed"),
    pytest.param(["grid", "--config", "{config}", "--seed", "-1"], {}, 0, id="grid-seed"),
    pytest.param(["grid", "--config", "{infeasible}", "--seed", "-1"], {}, 0, id="grid-seed-no-cell-run"),
    pytest.param(
        ["recruit", "--lambda0", "inf", "--n", "230", "--months", "46"], {}, 0, id="lambda0-inf"
    ),
    pytest.param([*_RECRUIT, "--months", "inf"], {}, 0, id="months-inf"),
    pytest.param(["duration", "--n", "100", "--rates", "inf"], {}, 0, id="duration-rate-inf"),
    # 2 * lambda0 overflows, or ln Γ(2 * lambda0 + n) does
    pytest.param(
        ["recruit", "--lambda0", "1e308", "--n", "230", "--months", "46"], {}, 0,
        id="lambda0-shape-overflow",
    ),
    pytest.param(
        ["recruit", "--lambda0", "1.3e305", "--n", "230", "--solve", "0.5"], {}, 0,
        id="lambda0-lgamma-overflow-solve",
    ),
    pytest.param(["grid", "--config", "{huge_lambda0}"], {}, 0, id="grid-lambda0-lgamma-overflow"),
    pytest.param(["grid", "--config", "{long_window}"], {}, 0, id="grid-months-past-bound"),
    # n / rate overflows
    pytest.param(["duration", "--n", "230", "--rates", "1e-306"], {}, 0, id="duration-rate-small"),
    # a window past the longest one
    pytest.param([*_RECRUIT, "--months", "46,1e9"], {}, 1, id="months-past-bound"),
    # a recruit count runs to the largest definitive total, 2**20
    pytest.param(
        ["recruit", "--lambda0", "5", "--n", "1048577", "--months", "46"], {}, 0,
        id="recruit-n-past-bound",
    ),
    pytest.param(_NEGATIVE_PROBABILITY, {}, 0, id="recruit-n-2-53"),
    pytest.param(["duration", "--n", "1048577"], {}, 0, id="duration-n-past-bound"),
    pytest.param(["duration", "--n", str(10**400)], {}, 0, id="duration-n-overflow"),
    pytest.param(
        ["recruit", "--lambda0", "5", "--n", str(10**400), "--months", "46"], {}, 0,
        id="recruit-n-overflow",
    ),
    # one past the replicate-index range of the 64-bit stream counter
    pytest.param(
        ["power", *_CELL, "--replicates", str((1 << 64) + 1), "--n-total", "40"], {}, 0,
        id="replicates-overflow",
    ),
    # checked by RunConfig and by the cells of the conflict sweep
    pytest.param(["conflict", *_CELL, "--workers", "0"], {}, 0, id="workers-conflict"),
    pytest.param(["grid", "--config", "{config}", "--replicates", "0"], {}, 0, id="grid-replicates"),
    pytest.param(["grid", "--config", "{config}", "--workers", "0"], {}, 0, id="grid-workers"),
    pytest.param(["grid", "--config", "{config}", "--out", ""], {}, 0, id="grid-out-empty"),
    # a number too large for a double, named by its config field
    pytest.param(["grid", "--config", "{huge_rr}"], {}, 0, id="grid-rr-past-largest-double"),
    pytest.param(["conflict", *_CELL, "--out", ""], {}, 0, id="conflict-out-empty"),
    pytest.param(
        ["conflict", "--p-c", "0.6", "--rr", "1.3", "--multipliers=-0.5,1.0"], {}, 0, id="multiplier"
    ),
    pytest.param(
        ["conflict", "--p-c", "0.6", "--rr", "1.3", "--multipliers", "1.4"], {}, 0, id="multiplier-big"
    ),
    # checked by the command line alone
    pytest.param(_RECRUIT, {}, 0, id="recruit-needs-window"),
    # flags a command does not read are not among its options
    pytest.param(["power", *_CELL, "--workers", "0", "--n-total", "40"], {}, 0, id="workers"),
    pytest.param(["replicate", *_CELL, "--workers", "-1", "--n-total", "40"], {}, 0, id="workers-rep"),
    pytest.param(
        ["replicate", *_CELL, "--n-total", "40", "--replicates", "5"], {}, 0, id="replicate-replicates"
    ),
    # usage errors of the argument parser
    pytest.param(["power", *_CELL, "--n-total", "abc"], {}, 0, id="usage-not-an-int"),
    pytest.param(["power", *_CELL], {}, 0, id="usage-missing-argument"),
    pytest.param(["bogus"], {}, 0, id="usage-unknown-command"),
    pytest.param(["duration", "--n", "100", "--rates", "x"], {}, 0, id="list-not-numbers"),
    pytest.param([*_RECRUIT, "--months", ","], {}, 0, id="list-empty"),
    pytest.param(
        ["power", *_CELL, "--n-total", "40"], {"PILOT_BORROW_SEED": "x"}, 0, id="env-seed-text"
    ),
    pytest.param(
        ["grid", "--config", "{config}"], {"PILOT_BORROW_SEED": str(1 << 64)}, 0, id="env-seed-range"
    ),
]


@pytest.mark.parametrize("argv,env,printed", REJECTED)
def test_rejected_input_exits_1_with_one_error_line(tmp_path, capfd, monkeypatch, argv, env, printed):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config = str(write_config(tmp_path))
    # every cell infeasible, so no cell runs
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps({"scenarios": {"p_C": [0.6], "rr": [1.9]}}))
    huge_rr = tmp_path / "huge_rr.json"
    huge_rr.write_text(json.dumps({"scenarios": {"p_C": [0.25], "rr": [10**400]}}))
    paths = {"{config}": config, "{infeasible}": str(infeasible), "{huge_rr}": str(huge_rr)}
    for name, recruitment in (
        ("huge_lambda0", {"lambda0": [1.3e305]}), ("long_window", {"months": [1e9]})
    ):
        (tmp_path / name).mkdir()
        paths[f"{{{name}}}"] = str(write_config(tmp_path / name, recruitment=recruitment))
    argv = [paths.get(arg, arg) for arg in argv]
    code = main(argv)
    out, err = capfd.readouterr()
    assert code == EXIT_VALIDATION
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len(out.splitlines()) == printed


# also in REJECTED's terms: exit 1, one error line, nothing printed
@pytest.mark.parametrize(
    "argv,message",
    [
        # ln Γ(2 * lambda0 + n) overflows
        (
            ["recruit", "--lambda0", "1.3e305", "--n", "230", "--months", "46"],
            "lambda0 must lie in [1e-300, 1.27e+305], got 1.3e+305",
        ),
        # n / rate overflows
        (
            ["duration", "--n", "230", "--rates", "1e-320"],
            "recruitment rate must lie in [1e-300, 1.27e+305], got 1e-320",
        ),
        ([*_RECRUIT, "--months", "1e9"], "months must be at most 1e+08, got 1000000000.0"),
        # the window that reaches it, about 6.5e150 months, is out of range
        (
            ["recruit", "--lambda0", "0.001", "--n", "1", "--solve", "0.5"],
            "target probability must be reached within 1e+08 months, got 0.5",
        ),
    ],
)
def test_recruitment_bounds_name_their_input(capfd, argv, message):
    assert main(argv) == EXIT_VALIDATION
    out, err = capfd.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_solve_at_the_largest_rate_finishes(capfd):
    argv = ["recruit", "--lambda0", "1.27e305", "--n", "1048576", "--solve", "0.99"]
    assert main(argv) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == "" and out.endswith(": 0.01\n")


@pytest.mark.parametrize("argv", [_NEGATIVE_PROBABILITY, ["duration", "--n", str(10**400)]])
def test_recruit_count_past_the_largest_total_names_the_bound(capfd, argv):
    assert main(argv) == EXIT_VALIDATION
    out, err = capfd.readouterr()
    assert out == "" and err == f"error: n must be <= 1048576, got {argv[argv.index('--n') + 1]}\n"


_POWER = ["power", *_CELL, "--n-total", "206"]
_REPLICATE = ["replicate", *_CELL, "--n-total", "206"]
_CONFLICT = ["conflict", *_CELL]


@pytest.mark.parametrize(
    "owner,name,argv,dest,value",
    [
        (DesignScenario, "threshold", _POWER, "phi", 0.9),
        (DesignScenario, "prior_weight", _CONFLICT, "w", 0.25),
        (DesignScenario, "replicates", _POWER, "replicates", 123),
        (DesignScenario, "pilot_rr_multiplier", _REPLICATE, "multiplier", 1.1),
        (DesignScenario, "pilot_fraction", _POWER, "pilot_fraction", 0.3),
        (DesignScenario, "pilot_fraction", _REPLICATE, "pilot_fraction", 0.3),
        (RunConfig, "target_power", _CONFLICT, "target_power", 0.9),
        (RunConfig, "workers", _CONFLICT, "workers", 3),
    ],
)
def test_omitted_flags_take_the_library_defaults(monkeypatch, owner, name, argv, dest, value):
    monkeypatch.setattr(owner, name, value)
    assert getattr(build_parser().parse_args(argv), dest) == value


class TestPowerCommand:
    def test_prints_estimate(self, capsys):
        code = main(
            [
                "power", "--p-c", "0.25", "--rr", "1.7", "--n-total", "80",
                "--replicates", "500", "--seed", "42",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "power=" in out and "se=" in out and "seed=42" in out

    def test_infeasible_cell_is_validation_error(self, capsys):
        code = main(["power", "--p-c", "0.6", "--rr", "1.9", "--n-total", "80"])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_seed_precedence_flag_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PILOT_BORROW_SEED", "1000")
        main(["power", "--p-c", "0.25", "--rr", "1.7", "--n-total", "40", "--replicates", "200"])
        assert "seed=1000" in capsys.readouterr().out
        main(
            [
                "power", "--p-c", "0.25", "--rr", "1.7", "--n-total", "40",
                "--replicates", "200", "--seed", "2000",
            ]
        )
        assert "seed=2000" in capsys.readouterr().out

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("PILOT_BORROW_SEED", "not-a-seed")
        code = main(["power", "--p-c", "0.25", "--rr", "1.7", "--n-total", "40"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("workers", ["0", "-2", "2"])
    def test_workers_is_a_usage_error(self, capsys, workers):
        """A probe runs in one process, so power has no --workers flag."""
        code = main(
            ["power", "--p-c", "0.25", "--rr", "1.7", "--n-total", "40", "--workers", workers]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: unrecognized arguments: --workers {workers}")


    @pytest.mark.parametrize("rates", [["--rr", "nan"], ["--rr", "1.7", "--multiplier", "nan"]])
    def test_nan_rate_is_validation_error(self, capsys, rates):
        code = main(["power", "--p-c", "0.25", *rates, "--n-total", "40"])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestGridCommand:
    def test_writes_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_csv = tmp_path / "rows.csv"
        code = main(["grid", "--config", str(config), "--out", str(out_csv)])
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("p_C,rr,")

    def test_replicate_and_seed_overrides_change_output(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["grid", "--config", str(config), "--out", str(out_a), "--replicates", "300"])
        main(
            [
                "grid", "--config", str(config), "--out", str(out_b),
                "--replicates", "300", "--seed", "778",
            ]
        )
        row_a = out_a.read_text().splitlines()[1]
        row_b = out_b.read_text().splitlines()[1]
        assert row_a.split(",")[8] == "300"
        assert row_a.split(",")[-1] == "777"
        assert row_b.split(",")[-1] == "778"

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["grid", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenarios": {"p_C": [0.25], "rr": [1.7]}, "phi": 2}')
        code = main(["grid", "--config", str(path)])
        assert code == EXIT_VALIDATION
        assert "phi" in capsys.readouterr().err

    def test_infeasible_cell_flags_exit_code(self, tmp_path, capsys):
        config = write_config(
            tmp_path, scenarios={"p_C": [0.3, 0.6], "rr": [1.9], "pilot_fraction": [0]}
        )
        out_csv = tmp_path / "rows.csv"
        code = main(["grid", "--config", str(config), "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == EXIT_FLAGGED
        assert "infeasible" in err
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 3
        assert "infeasible" in lines[2]

    @pytest.mark.parametrize("recruitment", [{"lambda0": [5, 5]}, {"months": [46, 46.0000001]}])
    def test_colliding_csv_columns_are_validation_error(self, tmp_path, capfd, recruitment):
        config = write_config(tmp_path, recruitment=recruitment)
        code = main(["grid", "--config", str(config), "--out", str(tmp_path / "rows.csv")])
        out, err = capfd.readouterr()
        assert code == EXIT_VALIDATION
        assert err.startswith("error: recruitment.") and len(err.splitlines()) == 1
        assert not (tmp_path / "rows.csv").exists()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["grid", "--config", str(config), "--out", str(tmp_path / "no/dir.csv")])
        assert code == EXIT_IO


class TestConflictCommand:
    def test_sweep_prints_rows(self, capsys):
        code = main(
            [
                "conflict", "--p-c", "0.3", "--rr", "2.2", "--pilot-fraction", "0.2",
                "--multipliers", "0.9,1.0", "--replicates", "400", "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3

    def test_multiplier_prefix_means_multipliers(self, capsys):
        # conflict has no --multiplier flag; argparse reads the prefix as --multipliers
        base = ["conflict", "--p-c", "0.3", "--rr", "2.2", "--replicates", "300", "--seed", "5"]
        assert main([*base, "--multiplier", "0.9"]) == EXIT_OK
        prefixed = capsys.readouterr().out
        assert main([*base, "--multipliers", "0.9"]) == EXIT_OK
        assert prefixed == capsys.readouterr().out
        assert len(prefixed.splitlines()) == 2

    def test_run_settings_rejected_before_any_cell_runs(self, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("pilot_borrow.cli.run_grid", no_run)
        code = main(["conflict", *_CELL, "--target-power", "1.5", "--workers", "2"])
        assert code == EXIT_VALIDATION
        assert "target_power" in capsys.readouterr().err

    def test_infeasible_multiplier(self, capsys):
        code = main(
            ["conflict", "--p-c", "0.6", "--rr", "1.3", "--multipliers", "1.4", "--replicates", "200"]
        )
        assert code == EXIT_VALIDATION


class TestRunConflictGrid:
    def test_one_result_per_multiplier(self, tmp_path, capsys):
        out_csv = tmp_path / "conflict.csv"
        code = main(
            [
                "conflict", "--p-c", "0.3", "--rr", "2.0", "--pilot-fraction", "0.2",
                "--multipliers", "0.85,1.0", "--w", "0.3", "--replicates", "1200",
                "--seed", "55", "--workers", "2", "--out", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_csv.open()))
        assert [row["rr_pilot_multiplier"] for row in rows] == ["0.85", "1"]
        assert all(row["status"] == "ok" for row in rows)
        # the no-conflict row must match a direct search of the base scenario
        direct = find_min_sample_size(
            DesignScenario(
                control_rate=0.3, risk_ratio=2.0, pilot_fraction=0.2, prior_weight=0.3,
                replicates=1200, master_seed=55,
            )
        )
        assert rows[1]["n_total"] == str(direct.n_total)
        assert rows[1]["pilot_total"] == str(direct.pilot_total)
        assert rows[1]["power"] == format(direct.power_at_n.power, ".10g")
        assert rows[1]["power_se"] == format(direct.power_at_n.standard_error, ".10g")

    @pytest.mark.parametrize("multipliers", ["-0.5,1.0", "0", "1.4"])
    def test_infeasible_multiplier_rejected(self, capsys, multipliers):
        code = main(
            [
                "conflict", "--p-c", "0.6", "--rr", "1.3", f"--multipliers={multipliers}",
                "--replicates", "200",
            ]
        )
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestDurationCommand:
    def test_reference_values(self, capsys):
        code = main(["duration", "--n", "846", "--rates", "10,5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "84.6 months (display 85)" in out
        assert "169.2 months (display 169)" in out

    def test_bad_rate(self, capsys):
        assert main(["duration", "--n", "100", "--rates", "0"]) == EXIT_VALIDATION


class TestRecruitCommand:
    def test_probability_and_solve(self, capsys):
        code = main(
            ["recruit", "--lambda0", "5", "--n", "230", "--months", "46", "--solve", "0.83"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "P(N >= 230 within 46 months" in out
        assert "65.96" in out

    def test_needs_months_or_solve(self, capsys):
        assert main(["recruit", "--lambda0", "5", "--n", "230"]) == EXIT_VALIDATION

    def test_far_tail_prints_zero_not_a_negative_value(self, capsys):
        # the tail, about 6.6e-300, once printed as -0.000000
        argv = ["recruit", "--lambda0", "1e-300", "--n", "1048576", "--months", "1e8"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "P(N >= 1048576 within 1e+08 months | lambda0=1e-300) = 0.000000\n"


class TestReplicateCommand:
    def test_debug_printout(self, capsys):
        code = main(
            [
                "replicate", "--p-c", "0.25", "--rr", "1.7", "--pilot-fraction", "0.2",
                "--n-total", "206", "--seed", "42", "--index", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "pilot draws:" in out
        assert "prior control:" in out
        assert "posterior treatment:" in out
        assert "updated informative weight:" in out
        assert "superiority probability:" in out
        assert "decision:" in out

    def test_identical_streams_reproduce(self, capsys):
        args = [
            "replicate", "--p-c", "0.25", "--rr", "1.7", "--n-total", "100",
            "--seed", "9", "--index", "0",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "extra,expected",
        [
            (
                [],
                """\
replicate index=3 seed=42 n_total=206
pilot draws: control 8/21, treatment 7/20
prior control:   0.500000 * Beta(1, 1) + 0.500000 * Beta(9, 14)
prior treatment: 0.500000 * Beta(1, 1) + 0.500000 * Beta(8, 14)
definitive draws: control 31/103, treatment 42/103
posterior control:   0.263516 * Beta(32, 73) + 0.736484 * Beta(40, 86)
posterior treatment: 0.241501 * Beta(43, 62) + 0.758499 * Beta(50, 75)
updated informative weight: control 0.736484, treatment 0.758499
superiority probability: 0.922921
decision: not superior
""",
            ),
            (
                ["--w", "0.3"],
                """\
replicate index=3 seed=42 n_total=206
pilot draws: control 8/21, treatment 7/20
prior control:   0.700000 * Beta(1, 1) + 0.300000 * Beta(9, 14)
prior treatment: 0.700000 * Beta(1, 1) + 0.300000 * Beta(8, 14)
definitive draws: control 31/103, treatment 42/103
posterior control:   0.455003 * Beta(32, 73) + 0.544997 * Beta(40, 86)
posterior treatment: 0.426250 * Beta(43, 62) + 0.573750 * Beta(50, 75)
updated informative weight: control 0.544997, treatment 0.573750
superiority probability: 0.928761
decision: not superior
""",
            ),
        ],
    )
    def test_pinned_printout(self, capsys, extra, expected):
        code = main(
            [
                "replicate", "--p-c", "0.25", "--rr", "1.7", "--pilot-fraction", "0.2",
                "--n-total", "206", "--seed", "42", "--index", "3",
            ]
            + extra
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected


    def test_pinned_draws_match_the_per_replicate_reference(self):
        # replicate 3 alone; arms (21, 20, 103, 103) at rates (0.25, 0.425)
        rates = (0.25, 1.7 * 0.25, 0.25, 1.7 * 0.25)
        draws = philox_binomial_draws(42, 206, (21, 20, 103, 103), rates, [3])[0]
        assert list(draws) == [8, 7, 31, 42]


def test_import_path_is_free_of_scipy():
    # numpy and the standard library are the package's only run-time dependencies
    script = "import sys, pilot_borrow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
