"""Declarative run configuration: JSON schema, validation, grid expansion.

A config document names either an explicit list of scenario cells or a
cross-product shorthand (lists of control rates, risk ratios, pilot
fractions, and pilot risk-ratio multipliers). Cells whose implied success
probability exceeds one are kept but flagged infeasible rather than
rejected, so a factorial grid can be submitted as-is.

Schema (all keys optional unless marked; unknown keys are rejected). A key
that a document leaves out takes the default of the dataclass field it sets
(GridCell, RunConfig or RecruitmentPlan); this module restates none::

    {
      "scenarios": {                       # required; dict shorthand ...
        "p_C": [0.06, 0.25, 0.6],          #   required list
        "rr": [1.3, 1.7, 1.9],             #   required list
        "pilot_fraction": [0, 0.2],        #   optional list
        "rr_pilot_multiplier": [1.0]       #   optional list
      },                                   # ... or a list of cell objects:
      # "scenarios": [{"p_C": 0.25, "rr": 1.7, "pilot_fraction": 0.2,
      #                "rr_pilot_multiplier": 1.0, "w": 0.5}, ...]
      "target_power": 0.80,
      "phi": 0.975,
      "replicates": 10000,
      "master_seed": 20260808,
      "workers": 1,                        # positive int, or "auto": the CPU count
      "output_path": "results.csv",
      "recruitment": {
        "lambda0": [2, 5, 10],             # recruits per month
        "months": [46],                    # windows for recruitment probability
        "rate_interpretation": "total"     # or "per_arm"
      }
    }
"""

import itertools
import json
import math
import os
from dataclasses import dataclass, field

from .simulate import (
    _SEED_MASK,
    DEFAULT_MASTER_SEED,
    GridCell,
    check_integer,
    check_positive_finite,
    check_unit_interval,
    split_arms,
)

# config key of each RunConfig field
_RUN_KEYS = {
    "scenarios": "cells",
    "target_power": "target_power",
    "phi": "threshold",
    "replicates": "replicates",
    "master_seed": "master_seed",
    "workers": "workers",
    "output_path": "output_path",
    "recruitment": "recruitment",
}
# config key of each GridCell field
_CELL_KEYS = {
    "p_C": "control_rate",
    "rr": "risk_ratio",
    "pilot_fraction": "pilot_fraction",
    "rr_pilot_multiplier": "pilot_rr_multiplier",
    "w": "prior_weight",
}


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class RecruitmentPlan:
    """Recruitment rates and probability windows attached to grid output."""

    rates: tuple[float, ...] = (2.0, 5.0, 10.0)
    months: tuple[float, ...] = ()
    rate_interpretation: str = "total"

    def __post_init__(self):
        for key, values in (("lambda0", self.rates), ("months", self.months)):
            for value in values:
                try:
                    check_positive_finite(value, f"recruitment.{key} entries")
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
            # the CSV names a column by each value at 6 significant digits ({:g})
            _require(
                len({f"{v:g}" for v in values}) == len(values),
                f"recruitment.{key} entries name CSV columns, so they must differ "
                "at 6 significant digits",
            )
        _require(
            self.rate_interpretation in ("total", "per_arm"),
            'recruitment.rate_interpretation must be "total" or "per_arm"',
        )

    def target_n(self, n_total: int) -> int:
        """Recruits the model must reach: whole trial, or one arm."""
        if self.rate_interpretation == "per_arm":
            return split_arms(n_total)[0]
        return n_total


@dataclass(frozen=True)
class RunConfig:
    cells: tuple[GridCell, ...]
    target_power: float = 0.80
    threshold: float = 0.975
    replicates: int = 10_000
    master_seed: int = DEFAULT_MASTER_SEED
    workers: int = 1
    output_path: str | None = None
    recruitment: RecruitmentPlan = field(default_factory=RecruitmentPlan)

    def __post_init__(self):
        # here rather than in parse_config, so dataclasses.replace and callers
        # that build a RunConfig directly are checked too; DesignScenario runs
        # the same checks on the settings it shares
        try:
            check_unit_interval(self.target_power, "target_power")
            check_unit_interval(self.threshold, "phi (threshold)")
            check_integer(self.replicates, "replicates", 1, _SEED_MASK + 1)
            check_integer(self.workers, "workers", 1, math.inf)
            check_integer(self.master_seed, "master_seed", 0, _SEED_MASK)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.output_path is not None:
            _require(
                isinstance(self.output_path, str) and self.output_path,
                "output_path must be a non-empty string",
            )

    def infeasible_cells(self) -> tuple[GridCell, ...]:
        return tuple(cell for cell in self.cells if not cell.feasible)


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_number(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the largest double
        raise ConfigError(f"{name} must fit in a double, got {value}") from None


def _as_number_list(value, name: str) -> list[float]:
    _require(isinstance(value, list) and value, f"{name} must be a non-empty list of numbers")
    return [_as_number(v, name) for v in value]


def _parse_cell(item: dict, where: str) -> GridCell:
    """Type-check one cell object; GridCell checks the values."""
    _require(isinstance(item, dict), f"{where} must be an object")
    _check_keys(item, set(_CELL_KEYS), where)
    _require("p_C" in item, f"{where} is missing p_C")
    _require("rr" in item, f"{where} is missing rr")
    values = {_CELL_KEYS[key]: _as_number(value, f"{where}.{key}") for key, value in item.items()}
    try:
        return GridCell(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def _expand_shorthand(obj: dict) -> tuple[GridCell, ...]:
    """Cross product of the lists given, last key fastest; each cell checked as a list cell."""
    listed = ("p_C", "rr", "pilot_fraction", "rr_pilot_multiplier")
    _check_keys(obj, set(listed), "scenarios")
    _require("p_C" in obj, "scenarios is missing p_C")
    _require("rr" in obj, "scenarios is missing rr")
    keys = [key for key in listed if key in obj]
    combos = itertools.product(*(_as_number_list(obj[key], f"scenarios.{key}") for key in keys))
    return tuple(_parse_cell(dict(zip(keys, combo)), "scenarios") for combo in combos)


def _parse_recruitment(block) -> RecruitmentPlan:
    """Type-check the recruitment object; RecruitmentPlan checks the values."""
    _require(isinstance(block, dict), "recruitment must be an object")
    _check_keys(block, {"lambda0", "months", "rate_interpretation"}, "recruitment")
    plan = dict(block)
    if "lambda0" in plan:
        plan["rates"] = tuple(_as_number_list(plan.pop("lambda0"), "recruitment.lambda0"))
    if "months" in plan:
        _require(isinstance(plan["months"], list), "recruitment.months must be a list")
        plan["months"] = tuple(_as_number(v, "recruitment.months") for v in plan["months"])
    return RecruitmentPlan(**plan)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Malformed JSON reports the line and column; invalid values name the
    field. This function checks types and keys; GridCell, RecruitmentPlan
    and RunConfig check the values. Arithmetically infeasible scenario
    cells are accepted and flagged, not rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(doc, dict), "config document must be a JSON object")
    _check_keys(doc, set(_RUN_KEYS), "config")
    _require("scenarios" in doc, "config is missing scenarios")
    settings = {_RUN_KEYS[key]: value for key, value in doc.items()}

    scenarios = doc["scenarios"]
    if isinstance(scenarios, dict):
        settings["cells"] = _expand_shorthand(scenarios)
    elif isinstance(scenarios, list):
        _require(len(scenarios) > 0, "scenarios list must be non-empty")
        settings["cells"] = tuple(
            _parse_cell(item, f"scenarios[{i}]") for i, item in enumerate(scenarios)
        )
    else:
        raise ConfigError("scenarios must be an object (shorthand) or a list of cells")
    if doc.get("workers") == "auto":
        settings["workers"] = max(os.cpu_count() or 1, 1)
    if "recruitment" in doc:
        settings["recruitment"] = _parse_recruitment(doc["recruitment"])
    return RunConfig(**settings)
