"""Declarative run configuration: JSON schema, validation, grid expansion.

A config document names either an explicit list of scenario cells or a
cross-product shorthand (lists of control rates, risk ratios, pilot
fractions, and pilot risk-ratio multipliers). Cells whose implied success
probability exceeds one are kept but flagged infeasible rather than
rejected, so a factorial grid can be submitted as-is.

Schema (all keys optional unless marked; unknown keys are rejected)::

    {
      "scenarios": {                       # required; dict shorthand ...
        "p_C": [0.06, 0.25, 0.6],          #   required list
        "rr": [1.3, 1.7, 1.9],             #   required list
        "pilot_fraction": [0, 0.2],        #   default [0.0]
        "rr_pilot_multiplier": [1.0]       #   default [1.0]
      },                                   # ... or a list of cell objects:
      # "scenarios": [{"p_C": 0.25, "rr": 1.7, "pilot_fraction": 0.2,
      #                "rr_pilot_multiplier": 1.0, "w": 0.5}, ...]
      "target_power": 0.80,
      "phi": 0.975,
      "replicates": 10000,
      "master_seed": 20260808,
      "workers": 1,                        # positive int or "auto"
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
    DEFAULT_MASTER_SEED,
    GridCell,
    check_open_probability,
    check_positive_int,
    check_seed,
)

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
            _require(
                all(0.0 < v < math.inf for v in values),
                f"recruitment.{key} entries must be positive and finite",
            )
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
            return (n_total + 1) // 2
        return n_total


DEFAULT_RECRUITMENT = RecruitmentPlan()


@dataclass(frozen=True)
class RunConfig:
    cells: tuple[GridCell, ...]
    target_power: float = 0.80
    threshold: float = 0.975
    replicates: int = 10_000
    master_seed: int = DEFAULT_MASTER_SEED
    workers: int | None = 1  # None means "auto"
    output_path: str | None = None
    recruitment: RecruitmentPlan = field(default_factory=RecruitmentPlan)

    def __post_init__(self):
        # here rather than in parse_config, so dataclasses.replace and callers
        # that build a RunConfig directly are checked too; DesignScenario runs
        # the same checks on the settings it shares
        try:
            check_open_probability(self.target_power, "target_power")
            check_open_probability(self.threshold, "phi (threshold)")
            check_positive_int(self.replicates, "replicates")
            if self.workers is not None:
                check_positive_int(self.workers, "workers")
            check_seed(self.master_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved_workers(self) -> int:
        if self.workers is None:
            return max(os.cpu_count() or 1, 1)
        return self.workers

    def infeasible_cells(self) -> tuple[GridCell, ...]:
        return tuple(cell for cell in self.cells if not cell.feasible)


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_number(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} must be a number")
    return float(value)


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
    """Cross product of the lists, last key fastest; each cell checked as a list cell."""
    keys = ("p_C", "rr", "pilot_fraction", "rr_pilot_multiplier")
    _check_keys(obj, set(keys), "scenarios")
    _require("p_C" in obj, "scenarios is missing p_C")
    _require("rr" in obj, "scenarios is missing rr")
    lists = {"pilot_fraction": [0.0], "rr_pilot_multiplier": [1.0], **obj}
    combos = itertools.product(*(_as_number_list(lists[key], f"scenarios.{key}") for key in keys))
    return tuple(_parse_cell(dict(zip(keys, combo)), "scenarios") for combo in combos)


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
    _check_keys(
        doc,
        {
            "scenarios",
            "target_power",
            "phi",
            "replicates",
            "master_seed",
            "workers",
            "output_path",
            "recruitment",
        },
        "config",
    )
    _require("scenarios" in doc, "config is missing scenarios")

    scenarios = doc["scenarios"]
    if isinstance(scenarios, dict):
        cells = _expand_shorthand(scenarios)
    elif isinstance(scenarios, list):
        _require(len(scenarios) > 0, "scenarios list must be non-empty")
        cells = tuple(_parse_cell(item, f"scenarios[{i}]") for i, item in enumerate(scenarios))
    else:
        raise ConfigError("scenarios must be an object (shorthand) or a list of cells")

    workers = doc.get("workers", 1)
    _require(workers is not None, "workers must be a positive integer")  # null is not "auto"

    output_path = doc.get("output_path")
    if output_path is not None:
        _require(isinstance(output_path, str) and output_path, "output_path must be a non-empty string")

    recruitment = DEFAULT_RECRUITMENT
    if "recruitment" in doc:
        block = doc["recruitment"]
        _require(isinstance(block, dict), "recruitment must be an object")
        _check_keys(block, {"lambda0", "months", "rate_interpretation"}, "recruitment")
        months = block.get("months", [])
        _require(isinstance(months, list), "recruitment.months must be a list")
        recruitment = RecruitmentPlan(
            rates=tuple(
                _as_number_list(block.get("lambda0", [2.0, 5.0, 10.0]), "recruitment.lambda0")
            ),
            months=tuple(_as_number(v, "recruitment.months") for v in months),
            rate_interpretation=block.get("rate_interpretation", "total"),
        )

    return RunConfig(
        cells=cells,
        target_power=doc.get("target_power", 0.80),
        threshold=doc.get("phi", 0.975),
        replicates=doc.get("replicates", 10_000),
        master_seed=doc.get("master_seed", DEFAULT_MASTER_SEED),
        workers=None if workers == "auto" else workers,
        output_path=output_path,
        recruitment=recruitment,
    )
