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

from .simulate import DEFAULT_MASTER_SEED


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


@dataclass(frozen=True)
class GridCell:
    """One expanded scenario cell; infeasible cells are kept and flagged."""

    control_rate: float
    risk_ratio: float
    pilot_fraction: float = 0.0
    pilot_rr_multiplier: float = 1.0
    prior_weight: float = 0.5

    @property
    def feasible(self) -> bool:
        return (
            self.risk_ratio * self.control_rate <= 1.0
            and self.pilot_rr_multiplier * self.risk_ratio * self.control_rate <= 1.0
        )


@dataclass(frozen=True)
class RecruitmentPlan:
    """Recruitment rates and probability windows attached to grid output."""

    rates: tuple[float, ...] = (2.0, 5.0, 10.0)
    months: tuple[float, ...] = ()
    rate_interpretation: str = "total"

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
        # here rather than in parse_config, so dataclasses.replace checks it too
        _require(
            isinstance(self.master_seed, int)
            and not isinstance(self.master_seed, bool)
            and 0 <= self.master_seed < (1 << 64),
            "master_seed must be an unsigned 64-bit integer",
        )

    def resolved_workers(self) -> int:
        if self.workers is None:
            return max(os.cpu_count() or 1, 1)
        return self.workers

    def infeasible_cells(self) -> tuple[GridCell, ...]:
        return tuple(cell for cell in self.cells if not cell.feasible)

    def to_json(self) -> str:
        """Canonical document: explicit cell list, every default materialized."""
        doc = {
            "scenarios": [
                {
                    "p_C": cell.control_rate,
                    "rr": cell.risk_ratio,
                    "pilot_fraction": cell.pilot_fraction,
                    "rr_pilot_multiplier": cell.pilot_rr_multiplier,
                    "w": cell.prior_weight,
                }
                for cell in self.cells
            ],
            "target_power": self.target_power,
            "phi": self.threshold,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "workers": "auto" if self.workers is None else self.workers,
            "recruitment": {
                "lambda0": list(self.recruitment.rates),
                "months": list(self.recruitment.months),
                "rate_interpretation": self.recruitment.rate_interpretation,
            },
        }
        if self.output_path is not None:
            doc["output_path"] = self.output_path
        return json.dumps(doc, indent=2)


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _as_number(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} must be a number")
    return float(value)


def _as_number_list(value, name: str) -> list[float]:
    _require(isinstance(value, list) and value, f"{name} must be a non-empty list of numbers")
    return [_as_number(v, name) for v in value]


def _probability(value, name: str, open_left=False, open_right=False) -> float:
    x = _as_number(value, name)
    lo_ok = x > 0.0 if open_left else x >= 0.0
    hi_ok = x < 1.0 if open_right else x <= 1.0
    _require(lo_ok and hi_ok, f"{name} must lie in the unit interval, got {x}")
    return x


def _positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool) and value > 0, f"{name} must be a positive integer")
    return value


def _parse_cell(item: dict, where: str) -> GridCell:
    _require(isinstance(item, dict), f"{where} must be an object")
    _check_keys(item, {"p_C", "rr", "pilot_fraction", "rr_pilot_multiplier", "w"}, where)
    _require("p_C" in item, f"{where} is missing p_C")
    _require("rr" in item, f"{where} is missing rr")
    control = _probability(item["p_C"], f"{where}.p_C", open_left=True, open_right=True)
    rr = _as_number(item["rr"], f"{where}.rr")
    _require(rr > 0.0, f"{where}.rr must be positive")
    fraction = _probability(item.get("pilot_fraction", 0.0), f"{where}.pilot_fraction", open_right=True)
    multiplier = _as_number(item.get("rr_pilot_multiplier", 1.0), f"{where}.rr_pilot_multiplier")
    _require(multiplier > 0.0, f"{where}.rr_pilot_multiplier must be positive")
    weight = _probability(item.get("w", 0.5), f"{where}.w")
    return GridCell(
        control_rate=control,
        risk_ratio=rr,
        pilot_fraction=fraction,
        pilot_rr_multiplier=multiplier,
        prior_weight=weight,
    )


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
    field. Arithmetically infeasible scenario cells are accepted and
    flagged, not rejected.
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

    target_power = _probability(
        doc.get("target_power", 0.80), "target_power", open_left=True, open_right=True
    )
    threshold = _probability(doc.get("phi", 0.975), "phi", open_left=True, open_right=True)
    replicates = _positive_int(doc.get("replicates", 10_000), "replicates")

    master_seed = doc.get("master_seed", DEFAULT_MASTER_SEED)
    workers_raw = doc.get("workers", 1)
    if workers_raw == "auto":
        workers: int | None = None
    else:
        workers = _positive_int(workers_raw, "workers")

    output_path = doc.get("output_path")
    if output_path is not None:
        _require(isinstance(output_path, str) and output_path, "output_path must be a non-empty string")

    recruitment = DEFAULT_RECRUITMENT
    if "recruitment" in doc:
        block = doc["recruitment"]
        _require(isinstance(block, dict), "recruitment must be an object")
        _check_keys(block, {"lambda0", "months", "rate_interpretation"}, "recruitment")
        rates = tuple(
            _as_number_list(block.get("lambda0", [2.0, 5.0, 10.0]), "recruitment.lambda0")
        )
        for rate in rates:
            _require(0.0 < rate < math.inf, "recruitment.lambda0 entries must be positive and finite")
        months_raw = block.get("months", [])
        _require(isinstance(months_raw, list), "recruitment.months must be a list")
        months = tuple(_as_number(v, "recruitment.months") for v in months_raw)
        for m in months:
            _require(0.0 < m < math.inf, "recruitment.months entries must be positive and finite")
        interpretation = block.get("rate_interpretation", "total")
        _require(
            interpretation in ("total", "per_arm"),
            'recruitment.rate_interpretation must be "total" or "per_arm"',
        )
        recruitment = RecruitmentPlan(
            rates=rates, months=months, rate_interpretation=interpretation
        )

    return RunConfig(
        cells=cells,
        target_power=target_power,
        threshold=threshold,
        replicates=replicates,
        master_seed=master_seed,
        workers=workers,
        output_path=output_path,
        recruitment=recruitment,
    )
