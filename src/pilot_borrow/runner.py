"""Grid execution and result emission.

Feasible cells get a minimal-sample-size search plus duration and
recruitment columns; infeasible cells are carried through with a status
flag. Rows always come out in the deterministic cell order of the config,
whatever the worker count, so identical (config, seed) pairs produce
byte-identical CSV files.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import product

from .config import RecruitmentPlan, RunConfig
from .recruitment import RecruitmentModel, expected_duration, recruitment_probability
from .simulate import SEARCH_N_HI, SEARCH_N_LO, DesignScenario, GridCell, find_min_sample_size

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNREACHABLE = "unreachable"


@dataclass(frozen=True, kw_only=True)
class ResultRow:
    """One grid cell's results; the search fields stay empty when infeasible."""

    control_rate: float
    risk_ratio: float
    pilot_rr_multiplier: float
    pilot_fraction: float
    n_total: int | None = None
    pilot_total: int | None = None
    power: float | None = None
    power_se: float | None = None
    replicates: int
    durations: tuple[float, ...] = ()
    recruit_probs: tuple[float, ...] = ()
    status: str
    seed: int


def _cell_row(cell: GridCell, config: RunConfig, workers: int) -> ResultRow:
    # the fields that an infeasible row and a searched row share
    shared = dict(
        control_rate=cell.control_rate,
        risk_ratio=cell.risk_ratio,
        pilot_rr_multiplier=cell.pilot_rr_multiplier,
        pilot_fraction=cell.pilot_fraction,
        replicates=config.replicates,
        seed=config.master_seed,
    )
    if not cell.feasible:
        return ResultRow(**shared, status=STATUS_INFEASIBLE)

    scenario = DesignScenario(
        **{field.name: getattr(cell, field.name) for field in fields(GridCell)},
        threshold=config.threshold,
        replicates=config.replicates,
        master_seed=config.master_seed,
    )
    result = find_min_sample_size(
        scenario,
        target_power=config.target_power,
        n_lo=SEARCH_N_LO,
        n_hi=SEARCH_N_HI,
        workers=workers,
    )
    plan = config.recruitment
    target_n = plan.target_n(result.n_total)
    return ResultRow(
        **shared,
        n_total=result.n_total,
        pilot_total=result.pilot_total,
        power=result.power_at_n.power,
        power_se=result.power_at_n.standard_error,
        durations=tuple(expected_duration(target_n, rate) for rate in plan.rates),
        recruit_probs=tuple(
            recruitment_probability(RecruitmentModel(rate), target_n, m)
            for rate in plan.rates
            for m in plan.months
        ),
        status=STATUS_OK if result.achieved else STATUS_UNREACHABLE,
    )


def _cell_task(args) -> ResultRow:
    return _cell_row(*args)


def run_grid(config: RunConfig) -> list[ResultRow]:
    """Execute every expanded cell; one row per cell, in config order.

    With several workers the cells run in parallel processes, no more than
    there are cells; each search then estimates power single-threaded, which
    keeps per-replicate streams (and therefore every number) independent of
    the schedule.
    """
    if config.workers > 1 and len(config.cells) > 1:
        tasks = [(cell, config, 1) for cell in config.cells]
        with ProcessPoolExecutor(max_workers=min(config.workers, len(tasks))) as pool:
            return list(pool.map(_cell_task, tasks))
    return [_cell_row(cell, config, config.workers) for cell in config.cells]


def _format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".10g")


def _columns(recruitment: RecruitmentPlan) -> dict[str, tuple[str, int | None]]:
    """Each CSV column, in order, with the ResultRow field it reads and, for a
    tuple field, the index into it (a row without the tuple leaves it empty)."""
    rates, months = recruitment.rates, recruitment.months
    return {
        "p_C": ("control_rate", None),
        "rr": ("risk_ratio", None),
        "rr_pilot_multiplier": ("pilot_rr_multiplier", None),
        **{
            name: (name, None)
            for name in (
                "pilot_fraction", "n_total", "pilot_total", "power", "power_se", "replicates"
            )
        },
        **{f"duration_rate{rate:g}": ("durations", i) for i, rate in enumerate(rates)},
        **{
            f"recruit_prob_rate{rate:g}_m{m:g}": ("recruit_probs", i)
            for i, (rate, m) in enumerate(product(rates, months))
        },
        "status": ("status", None),
        "seed": ("seed", None),
    }


def csv_header(recruitment: RecruitmentPlan) -> list[str]:
    return list(_columns(recruitment))


def _row_values(row: ResultRow, recruitment: RecruitmentPlan) -> list[str]:
    values = []
    for field, index in _columns(recruitment).values():
        value = getattr(row, field)
        if index is not None:
            value = value[index] if value else None
        values.append(_format_number(value))
    return values


def emit_results(
    rows: list[ResultRow],
    path: str,
    recruitment: RecruitmentPlan = RecruitmentPlan(),
) -> None:
    """Write rows as CSV (LF endings) and print a summary table.

    An empty row list still writes the header line. I/O problems surface as
    OSError tagged with the path.
    """
    header = csv_header(recruitment)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(_row_values(row, recruitment))
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    print_summary(rows)


def print_summary(rows: list[ResultRow]) -> None:
    """Human-readable table of the grid results on stdout."""
    print(
        f"{'p_C':>6} {'rr':>5} {'c':>5} {'f':>5} {'n_total':>8} {'pilot':>6} "
        f"{'power':>7} {'se':>7} {'status':>12}"
    )
    for row in rows:
        n_total = "-" if row.n_total is None else str(row.n_total)
        pilot = "-" if row.pilot_total is None else str(row.pilot_total)
        power = "-" if row.power is None else f"{row.power:.4f}"
        se = "-" if row.power_se is None else f"{row.power_se:.4f}"
        print(
            f"{row.control_rate:>6g} {row.risk_ratio:>5g} {row.pilot_rr_multiplier:>5g} "
            f"{row.pilot_fraction:>5g} {n_total:>8} {pilot:>6} {power:>7} {se:>7} "
            f"{row.status:>12}"
        )
