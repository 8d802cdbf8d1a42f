"""Grid execution and result emission.

Feasible cells get a minimal-sample-size search plus duration and
recruitment columns; infeasible cells are carried through with a status
flag. Rows always come out in the deterministic cell order of the config,
whatever the worker count, so identical (config, seed) pairs produce
byte-identical CSV files.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    if not cell.feasible:
        return ResultRow(
            control_rate=cell.control_rate,
            risk_ratio=cell.risk_ratio,
            pilot_rr_multiplier=cell.pilot_rr_multiplier,
            pilot_fraction=cell.pilot_fraction,
            replicates=config.replicates,
            status=STATUS_INFEASIBLE,
            seed=config.master_seed,
        )

    scenario = DesignScenario(
        control_rate=cell.control_rate,
        risk_ratio=cell.risk_ratio,
        pilot_fraction=cell.pilot_fraction,
        pilot_rr_multiplier=cell.pilot_rr_multiplier,
        prior_weight=cell.prior_weight,
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
    durations = tuple(expected_duration(target_n, rate) for rate in plan.rates)
    recruit_probs = tuple(
        recruitment_probability(RecruitmentModel(rate), target_n, m)
        for rate in plan.rates
        for m in plan.months
    )
    return ResultRow(
        control_rate=cell.control_rate,
        risk_ratio=cell.risk_ratio,
        pilot_rr_multiplier=cell.pilot_rr_multiplier,
        pilot_fraction=cell.pilot_fraction,
        n_total=result.n_total,
        pilot_total=result.pilot_total,
        power=result.power_at_n.power,
        power_se=result.power_at_n.standard_error,
        replicates=config.replicates,
        durations=durations,
        recruit_probs=recruit_probs,
        status=STATUS_OK if result.achieved else STATUS_UNREACHABLE,
        seed=config.master_seed,
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
    if isinstance(value, int):
        return str(value)
    return format(value, ".10g")


def csv_header(recruitment: RecruitmentPlan) -> list[str]:
    columns = [
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
    columns += [f"duration_rate{rate:g}" for rate in recruitment.rates]
    columns += [
        f"recruit_prob_rate{rate:g}_m{m:g}"
        for rate in recruitment.rates
        for m in recruitment.months
    ]
    columns += ["status", "seed"]
    return columns


def _row_values(row: ResultRow, recruitment: RecruitmentPlan) -> list[str]:
    values = [
        _format_number(row.control_rate),
        _format_number(row.risk_ratio),
        _format_number(row.pilot_rr_multiplier),
        _format_number(row.pilot_fraction),
        _format_number(row.n_total),
        _format_number(row.pilot_total),
        _format_number(row.power),
        _format_number(row.power_se),
        _format_number(row.replicates),
    ]
    n_duration = len(recruitment.rates)
    n_recruit = len(recruitment.rates) * len(recruitment.months)
    durations = row.durations if row.durations else (None,) * n_duration
    recruit_probs = row.recruit_probs if row.recruit_probs else (None,) * n_recruit
    values += [_format_number(v) for v in durations]
    values += [_format_number(v) for v in recruit_probs]
    values += [row.status, _format_number(row.seed)]
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
