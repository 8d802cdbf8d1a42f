"""Command-line interface.

Subcommands mirror the analyses of the simulation study: ``power`` for one
cell, ``grid`` for a config-driven sweep, ``conflict`` for pilot/definitive
disagreement (one grid cell per multiplier, run through the grid runner),
``duration`` and ``recruit`` for the feasibility arithmetic, and
``replicate`` to print every intermediate of a single simulated trial.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 grid completed
with flagged (infeasible or unreachable) cells. Inputs are checked where
they are used, by the library; any ``ValueError`` becomes exit 1 with an
``error:`` line, and so does a usage error of the argument parser.

The environment variable ``PILOT_BORROW_SEED`` overrides the configured
master seed; an explicit ``--seed`` flag wins over both.
"""

import argparse
import os
import sys
from dataclasses import replace

from .config import ConfigError, RecruitmentPlan, RunConfig, parse_config
from .recruitment import (
    RecruitmentModel,
    expected_duration,
    months_for_probability,
    recruitment_probability,
    round_months,
)
from .runner import STATUS_OK, emit_results, print_summary, run_grid
from .simulate import (
    _SEED_MASK,
    DEFAULT_MASTER_SEED,
    DesignScenario,
    check_integer,
    estimate_power,
    trace_replicate,
)

SEED_ENV_VAR = "PILOT_BORROW_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_FLAGGED = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    check_integer(seed, SEED_ENV_VAR, 0, _SEED_MASK)
    return seed


def _resolve_seed(flag_seed: int | None, fallback: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = _env_seed()
    if env is not None:
        return env
    return fallback


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be a comma-separated list of numbers") from None
    if not values:
        raise ConfigError(f"{name} must list at least one value")
    return values


def _add_scenario_args(
    parser: argparse.ArgumentParser, pilot_fraction_default: float, *, multiplier: bool, runs: bool
):
    """The design-cell flags, with ``--multiplier`` and ``--replicates`` only where read.

    An omitted flag takes the library's default, read from DesignScenario
    when the parser is built.
    """
    parser.add_argument("--p-c", type=float, required=True, help="control success probability")
    parser.add_argument("--rr", type=float, required=True, help="definitive risk ratio")
    parser.add_argument(
        "--pilot-fraction",
        type=float,
        default=pilot_fraction_default,
        help="pilot size as a fraction of the definitive total",
    )
    if multiplier:
        parser.add_argument(
            "--multiplier",
            type=float,
            default=DesignScenario.pilot_rr_multiplier,
            help="pilot risk-ratio multiplier (1 = no conflict)",
        )
    parser.add_argument(
        "--phi", type=float, default=DesignScenario.threshold, help="posterior decision threshold"
    )
    parser.add_argument(
        "--w",
        type=float,
        default=DesignScenario.prior_weight,
        help="initial informative prior weight",
    )
    if runs:
        parser.add_argument("--replicates", type=int, default=DesignScenario.replicates)
    parser.add_argument("--seed", type=int, default=None, help="master seed (wins over env)")


def _scenario_from_args(args) -> DesignScenario:
    return DesignScenario(
        control_rate=args.p_c,
        risk_ratio=args.rr,
        pilot_fraction=args.pilot_fraction,
        # conflict sets it per cell
        pilot_rr_multiplier=getattr(args, "multiplier", DesignScenario.pilot_rr_multiplier),
        prior_weight=args.w,
        threshold=args.phi,
        replicates=getattr(args, "replicates", 1),  # replicate runs one, by index
        master_seed=_resolve_seed(args.seed, DEFAULT_MASTER_SEED),
    )


def _cmd_power(args) -> int:
    scenario = _scenario_from_args(args)
    estimate = estimate_power(scenario, args.n_total)
    print(
        f"n_total={estimate.n_total} power={estimate.power:.6f} "
        f"se={estimate.standard_error:.6f} replicates={estimate.replicates} "
        f"seed={scenario.master_seed}"
    )
    return EXIT_OK


def _cmd_grid(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    config = parse_config(text)
    overrides = {
        "master_seed": _resolve_seed(args.seed, config.master_seed),
        "replicates": args.replicates,
        "workers": args.workers,
        "output_path": args.out,
    }
    # RunConfig checks every override
    config = replace(config, **{key: val for key, val in overrides.items() if val is not None})
    return _run_and_report(config)


def _cmd_conflict(args) -> int:
    scenario = _scenario_from_args(args)
    multipliers = _float_list(args.multipliers, "--multipliers")
    config = RunConfig(
        cells=tuple(replace(scenario, pilot_rr_multiplier=m) for m in multipliers),
        target_power=args.target_power,
        threshold=scenario.threshold,
        replicates=scenario.replicates,
        master_seed=scenario.master_seed,
        workers=args.workers,
        output_path=args.out,
        recruitment=RecruitmentPlan(rates=(), months=()),
    )
    return _run_and_report(config)


def _run_and_report(config: RunConfig) -> int:
    """Run a grid, write its CSV or print its summary, and exit 3 if a cell is flagged."""
    for cell in config.infeasible_cells():
        print(
            f"warning: infeasible cell p_C={cell.control_rate:g} rr={cell.risk_ratio:g} "
            f"c={cell.pilot_rr_multiplier:g} (success probability above 1); flagged, not run",
            file=sys.stderr,
        )
    rows = run_grid(config)
    if config.output_path is not None:
        emit_results(rows, config.output_path, recruitment=config.recruitment)
        print(f"wrote {config.output_path}")
    else:
        print_summary(rows)
    if any(row.status != STATUS_OK for row in rows):
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_duration(args) -> int:
    for rate in _float_list(args.rates, "--rates"):
        months = expected_duration(args.n, rate)
        print(f"rate={rate:g}/month: {months:.6g} months (display {round_months(months)})")
    return EXIT_OK


def _cmd_recruit(args) -> int:
    model = RecruitmentModel(args.lambda0)
    if args.months is None and args.solve is None:
        raise ConfigError("recruit needs --months and/or --solve")
    if args.months is not None:
        for m in _float_list(args.months, "--months"):
            prob = recruitment_probability(model, args.n, m)
            print(f"P(N >= {args.n} within {m:g} months | lambda0={args.lambda0:g}) = {prob:.6f}")
    if args.solve is not None:
        months = months_for_probability(model, args.n, args.solve)
        print(
            f"months for P(N >= {args.n}) >= {args.solve:g} at lambda0={args.lambda0:g}: "
            f"{months:.2f}"
        )
    return EXIT_OK


def _format_mixture(weights, alphas, betas) -> str:
    return " + ".join(f"{w:.6f} * Beta({a:g}, {b:g})" for w, a, b in zip(weights, alphas, betas))


def _cmd_replicate(args) -> int:
    scenario = _scenario_from_args(args)
    trace = trace_replicate(scenario, args.n_total, args.index)
    (pc_n, pt_n, c_n, t_n), (pc_y, pt_y, c_y, t_y) = trace.sizes, trace.draws[0].tolist()
    w_c, a_c, b_c = (v[0] for v in trace.control)
    w_t, a_t, b_t = (v[0] for v in trace.treatment)
    # each prior is its posterior less the definitive counts
    prior_weights = (1.0 - scenario.prior_weight, scenario.prior_weight)
    prior_c = _format_mixture(prior_weights, a_c - c_y, b_c - (c_n - c_y))
    prior_t = _format_mixture(prior_weights, a_t - t_y, b_t - (t_n - t_y))
    print(f"replicate index={args.index} seed={scenario.master_seed} n_total={args.n_total}")
    print(f"pilot draws: control {pc_y}/{pc_n}, treatment {pt_y}/{pt_n}")
    print(f"prior control:   {prior_c}")
    print(f"prior treatment: {prior_t}")
    print(f"definitive draws: control {c_y}/{c_n}, treatment {t_y}/{t_n}")
    print(f"posterior control:   {_format_mixture(w_c, a_c, b_c)}")
    print(f"posterior treatment: {_format_mixture(w_t, a_t, b_t)}")
    print(f"updated informative weight: control {w_c[1]:.6f}, treatment {w_t[1]:.6f}")
    print(f"superiority probability: {trace.superiority[0]:.6f}")
    print(f"decision: {'superior' if trace.success[0] else 'not superior'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pilot-borrow",
        description=(
            "Sample size, duration, and recruitment feasibility for definitive "
            "trials that borrow pilot data through robust mixture priors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_power = sub.add_parser("power", help="estimate power for one design cell")
    _add_scenario_args(p_power, DesignScenario.pilot_fraction, multiplier=True, runs=True)
    p_power.add_argument("--n-total", type=int, required=True, help="definitive total size")
    p_power.set_defaults(func=_cmd_power)

    p_grid = sub.add_parser("grid", help="run a config-driven scenario grid")
    p_grid.add_argument("--config", required=True, help="path to JSON config")
    p_grid.add_argument("--seed", type=int, default=None)
    p_grid.add_argument("--replicates", type=int, default=None)
    p_grid.add_argument("--workers", type=int, default=None)
    p_grid.add_argument("--out", default=None, help="CSV output path (overrides config)")
    p_grid.set_defaults(func=_cmd_grid)

    p_conflict = sub.add_parser("conflict", help="sweep pilot risk-ratio multipliers")
    _add_scenario_args(p_conflict, 0.2, multiplier=False, runs=True)
    p_conflict.add_argument(
        "--multipliers",
        default="0.8,0.85,0.9,0.95,1.0",
        help="comma-separated pilot risk-ratio multipliers",
    )
    p_conflict.add_argument("--target-power", type=float, default=RunConfig.target_power)
    p_conflict.add_argument("--workers", type=int, default=RunConfig.workers)
    p_conflict.add_argument("--out", default=None, help="CSV output path")
    p_conflict.set_defaults(func=_cmd_conflict)

    p_duration = sub.add_parser("duration", help="expected duration at given rates")
    p_duration.add_argument("--n", type=int, required=True, help="sample size to recruit")
    p_duration.add_argument("--rates", default="2,5,10", help="recruits per month")
    p_duration.set_defaults(func=_cmd_duration)

    p_recruit = sub.add_parser("recruit", help="recruitment probability queries")
    p_recruit.add_argument("--lambda0", type=float, required=True, help="pilot recruits/month")
    p_recruit.add_argument("--n", type=int, required=True, help="recruits needed")
    p_recruit.add_argument("--months", default=None, help="windows to evaluate")
    p_recruit.add_argument(
        "--solve", type=float, default=None, help="find months reaching this probability"
    )
    p_recruit.set_defaults(func=_cmd_recruit)

    p_replicate = sub.add_parser("replicate", help="debug one simulated replicate")
    _add_scenario_args(p_replicate, DesignScenario.pilot_fraction, multiplier=True, runs=False)
    p_replicate.add_argument("--n-total", type=int, required=True)
    p_replicate.add_argument("--index", type=int, default=0, help="replicate index")
    p_replicate.set_defaults(func=_cmd_replicate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
