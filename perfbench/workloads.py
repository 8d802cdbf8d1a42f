"""The benchmark's workloads: inputs from the workload seed, one pass, output checks.

Every workload derives its Monte Carlo master seed from (workload name,
workload seed), so the same seed always gives the same inputs and every pass
of a run repeats the same work with the same output. The package is called
only through its public entry points: ``cli.main`` for the grid and
``simulate.find_min_sample_size`` for the searches. Calls go through module
attributes so that the traced run can wrap them.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time

import pilot_borrow.cli as cli
import pilot_borrow.config as config_mod
import pilot_borrow.runner as runner
import pilot_borrow.simulate as simulate

TARGET_POWER = 0.80
WORKERS = 2

# Replicates per power probe in a normal run and in the self-test's tiny run.
# The tiny search_pool count stays above one 4096-replicate chunk so that its
# probes still open a process pool.
GRID_REPLICATES = 200
SEARCH_REPLICATES = 10_000
TINY_REPLICATES = {"grid_paper": 40, "search_pool": 4_200, "search_large_n": 300}

PAPER_GRID = {
    "p_C": [0.06, 0.25, 0.6],
    "rr": [1.3, 1.7, 1.9],
    "pilot_fraction": [0, 0.1, 0.2, 0.3, 0.4],
}
PAPER_RECRUITMENT = {"lambda0": [2, 5, 10], "months": [46]}

# (p_C, rr, pilot_fraction, expected to reach the target power)
POOL_CELLS = ((0.25, 1.7, 0.2, True), (0.6, 1.3, 0.4, True), (0.06, 1.9, 0.2, True))
LARGE_N_CELLS = ((0.25, 1.05, 0.2, False), (0.25, 1.3, 0.0, True))


def master_seed(workload: str, seed: int) -> int:
    """Unsigned 64-bit master seed of a workload's searches."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def pilot_total(fraction: float, n_total: int) -> int:
    """round(fraction * n_total), halves away from zero."""
    return int(math.floor(fraction * n_total + 0.5))


class GridPaper:
    """The 45-cell paper grid through ``pilot-borrow grid`` with two cell workers."""

    name = "grid_paper"

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        replicates = TINY_REPLICATES[self.name] if tiny else GRID_REPLICATES
        text = json.dumps(
            {
                "scenarios": PAPER_GRID,
                "replicates": replicates,
                "master_seed": master_seed(self.name, seed),
                "workers": WORKERS,
                "recruitment": PAPER_RECRUITMENT,
            }
        )
        self.config = config_mod.parse_config(text)
        self.header = runner.csv_header(self.config.recruitment)
        self.config_path = os.path.join(out_dir, f"{self.name}-{seed}.json")
        self.csv_path = os.path.join(out_dir, f"{self.name}-{seed}.csv")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(text)

    def run_pass(self):
        """The grid's output and, as its one operation time, the wall time of the call."""
        argv = [
            "grid",
            "--config",
            self.config_path,
            "--workers",
            str(WORKERS),
            "--out",
            self.csv_path,
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        with open(self.csv_path, "rb") as handle:
            data = handle.read()
        out = {"code": code, "csv": data, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        return out, [wall]

    def check(self, out) -> tuple[int, list[str]]:
        """Operations attempted (one per cell) and the problems found."""
        cells = self.config.cells
        rows = list(csv.reader(io.StringIO(out["csv"].decode("utf-8"))))
        problems = []
        if out["code"] != cli.EXIT_FLAGGED:
            problems.append(f"exit code {out['code']}, expected {cli.EXIT_FLAGGED}")
        if not rows or rows[0] != self.header:
            problems.append("CSV header differs from runner.csv_header")
        if len(rows) != len(cells) + 1:
            problems.append(f"{len(rows) - 1} CSV rows for {len(cells)} cells")
        warnings = out["stderr"].count("infeasible cell")
        if warnings != 10:
            problems.append(f"{warnings} infeasible-cell warnings, expected 10")
        if problems:
            return len(cells), problems
        for cell, values in zip(cells, rows[1:]):
            problem = self._check_row(cell, dict(zip(self.header, values)))
            if problem:
                problems.append(problem)
        return len(cells), problems

    def _check_row(self, cell, row) -> str | None:
        where = f"cell ({cell.control_rate:g}, {cell.risk_ratio:g}, {cell.pilot_fraction:g})"
        key = (float(row["p_C"]), float(row["rr"]), float(row["pilot_fraction"]))
        if key != (cell.control_rate, cell.risk_ratio, cell.pilot_fraction):
            return f"{where}: row out of config order, got {key}"
        infeasible = cell.control_rate == 0.6 and cell.risk_ratio in (1.7, 1.9)
        if infeasible:
            return None if row["status"] == "infeasible" else f"{where}: status {row['status']}"
        if row["status"] != "ok":
            return f"{where}: status {row['status']}, expected ok"
        n_total = int(row["n_total"])
        if n_total % 2:
            return f"{where}: odd n_total {n_total}"
        if int(row["pilot_total"]) != pilot_total(cell.pilot_fraction, n_total):
            return f"{where}: pilot_total {row['pilot_total']} for n_total {n_total}"
        return None

    @staticmethod
    def digest(out) -> str:
        return hashlib.sha256(out["csv"] + out["stdout"].encode("utf-8")).hexdigest()[:16]


class Searches:
    """Sample-size searches called directly, one per cell, in cell order."""

    def __init__(self, name: str, cells, workers: int, seed: int, tiny: bool):
        self.name = name
        self.workers = workers
        self.cells = cells
        self.scenarios = [
            simulate.DesignScenario(
                control_rate=p_c,
                risk_ratio=rr,
                pilot_fraction=f,
                replicates=TINY_REPLICATES[name] if tiny else SEARCH_REPLICATES,
                master_seed=master_seed(name, seed),
            )
            for p_c, rr, f, _ in cells
        ]

    def run_pass(self):
        """The search results and the wall time of each search."""
        results, times = [], []
        for scenario in self.scenarios:
            start = time.perf_counter()
            results.append(
                simulate.find_min_sample_size(
                    scenario,
                    target_power=TARGET_POWER,
                    n_lo=runner.SEARCH_N_LO,
                    n_hi=runner.SEARCH_N_HI,
                    workers=self.workers,
                )
            )
            times.append(time.perf_counter() - start)
        return results, times

    def check(self, out) -> tuple[int, list[str]]:
        problems = []
        for cell, result in zip(self.cells, out):
            problem = self._check_result(cell, result)
            if problem:
                problems.append(problem)
        return len(self.cells), problems

    @staticmethod
    def _check_result(cell, result) -> str | None:
        p_c, rr, f, reachable = cell
        where = f"search ({p_c:g}, {rr:g}, {f:g})"
        probes = dict(result.probes)
        n = result.n_total
        if result.achieved != reachable:
            return f"{where}: achieved={result.achieved}, expected {reachable}"
        if n % 2:
            return f"{where}: odd n_total {n}"
        if result.pilot_total != pilot_total(f, n):
            return f"{where}: pilot_total {result.pilot_total} for n_total {n}"
        if not reachable:
            if n != runner.SEARCH_N_HI or probes.get(n, 1.0) >= TARGET_POWER:
                return f"{where}: unreachable result at n={n} with probe {probes.get(n)}"
            return None
        if probes.get(n, 0.0) < TARGET_POWER:
            return f"{where}: probe at n={n} is {probes.get(n)}, below the target"
        lower = [k for k in probes if k < n]
        if lower and probes[max(lower)] >= TARGET_POWER:
            return f"{where}: lower probe n={max(lower)} already reaches the target"
        verification = result.power_at_n
        if abs(verification.power - TARGET_POWER) > 4.0 * verification.standard_error:
            return (
                f"{where}: verification power {verification.power} is more than 4 SE "
                f"({verification.standard_error:.4f}) from the target"
            )
        return None

    @staticmethod
    def digest(out) -> str:
        summary = [
            [
                r.n_total,
                r.pilot_total,
                r.achieved,
                repr(r.power_at_n.power),
                repr(r.power_at_n.standard_error),
                [[k, repr(p)] for k, p in r.probes],
            ]
            for r in out
        ]
        return hashlib.sha256(json.dumps(summary).encode()).hexdigest()[:16]


def make(name: str, seed: int, tiny: bool, out_dir: str):
    """The workload object for one run; builds every input from ``seed``."""
    if name == "grid_paper":
        return GridPaper(seed, tiny, out_dir)
    if name == "search_pool":
        return Searches(name, POOL_CELLS, WORKERS, seed, tiny)
    if name == "search_large_n":
        return Searches(name, LARGE_N_CELLS, 1, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")

