"""Quick self-test of the benchmark, at a few replicates per probe.

For each workload: one untraced and two traced tiny runs. Checks that every
metric named in BENCHMARK.json is emitted with its unit, that the outputs
pass their checks and repeat across runs, and that the count metrics named
below repeat exactly between the two traced runs. Also checks that the
benchmark fails, printing no result, where there is no package to measure.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

import run

REPEATED_COUNTS = ("simulate.probes", "decision.pairs", "decision.unique_rows", "decision.node_builds")
SEED = 7


def check_workload(name: str, benchmark: dict) -> list[str]:
    problems = []
    plain = run.run_workload(name, SEED, 1, 0, tiny=True)
    traced = [run.run_workload(name, SEED, 1, 1, tiny=True) for _ in range(2)]
    expected = [(plain, benchmark["end_to_end"])] + [(t, benchmark["per_layer"]) for t in traced]
    for record, metrics in expected:
        for metric in metrics:
            got = record["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                problems.append(f"{name}: {metric['name']} missing or not in {metric['unit']}: {got}")
    for record in [plain] + traced:
        if not record["correct"]:
            problems.append(f"{name}: failed checks: {record['problems'][:3]}")
    first = {record["digests"][0] for record in [plain] + traced}
    if len(first) != 1:
        problems.append(f"{name}: pass 0 output differs between runs: {sorted(first)}")
    for key in REPEATED_COUNTS:
        values = [t["metrics"][key]["value"] for t in traced]
        if values[0] != values[1]:
            problems.append(f"{name}: {key} differs between traced runs: {values}")
    return problems


def check_refuses_without_package() -> list[str]:
    empty = os.path.join(run.OUT_DIR, "empty")
    os.makedirs(empty, exist_ok=True)
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "grid_paper", "--seconds", "1"],
        cwd=empty,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if done.returncode == 0 or done.stdout.strip():
        return [f"run without a package exited {done.returncode} with output {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    problems = check_refuses_without_package()
    for workload in benchmark["workloads"]:
        found = check_workload(workload["name"], benchmark)
        print(f"{workload['name']}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(f"problem: {problem}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
