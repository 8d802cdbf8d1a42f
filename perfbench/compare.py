"""Compare two result sets of the benchmark: a parent commit and a change.

Each set is a file of records written by ``run.py --record FILE`` with
``--trace 0``. Runs pair up by workload and seed in the order they were
recorded, so run the two sides alternately, one seed at a time, changing
which side goes first from pair to pair. Prints one row per workload and
end-to-end metric of ``BENCHMARK.json``.

Verdicts follow the benchmark's rule for claiming a gain:

- improved: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither side), and the medians differ by more than the
  distance between the parent's quartiles;
- regressed: the change's median is worse than the parent's by more than the
  metric's bound, with the parent's spread (quartile distance over median)
  within the bound;
- unchanged: neither, with the parent's spread within the bound;
- unresolved: neither, and the parent's spread is wider than the bound,
  unless every run of the change reads better than every run of the parent.

Usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
"""

import argparse
import json
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """{(workload, seed): [metrics, ...]} in file order, untraced runs only."""
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault((record["workload"], record["seed"]), []).append(record["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(p_med) if p_med else float("inf")
    gain = sign * (p_med - c_med)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved", wins, spread
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, spread
    if p_med and -gain / abs(p_med) > bound:
        return "regressed", wins, spread
    return "unchanged", wins, spread


def compare(parent_runs, change_runs, benchmark) -> list[dict]:
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent, change, pairs = [], [], []
            for key in sorted(set(parent_runs) | set(change_runs)):
                if key[0] != workload:
                    continue
                p = [m[name]["value"] for m in parent_runs.get(key, ())]
                c = [m[name]["value"] for m in change_runs.get(key, ())]
                parent += p
                change += c
                pairs += list(zip(p, c))
            if not parent or not change:
                continue
            result, wins, spread = verdict(parent, change, pairs, metric["better"], metric["bound"])
            p_q1, p_q3 = quartiles(parent)
            c_q1, c_q3 = quartiles(change)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": (statistics.median(parent), p_q1, p_q3, len(parent)),
                    "change": (statistics.median(change), c_q1, c_q3, len(change)),
                    "wins": (wins, len(pairs)),
                    "spread": spread,
                    "bound": metric["bound"],
                    "verdict": result,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows = compare(load(args.parent), load(args.change), benchmark)
    print(
        f"{'workload':<15} {'metric':<12} {'parent median [q1, q3] n':<34} "
        f"{'change median [q1, q3] n':<34} {'wins':>7} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            med, q1, q3, n = row[side]
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {n}")
        wins, pairs = row["wins"]
        print(
            f"{row['workload']:<15} {row['metric']:<12} {cells[0]:<34} {cells[1]:<34} "
            f"{wins:>3}/{pairs:<3} {row['spread']:>7.3f} {row['bound']:>6}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
