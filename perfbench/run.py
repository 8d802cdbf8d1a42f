"""Benchmark of the pilot-borrow design calculator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_paper --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload once, with a summary table

The package is imported from ``src/`` of the checkout. Each run starts a
worker process for the workload (see ``worker.py``) and, with ``--trace 0``,
several set-up-only processes to time set-up. Every child runs with one
fixed BLAS/OpenMP thread setting. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
NAMES = ("grid_paper", "search_pool", "search_large_n")
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

now = time.perf_counter


class BenchError(Exception):
    pass


def _git_commit(root: str) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "threads": THREAD_ENV,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(root),
    }


def _child(args: list, env: dict) -> tuple[dict, float]:
    """Run one worker process; its JSON result and the time it was started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    started = now()
    # A session of its own lets a timeout stop the worker and its pool children together.
    with subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchError(f"worker did not finish within {CHILD_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise BenchError(f"worker failed ({child.returncode}): {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def pass_wall(op_times: list) -> float:
    """Wall time of one pass: the sum over its operations of their median
    time across the passes of the run.

    Operations run back to back, so a pass takes the sum of their times; the
    median per operation keeps a burst of load from outside the benchmark,
    which hits one operation of one pass, out of the result.
    """
    return sum(statistics.median(times) for times in zip(*op_times))


def run_workload(name, seed, seconds, trace, tiny=False) -> dict:
    """One run of one workload; raises BenchError when it cannot run."""
    if not os.path.isfile(os.path.join("src", "pilot_borrow", "__init__.py")):
        raise BenchError("no src/pilot_borrow here: run from the root of a pilot-borrow checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    # Without bytecode files every set-up compiles the package the same way.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    base = ["--workload", name, "--seed", str(seed), "--out-dir", OUT_DIR] + (["--tiny"] if tiny else [])

    setup = []
    if not trace:
        # The first process warms the file cache and is not counted.
        for i in range(SETUP_SAMPLES + 1):
            mark, started = _child(base + ["--seconds", "0", "--setup-only"], env)
            if i:
                setup.append(mark["first_call"] - started)
    result, started = _child(base + ["--seconds", str(seconds), "--trace", str(trace)], env)

    if trace:
        metrics = result["layers"]
    else:
        setup.append(result["first_call"] - started)
        failed_ratio = result["failed"] / result["attempted"]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (pass_wall(result["op_times"]), "s"),
            "peak_rss_mb": ((result["rss_self_kb"] + result["rss_children_kb"]) / 1024.0, "MB"),
            "ok_ratio": (1.0 - failed_ratio, "ratio"),
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(os.getcwd(), result["versions"]),
        "walls": result["walls"],
        "op_times": result["op_times"],
        "traced_walls": result.get("traced_walls", []),
        "setup_samples": setup,
        "digests": result["digests"],
        "problems": result["problems"],
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def report_line(record: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def print_details(record: dict):
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"env {json.dumps(record['env'])}")
    print(f"passes {len(record['walls'])} digest {record['digests'][0]}")
    for problem in record["problems"][:10]:
        print(f"problem: {problem}")
    if record["attempted"]:
        ratio = record["failed"] / record["attempted"]
        print(f"failed_ratio {ratio:.4f} ({record['failed']} of {record['attempted']})")
    for key, metric in record["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few replicates; for the self-test")
    parser.add_argument("--record", help="append the full result as one JSON line to this file")
    args = parser.parse_args(argv)

    names = NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, args.tiny) for n in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_details(record)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(records) > 1:
        print(f"{'workload':<16} {'setup_s':>8} {'wall_s':>8} {'peak_rss_mb':>12} {'failed_ratio':>13}")
        for r in records:
            m = r["metrics"]
            values = [m[k]["value"] if k in m else float("nan") for k in ("setup_s", "wall_s", "peak_rss_mb")]
            print(f"{r['workload']:<16} {values[0]:>8.3f} {values[1]:>8.3f} {values[2]:>12.1f} "
                  f"{r['failed'] / r['attempted']:>13.4f}")
        combined = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{key}": metric
                for r in records
                for key, metric in r["metrics"].items()
            },
        }
        print(json.dumps(combined))
    else:
        print(report_line(records[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
