"""One benchmark process: set up a workload, run timed passes, check every output.

Started by ``run.py`` with the thread settings fixed in its environment. It
prints one JSON object on its last stdout line. With ``--setup-only`` it stops
at the point where the workload's first call would start, so that ``run.py``
can time set-up on its own.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

now = time.perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import pilot_borrow

    if not os.path.abspath(pilot_borrow.__file__).startswith(src + os.sep):
        raise RuntimeError(f"pilot_borrow imported from {pilot_borrow.__file__}, not {src}")
    import workloads

    workload = workloads.make(args.workload, args.seed, args.tiny, args.out_dir)
    first_call = now()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0

    import numpy
    import scipy

    result = {
        "first_call": first_call,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "attempted": 0,
        "failed": 0,
        "problems": [],
    }

    digests = []

    def timed_pass():
        start = now()
        out, op_times = workload.run_pass()
        wall = now() - start
        attempted, problems = workload.check(out)
        digests.append(workload.digest(out))
        if digests[-1] != digests[0]:
            problems.append(f"pass {len(digests) - 1} output differs from pass 0")
        result["attempted"] += attempted
        result["failed"] += len(problems)
        result["problems"] += problems
        return wall, op_times

    # Untraced passes fill the run, or its first half when a traced half follows.
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, op_times = [], []
    while True:
        wall, times = timed_pass()
        walls.append(wall)
        op_times.append(times)
        if now() - first_call + wall > budget:
            break

    if args.trace:
        import spans

        tracer = spans.install()
        per_pass, traced_walls = [], []
        while True:
            tracer.run_id = f"{args.workload}-{args.seed}-pass{len(digests)}"
            mark = len(tracer.spans)
            wall, _ = timed_pass()
            traced_walls.append(wall)
            per_pass.append(spans.layer_metrics(tracer.spans[mark:]))
            if len(traced_walls) >= len(walls) or now() - first_call + wall > args.seconds:
                break
        layers = {
            name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        # The first untraced pass ran cold; every traced pass runs warm.
        untraced = statistics.median(walls[1:] or walls)
        layers["trace.overhead_s"] = (statistics.median(traced_walls) - untraced, "s")
        result["layers"] = layers
        result["traced_walls"] = traced_walls
        tracer.write(os.path.join(args.out_dir, f"{args.workload}-{args.seed}-spans.jsonl"))

    result["walls"] = walls
    result["op_times"] = op_times
    result["digests"] = digests
    result["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
