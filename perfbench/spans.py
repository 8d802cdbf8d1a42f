"""Spans around the package's layer entry points, and the per-layer metrics.

``install`` replaces module attributes of ``pilot_borrow`` with wrappers that
record a span (name, start, end, parent, run id) per call; no file of the
package changes. Spans stay in memory until the run writes them out.

Work inside pool workers is traced too. Workers are forked, so they inherit
the wrappers; a task that is the outermost span in its worker returns its
spans along with its result, and the traced pool hands the result on and
keeps the spans, parented to the pool's span. Timestamps come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock, so
worker and parent spans share one time axis.
"""

import functools
import json
import multiprocessing
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.run_id = ""
        self.pid = os.getpid()
        self.in_worker = False
        self.spans = []  # [id, name, start, end, parent, run_id, attrs]
        self.stack = []
        self._count = 0

    def _adopt_process(self):
        """In a forked worker, drop the state inherited from the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.in_worker = True
            self.spans = []
            self.stack = []

    def open(self, name: str, **attrs) -> list:
        self._adopt_process()
        self._count += 1
        parent = self.stack[-1][0] if self.stack else None
        span = [f"{self.pid}-{self._count}", name, now(), None, parent, self.run_id, attrs]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list):
        span[3] = now()
        self.stack.pop()

    def add(self, key: str, value):
        """Add to a counter on the innermost open span, if there is one."""
        if not self.stack:
            return
        attrs = self.stack[-1][6]
        attrs[key] = attrs.get(key, 0) + value

    def absorb(self, spans: list, parent: list):
        for span in spans:
            if span[4] is None:
                span[4] = parent[0]
        self.spans.extend(spans)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, run_id, attrs in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "run": run_id}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


class Shipped:
    """A task result carried back from a pool worker with the worker's spans."""

    def __init__(self, value, spans):
        self.value = value
        self.spans = spans


def _traced(tracer, name, fn, attrs=None, ship=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer._adopt_process()
        outermost = tracer.in_worker and not tracer.stack
        span = tracer.open(name, **(attrs(*args, **kwargs) if attrs else {}))
        try:
            value = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if ship and outermost:
            spans, tracer.spans = tracer.spans, []
            return Shipped(value, spans)
        return value

    return wrapper


def _pool_class(tracer, name):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            self._span = tracer.open(name, workers=max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            for item in super().map(fn, *iterables, **kwargs):
                if isinstance(item, Shipped):
                    tracer.absorb(item.spans, self._span)
                    item = item.value
                yield item

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if tracer.stack and tracer.stack[-1] is self._span:
                tracer.close(self._span)

    return TracedPool


def _replace_everywhere(original, replacement):
    """Rebind every ``pilot_borrow`` module attribute that names ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "pilot_borrow" or module_name.startswith("pilot_borrow."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap each layer's entry points with spans recorded by the returned tracer.

    Call once per process: the wrappers stay installed.
    """
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("tracing pool workers needs the fork start method")
    import pilot_borrow.cli as cli
    import pilot_borrow.config as config
    import pilot_borrow.decision as decision
    import pilot_borrow.recruitment as recruitment
    import pilot_borrow.runner as runner
    import pilot_borrow.simulate as simulate

    def pairs(w_t, a_t, b_t, w_c, a_c, b_c):
        return {"pairs": a_t.shape[0] * a_t.shape[1] * a_c.shape[1]}

    wrapped = [
        (cli.main, "cli.main", None, False),
        (config.parse_config, "config.parse", None, False),
        (runner.run_grid, "runner.run_grid", None, False),
        (runner._cell_task, "runner.cell", None, True),
        (runner.emit_results, "runner.emit", None, False),
        (recruitment.expected_duration, "recruitment", None, False),
        (recruitment.recruitment_probability, "recruitment", None, False),
        (simulate.find_min_sample_size, "simulate.search", None, False),
        (simulate.estimate_power, "simulate.probe",
         lambda scenario, n_total, **_: {"replicates": scenario.replicates, "n": n_total}, False),
        (simulate._chunk_task, "simulate.chunk", None, True),
        (simulate._posterior_components, "map_prior.update", None, False),
        (simulate.mixture_superiority_batch, "decision.quad", pairs, False),
    ]
    tracer = Tracer()
    for fn, name, attrs, ship in wrapped:
        _replace_everywhere(fn, _traced(tracer, name, fn, attrs, ship))

    exceedance_unique = decision._exceedance_unique

    @functools.wraps(exceedance_unique)
    def counted_unique(rows):
        tracer.add("unique_rows", rows.shape[0])
        return exceedance_unique(rows)

    decision._exceedance_unique = counted_unique

    gl_nodes = decision._gl_nodes
    traced_nodes = _traced(tracer, "decision.nodes", gl_nodes)

    @functools.wraps(gl_nodes)
    def nodes(order):
        if order in decision._gl_cache:
            return gl_nodes(order)
        return traced_nodes(order)

    decision._gl_nodes = nodes
    simulate.ProcessPoolExecutor = _pool_class(tracer, "simulate.pool")
    runner.ProcessPoolExecutor = _pool_class(tracer, "runner.pool")
    return tracer


def _duration(span) -> float:
    return span[3] - span[2]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _self_times(spans, name) -> list[float]:
    """Duration of each span called ``name`` minus the part its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    return [
        _duration(span) - _covered(children.get(span[0], ()))
        for span in spans
        if span[1] == name
    ]


def _nearest_rank(values, q) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass from its spans."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def durations(name):
        return [_duration(s) for s in by_name.get(name, ())]

    def total_attr(name, key):
        return sum(s[6].get(key, 0) for s in by_name.get(name, ()))

    searches = durations("simulate.search")
    probes = durations("simulate.probe")
    cells = durations("runner.cell")
    pairs = total_attr("decision.quad", "pairs")
    unique_rows = total_attr("decision.quad", "unique_rows")
    capacity = sum(s[6]["workers"] * _duration(s) for s in by_name.get("runner.pool", ()))
    return {
        "simulate.searches": (len(searches), "count"),
        "simulate.probes": (len(probes), "count"),
        "simulate.replicates": (total_attr("simulate.probe", "replicates"), "count"),
        "simulate.search_s_p50": (statistics.median(searches) if searches else 0.0, "s"),
        "simulate.search_s_max": (max(searches, default=0.0), "s"),
        "simulate.probe_s_p50": (statistics.median(probes) if probes else 0.0, "s"),
        "simulate.probe_s_p90": (_nearest_rank(probes, 90), "s"),
        "simulate.stream_s": (sum(_self_times(spans, "simulate.chunk")), "s"),
        "simulate.pools_opened": (len(by_name.get("simulate.pool", ())), "count"),
        "simulate.pool_overhead_s": (sum(_self_times(spans, "simulate.pool")), "s"),
        "decision.quad_s": (sum(durations("decision.quad")), "s"),
        "decision.pairs": (pairs, "count"),
        "decision.unique_rows": (unique_rows, "count"),
        "decision.unique_ratio": (unique_rows / pairs if pairs else 0.0, "ratio"),
        "decision.node_builds": (len(by_name.get("decision.nodes", ())), "count"),
        "decision.nodes_s": (sum(durations("decision.nodes")), "s"),
        "map_prior.update_s": (sum(durations("map_prior.update")), "s"),
        "runner.cells": (len(cells), "count"),
        "runner.cell_s_p50": (statistics.median(cells) if cells else 0.0, "s"),
        "runner.cell_s_max": (max(cells, default=0.0), "s"),
        "runner.pool_efficiency": (sum(cells) / capacity if capacity else 0.0, "ratio"),
        "runner.emit_s": (sum(durations("runner.emit")), "s"),
        "recruitment.calls": (len(by_name.get("recruitment", ())), "count"),
        "recruitment.s": (sum(durations("recruitment")), "s"),
        "config.parse_s": (sum(durations("config.parse")), "s"),
        "cli.self_s": (sum(_self_times(spans, "cli.main")), "s"),
    }
