"""Per-layer tracing of one `clusterq run`, recorded from outside the program.

`traced()` replaces the public names the pipeline calls through with wrappers
for the duration of one call and restores them afterwards; nothing inside
clusterq changes. Layer calls (load, graph, scheduler, simulator, energy
accounting, expectation check) become spans of (name, start, end, parent).
Hot leaf calls (region algebra, kernel evaluation, frequency selection) run
hundreds of thousands of times per run, so they are aggregated per parent
span into a call count and total time instead of one span each; only the
outermost leaf call is timed, so a region op inside another counts once.
Everything stays in memory until the harness writes it out at the end.

A span's self time is its duration minus its child spans and the leaf time
recorded under it. The wrappers' own cost lands in the parents' self time,
which is why the harness reports the traced run's overhead.
"""

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, seconds]
        self.results = {}  # span name -> value returned by its last call
        self._stack = [-1]
        self._in_leaf = False

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, self._stack[-1]]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            self.results[name] = result
            return result
        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                acc = self.leaves[(name, self._stack[-1])]
                acc[0] += 1
                acc[1] += elapsed
        return wrapper

    def layer_times(self) -> dict:
        """Per-layer seconds and leaf call counts for the recorded run."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        leaf_calls = defaultdict(int)
        leaf_secs = defaultdict(float)
        for (name, parent), (calls, secs) in self.leaves.items():
            if parent >= 0:
                child[parent] += secs
            leaf_calls[name] += calls
            leaf_secs[name] += secs
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return {
            "scenario.load_s": total["scenario.load"],
            "graph.self_s": own["graph"],
            "scheduler.self_s": own["scheduler"],
            "region.ops": leaf_calls["region"],
            "region.s": leaf_secs["region"],
            "simulator.self_s": own["simulator"],
            "kernel.eval_calls": leaf_calls["kernel.eval"],
            "kernel.eval_s": leaf_secs["kernel.eval"],
            "energy.select_calls": leaf_calls["energy.select"],
            "energy.select_s": leaf_secs["energy.select"],
            "energy.account_s": total["energy.account"],
            "cli.check_s": total["cli.check"],
            "cli.serialize_s": own["cli.main"],
        }

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "leaves": [[name, parent, calls, secs]
                       for (name, parent), (calls, secs) in self.leaves.items()],
        }


@contextmanager
def traced(tracer: Tracer):
    """Wrap clusterq's pipeline names with `tracer` while the block runs."""
    from clusterq import cli, region, scenario, scheduler, simulator

    targets = [
        (cli, "load_scenario", tracer.span, "scenario.load"),
        (cli, "run_scenario", tracer.span, "pipeline"),
        (cli, "check_expectations", tracer.span, "cli.check"),
        (scenario, "build_graph", tracer.span, "graph"),
        (scenario, "generate_commands", tracer.span, "scheduler"),
        (scenario, "run", tracer.span, "simulator"),
        (scenario, "account_energy", tracer.span, "energy.account"),
        (scheduler, "select_frequency", tracer.leaf, "energy.select"),
        (simulator, "eval_kernel", tracer.leaf, "kernel.eval"),
        (region.Region, "union", tracer.leaf, "region"),
        (region.Region, "intersect", tracer.leaf, "region"),
        (region.Region, "difference", tracer.leaf, "region"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, wrap, name in targets:
            setattr(owner, attr, wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def transitive_reduction_pairs(graph) -> int:
    """Task pairs left after transitive reduction of the task graph."""
    preds = defaultdict(set)
    for e in graph.edges:
        preds[e.dst].add(e.src)
    reach = {}  # task id -> bitset of its ancestors
    kept = 0
    for tid in graph.topological_order():
        covered = 0
        # Edges point forward, so a predecessor can only be reached through
        # one with a higher id: walk them from the highest down.
        for p in sorted(preds[tid], reverse=True):
            if not (covered >> p) & 1:
                kept += 1
            covered |= reach[p] | (1 << p)
        reach[tid] = covered
    return kept


def layer_counts(graph, plan, result) -> dict:
    """Counts that repeat exactly, taken from the objects one run returned."""
    from clusterq.scheduler import ExecuteCommand, PushCommand

    tasks = len(graph.tasks)
    edges = len(graph.edges)
    commands = len(plan.commands)
    deps = sum(len(c.deps) for c in plan.commands)
    cells = payload = pushes = 0
    for c in plan.commands:
        if isinstance(c, ExecuteCommand):
            cells += sum(region.volume() for _n, _b, region, _v in c.writes)
        elif isinstance(c, PushCommand):
            pushes += 1
            payload += c.region.volume()
    return {
        "graph.edges": edges,
        "graph.edges_per_task": edges / tasks if tasks else 0.0,
        "graph.edges_reduced_ratio":
            transitive_reduction_pairs(graph) / edges if edges else 0.0,
        "scheduler.commands": commands,
        "scheduler.pushes": pushes,
        "scheduler.deps": deps,
        "scheduler.deps_per_command": deps / commands if commands else 0.0,
        "scheduler.region_map_entries":
            sum(len(entries) for entries in plan.final_locations.values()),
        "simulator.cells": cells,
        "simulator.payload_cells": payload,
        "simulator.events": len(result.trace),
    }
