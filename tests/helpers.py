"""Shared test utilities: bitmap oracle for region algebra, an independent
command-plan replay checker, the per-command data replay that is the
reference of the batched one, a pointwise oracle of the footprint check,
full-scan references of the task graph and of the scheduler's region map,
the region map that splits every transferred piece's entry at once, the
plan with every task planned directly, the printers of kernels and
scenarios that are the parser's round-trip oracle,
random workload generators, the scalar kernel evaluator that is the oracle of
the compiled one, a fresh evaluation of the power model, the item-by-item
checks of number lists that are the oracle of the whole-list ones, field
mutations of the bundled scenario documents, and the dict forms of
trace.json and buf_<name>.json that json.dump writes as the oracle of their
writers."""

import copy
import json
import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from clusterq import graph as graph_module
from clusterq import scheduler as scheduler_module
from clusterq.energy import DeviceModel
from clusterq.errors import EvalError, ScenarioError, ValidationError
from clusterq.graph import TaskGraph
from clusterq.kernel import BinOp, IdComponent, Neg, Num, Param, Read, compile_kernel, postorder
from clusterq.model import (
    Accessor,
    AccessMode,
    All,
    Buffer,
    BufferInit,
    Fixed,
    INT64_RANGE,
    Neighborhood,
    OneToOne,
    ReadView,
    Slice,
    Task,
    is_int64,
)
from clusterq.region import Box, Region
from clusterq.scenario import (
    DEVICE,
    INIT_KINDS,
    LINK,
    Scenario,
    _number,
    bundled_scenario_path,
    write_json,
)
from clusterq.scheduler import (
    AwaitPushCommand,
    ExecuteCommand,
    Plan,
    PushCommand,
    RegionMapTable,
    generate_commands,
    split_task,
)


# ---------------------------------------------------------------- region oracle

def region_bitmap(region, shape):
    """Dense cell-set representation; only valid for regions within [0, shape)."""
    grid = np.zeros(shape, dtype=bool)
    for box in region:
        grid[tuple(slice(lo, hi) for lo, hi in zip(box.mins, box.maxs))] = True
    return grid


def box_bitmap(box, shape):
    grid = np.zeros(shape, dtype=bool)
    grid[tuple(slice(lo, hi) for lo, hi in zip(box.mins, box.maxs))] = True
    return grid


def random_box(rng, shape):
    mins, maxs = [], []
    for n in shape:
        a = rng.randrange(0, n)
        b = rng.randrange(a + 1, n + 1)
        mins.append(a)
        maxs.append(b)
    return Box(tuple(mins), tuple(maxs))


def random_region(rng, shape, max_boxes=4):
    count = rng.randrange(1, max_boxes + 1)
    return Region(len(shape), [random_box(rng, shape) for _ in range(count)])


# ------------------------------------------------------------- plan replay check

def check_plan(plan, buffers):
    """Replay a command plan against dense per-node, per-cell version grids.

    Asserts, independently of the scheduler's own bookkeeping:
      - each command's id is its position and every dep id is lower, so
        the command DAG is acyclic and id order is a replay order,
      - each task's commands are contiguous, its transfers before its
        Executes,
      - Push/AwaitPush pairing is a bijection: each AwaitPush holds the Push
        at its Push's position and depends on it alone,
      - every Push captures exactly the version it claims from its source,
        and delivers no cell the destination already holds at that version,
      - every Execute sees each read cell at the version produced by the last
        preceding writer of that cell (pre-task state for in-place tasks),
      - every Execute writes its own chunk at the expected bumped version,
      - each buffer's final_locations entries are pairwise disjoint, and an
        initialized buffer's entries tile its extent.

    The replay is in id order, as the simulator's, so in-place overwrites
    interact with capture correctly: a missing anti-dependency shows up as a
    version mismatch at the source.
    """
    commands = plan.commands
    for position, c in enumerate(commands):
        assert c.id == position, f"C{c.id} is at position {position}"
        for d in c.deps:
            assert 0 <= d < c.id, f"C{c.id} depends on C{d}, not an earlier command"

    # The task of each run of Executes, a transfer starting a new run: a task
    # seen twice has commands of another task or transfers among its Executes.
    runs, transfers = [], False
    for c in commands:
        if isinstance(c, ExecuteCommand):
            if transfers or not runs or runs[-1] != c.task_id:
                runs.append(c.task_id)
            transfers = False
        else:
            transfers = True
    assert not transfers, "the plan ends in transfers no Execute follows"
    assert len(runs) == len(set(runs)), \
        f"tasks in command order {runs}: a task's commands are not contiguous, " \
        f"its transfers before its Executes"

    pushes = [c.id for c in commands if isinstance(c, PushCommand)]
    awaits = [c for c in commands if isinstance(c, AwaitPushCommand)]
    assert sorted(pushes) == sorted(a.push.id for a in awaits), \
        "push/await_push pairing is not a bijection"
    for a in awaits:
        assert commands[a.push.id] is a.push and a.deps == (a.push.id,)

    # Version oracle from the task list alone: one bump per writing task per
    # buffer, writes cover exactly the one_to_one image of the task range.
    counter = {}
    cur = {}
    for name, buf in buffers.items():
        seed = 1 if buf.init.is_initialized else 0
        counter[name] = seed
        cur[name] = np.full(buf.extent.shape, seed, dtype=np.int64)
    pre = {}   # (task_id, buffer) -> version grid before the task runs
    wver = {}  # (task_id, buffer) -> version the task writes
    for t in plan.graph.tasks:
        rbufs = {a.buffer for a in t.accessors if a.mode is AccessMode.READ}
        wbufs = {a.buffer for a in t.accessors if a.mode is AccessMode.WRITE}
        for b in rbufs:
            pre[(t.id, b)] = cur[b].copy()
        for b in wbufs:
            counter[b] += 1
            wver[(t.id, b)] = counter[b]
            cur[b][box_bitmap(t.global_range, buffers[b].extent.shape)] = counter[b]

    nodever = {}  # (buffer, node) -> int grid, 0 means absent
    def ver(buffer, node):
        key = (buffer, node)
        if key not in nodever:
            nodever[key] = np.zeros(buffers[buffer].extent.shape, dtype=np.int64)
        return nodever[key]

    for name, buf in buffers.items():
        if buf.init.is_initialized:
            ver(name, 0)[...] = 1

    payload_cells = {}
    for cid, cmd in enumerate(commands):
        if isinstance(cmd, PushCommand):
            cells = region_bitmap(cmd.region, buffers[cmd.buffer].extent.shape)
            assert (ver(cmd.buffer, cmd.src)[cells] == cmd.version).all(), \
                f"C{cid} captures {cmd.buffer} at the wrong version on node {cmd.src}"
            assert not (ver(cmd.buffer, cmd.dst)[cells] == cmd.version).any(), \
                f"C{cid} pushes data node {cmd.dst} already holds at v{cmd.version}"
            payload_cells[cid] = cells
        elif isinstance(cmd, AwaitPushCommand):
            push = cmd.push
            ver(push.buffer, push.dst)[payload_cells[push.id]] = push.version
        elif isinstance(cmd, ExecuteCommand):
            for _name, bufname, region in cmd.reads:
                cells = region_bitmap(region, buffers[bufname].extent.shape)
                expect = pre[(cmd.task_id, bufname)]
                got = ver(bufname, cmd.node)
                assert (got[cells] == expect[cells]).all(), \
                    f"C{cid} reads {bufname} at stale or missing versions " \
                    f"on node {cmd.node}"
            for _name, bufname, region, v in cmd.writes:
                assert v == wver[(cmd.task_id, bufname)], \
                    f"C{cid} writes {bufname} at v{v}, oracle says " \
                    f"v{wver[(cmd.task_id, bufname)]}"
                assert region == Region.from_box(cmd.box)
                ver(bufname, cmd.node)[
                    region_bitmap(region, buffers[bufname].extent.shape)] = v

    for name, entries in plan.final_locations.items():
        for i, (a, _va, _ha) in enumerate(entries):
            for b, _vb, _hb in entries[i + 1:]:
                assert not a.overlaps(b), f"final_locations of {name} overlap: {a} and {b}"
        if buffers[name].init.is_initialized:
            extent = Region.from_box(buffers[name].extent)
            covered = Region(extent.dims)
            for a, _v, _h in entries:
                covered = covered.union(a)
            assert covered == extent, f"final_locations of {name} do not tile its extent"
    return nodever


# ------------------------------------------------------ per-command data replay

def replay_order(plan):
    """The plan's commands in Kahn's order, lowest command id first among
    the ready set: id order, the simulator's, for a plan whose every
    dependency has a lower id."""
    indegree = [len(c.deps) for c in plan.commands]
    dependents = [[] for _ in plan.commands]
    for c in plan.commands:
        for d in c.deps:
            dependents[d].append(c.id)
    heap = [cid for cid, deg in enumerate(indegree) if deg == 0]
    while heap:
        cid = heappop(heap)
        yield plan.commands[cid]
        for nxt in dependents[cid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heappush(heap, nxt)


def reference_run(plan):
    """The final buffers of plan, its data replayed one command at a time in
    replay order: a Push's payload captured when it runs and landed by its
    AwaitPush, and each Execute evaluated at once, one compiled kernel call
    per box of each write region, reading the buffers it writes from a copy
    taken before it writes them. Raises the first EvalError, naming its task."""
    buffers = plan.graph.buffers
    arrays = {}

    def array(name, node):
        if (name, node) not in arrays:
            buf = buffers[name]
            arrays[name, node] = (buf.init.materialize(buf.extent, buf.element_kind) if node == 0
                                  else np.zeros(buf.extent.shape, dtype=buf.dtype))
        return arrays[name, node]

    def index(box):
        return tuple(slice(lo, hi) for lo, hi in zip(box.mins, box.maxs))

    payloads = {}
    for cmd in replay_order(plan):
        if isinstance(cmd, PushCommand):
            src = array(cmd.buffer, cmd.src)
            payloads[cmd.id] = [(box, src[index(box)].copy()) for box in cmd.region]
        elif isinstance(cmd, AwaitPushCommand):
            dst = array(cmd.push.buffer, cmd.push.dst)
            for box, values in payloads.pop(cmd.push.id):
                dst[index(box)] = values
        else:
            task = plan.graph.task(cmd.task_id)
            written = {b for _w, b, _r, _v in cmd.writes}
            views = {name: ReadView(buffers[b].extent, array(b, cmd.node).copy()
                                    if b in written else array(b, cmd.node))
                     for name, b, _r in cmd.reads}
            for wname, b, region, _v in cmd.writes:
                integer = buffers[b].element_kind == "int64"
                evaluate = compile_kernel(task.body[wname], integer)
                for box in region:
                    try:
                        values = evaluate(box, views, task.params)
                    except EvalError as exc:
                        raise EvalError(f"{exc} in task '{task.name}'") from None
                    out = array(b, cmd.node)[index(box)]
                    out[...] = values
                    if not integer:
                        out[np.isnan(out)] = math.nan
    final = {}
    for name, entries in plan.final_locations.items():
        buf = buffers[name]
        final[name] = np.zeros(buf.extent.shape, dtype=buf.dtype)
        for region, _version, holders in entries:
            for box in region:
                final[name][index(box)] = array(name, min(holders))[index(box)]
    return final


# ------------------------------------------------------------ footprint oracle

def clamp_point(point, extent):
    """point with each coordinate clamped to the extent."""
    return tuple(min(max(p, lo), hi - 1) for p, lo, hi in zip(point, extent.mins, extent.maxs))


def first_read_outside(plan):
    """The first clamped read of the plan's Executes that leaves the mapped
    region its command grants, as (command id, id, accessor, clamped point),
    or None. Every read of the task's body is checked at every id of every
    chunk, one point at a time."""
    graph = plan.graph
    for cmd in plan.executes():
        task = graph.task(cmd.task_id)
        reads = list(dict.fromkeys(node for expr in task.body.values()
                                   for node in postorder(expr) if isinstance(node, Read)))
        granted = {name: (graph.buffers[bufname].extent, region)
                   for name, bufname, region in cmd.reads}
        box = cmd.box
        for idx in product(*(range(lo, hi) for lo, hi in zip(box.mins, box.maxs))):
            for read in reads:
                extent, region = granted[read.accessor]
                q = clamp_point([p + off for p, off in zip(idx, read.offsets)], extent)
                if not any(all(lo <= c < hi for c, lo, hi in zip(q, b.mins, b.maxs))
                           for b in region.boxes):
                    return cmd.id, idx, read.accessor, q
    return None


def unchecked_plan(buffers, tasks, nodes):
    """The command plan of tasks with submit's footprint check switched off,
    so that the oracle can look at what the check rejects."""
    graph = TaskGraph(buffers)
    with mock.patch.object(graph_module, "static_footprint_check", return_value=[]):
        for task in tasks:
            graph.submit(task)
    return generate_commands(graph, nodes)


# --------------------------------------------------------- full-scan references

def full_scan_graph(graph):
    """The task graph by a scan of every earlier task for each task: the
    conflict edges as (src, dst, kind name, buffer, boxes), and per task id
    the set of earlier tasks it conflicts with and the bitset of its
    ancestors. Regions are mapped afresh from each task's accessors."""
    mapped = {}
    for task in graph.tasks:
        regions = {AccessMode.READ: {}, AccessMode.WRITE: {}}
        for acc in task.accessors:
            region = acc.mapper.map_chunk(task.global_range, graph.buffers[acc.buffer].extent)
            by_buffer = regions[acc.mode]
            by_buffer[acc.buffer] = (by_buffer[acc.buffer].union(region)
                                     if acc.buffer in by_buffer else region)
        mapped[task.id] = regions
    edges, preds, ancestors = [], {}, {}
    for task in graph.tasks:
        reads, writes = mapped[task.id][AccessMode.READ], mapped[task.id][AccessMode.WRITE]
        preds[task.id] = set()
        for eid in range(1, task.id):
            er, ew = mapped[eid][AccessMode.READ], mapped[eid][AccessMode.WRITE]
            for buffer in sorted(set(er) | set(ew)):
                for kind, old, new in (("RAW", ew, reads), ("WAR", er, writes),
                                       ("WAW", ew, writes)):
                    if buffer in old and buffer in new:
                        conflict = old[buffer].intersect(new[buffer])
                        if not conflict.is_empty():
                            edges.append((eid, task.id, kind, buffer, conflict.boxes))
                            preds[task.id].add(eid)
        ancestors[task.id] = 0
        for p in preds[task.id]:
            ancestors[task.id] |= (1 << p) | ancestors[p]
    return edges, preds, ancestors


def predecessors(graph, tid):
    """Every earlier task that task tid conflicts with, sorted, by the scan."""
    return sorted(full_scan_graph(graph)[1][tid])


def full_scan_table(graph, node_count):
    """The pushes and the region map of command generation, with the table
    updated one transferred piece and one written chunk at a time, each by a
    scan of every entry of the buffer.

    Returns the pushes as (id, deps, src, dst, buffer, boxes, version) and,
    after each task, every buffer's entries as (boxes, version, holders). A
    task's Push/AwaitPush pairs are numbered first, then its Executes.
    """
    entries = {}  # buffer -> [[region, version, {node: producer}]]
    versions = {}
    for name, buf in graph.buffers.items():
        initialized = buf.init.is_initialized
        entries[name] = [[Region.from_box(buf.extent), 1, {0: None}]] if initialized else []
        versions[name] = 1 if initialized else 0

    def add_holder(buffer, region, node, producer):
        out = []
        for reg, version, holders in entries[buffer]:
            if not reg.overlaps(region):
                out.append([reg, version, holders])
                continue
            part = reg.intersect(region)
            rest = reg.difference(part)
            if not rest.is_empty():
                out.append([rest, version, dict(holders)])
            out.append([part, version, {**holders, node: producer}])
        entries[buffer] = out

    def write(buffer, region, version, node, producer):
        out = []
        for reg, v, holders in entries[buffer]:
            if reg.overlaps(region):
                reg = reg.difference(region)
                if reg.is_empty():
                    continue
            out.append([reg, v, holders])
        entries[buffer] = out + [[region, version, {node: producer}]]

    next_id = 0
    pushes, after_task = [], []
    for tid in graph.topological_order():
        task = graph.task(tid)
        version = {}
        for acc in task.writes():
            versions[acc.buffer] += 1
            version[acc.buffer] = versions[acc.buffer]
        gains = []
        boxes = split_task(task, node_count)
        for node, box in enumerate(boxes):
            need = {}
            for acc in task.reads():
                region = acc.mapper.map_chunk(box, graph.buffers[acc.buffer].extent)
                need[acc.buffer] = (need[acc.buffer].union(region)
                                    if acc.buffer in need else region)
            for buffer, region in need.items():
                for reg, v, holders in entries[buffer]:
                    if not reg.overlaps(region) or node in holders:
                        continue
                    part = reg.intersect(region)
                    src = min(holders)
                    deps = () if holders[src] is None else (holders[src],)
                    pushes.append((next_id, deps, src, node, buffer, part.boxes, v))
                    gains.append((buffer, part, node, next_id + 1))
                    next_id += 2
        for gain in gains:
            add_holder(*gain)
        for node, box in enumerate(boxes):
            exe_id = next_id + node
            for acc in task.writes():
                region = acc.mapper.map_chunk(box, graph.buffers[acc.buffer].extent)
                write(acc.buffer, region, version[acc.buffer], node, exe_id)
        next_id += len(boxes)
        after_task.append({name: [(reg.boxes, v, dict(holders)) for reg, v, holders in es]
                           for name, es in entries.items()})
    return pushes, after_task


class EagerTable(RegionMapTable):
    """The region map with no gains left pending between tasks: each task's
    transferred pieces split their entries as the task ends, before its
    writes, as every task writes."""

    def write(self, buffer, version, writes):
        for pending in list(self.pending):
            self.read(pending)
        super().write(buffer, version, writes)


def eager_split_plan(graph, node_count):
    """generate_commands over an EagerTable."""
    with mock.patch.object(scheduler_module, "RegionMapTable", EagerTable):
        return generate_commands(graph, node_count)


def direct_plan(graph, node_count):
    """generate_commands with every task planned directly on the region map,
    none instantiated from a template: the oracle of template replay."""
    devices = [DeviceModel()] * node_count
    levels = [device.levels_ghz[-1] for device in devices]
    table = RegionMapTable(graph.buffers)
    commands, exec_ids = [], {}
    for tid in graph.topological_order():
        task = graph.task(tid)
        pred = tuple(e for p in graph.reduced_predecessors(tid) for e in exec_ids.get(p, ()))
        version = {acc.buffer: table.bump_version(acc.buffer) for acc in task.writes()}
        chunks = scheduler_module._chunk_shapes(task, node_count, graph.buffers)
        new = scheduler_module._plan_task(table, task, tid, chunks, version, len(commands), pred,
                                          levels)
        commands.extend(new)
        exec_ids[tid] = [c.id for c in new if isinstance(c, ExecuteCommand)]
    return Plan(graph, node_count, commands, devices, table.snapshot())


# ------------------------------------------------- printers: the parser's oracle

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC[expr.op]
    if isinstance(expr, Neg):
        return 3
    return 4


def format_kernel(expr) -> str:
    """Canonical text for an expression; reparsing yields an identical tree.
    Iterative, so deep trees need no recursion."""
    texts = []  # the text of each operand not yet consumed
    for node in postorder(expr):
        if isinstance(node, Num):
            texts.append(repr(node.value))
        elif isinstance(node, Param):
            texts.append(node.name)
        elif isinstance(node, IdComponent):
            texts.append(f"i.{node.axis}")
        elif isinstance(node, Read):
            idx = ", ".join(
                f"i.{j}" if off == 0 else f"i.{j}{off:+d}" for j, off in enumerate(node.offsets)
            )
            texts.append(f"{node.accessor}[{idx}]")
        elif isinstance(node, Neg):
            inner = texts[-1]
            if _prec(node.operand) < 4:
                inner = f"({inner})"
            texts[-1] = f"-{inner}"
        elif isinstance(node, BinOp):
            right = texts.pop()
            if _prec(node.right) <= _PREC[node.op]:
                right = f"({right})"
            left = texts[-1]
            if _prec(node.left) < _PREC[node.op]:
                left = f"({left})"
            texts[-1] = f"{left} {node.op} {right}"
        else:
            raise TypeError(f"not a kernel expression: {node!r}")
    return texts[0]


def _model_to_json(obj, table: dict) -> dict:
    """The fields of obj that table declares, as JSON values."""
    values = {key: getattr(obj, key) for key in table}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def _init_to_json(init: BufferInit):
    table = INIT_KINDS[init.kind][0]
    return {"kind": init.kind, **_model_to_json(init, table)} if table else init.kind


def _mapper_to_json(mapper):
    if isinstance(mapper, (OneToOne, All)):
        return str(mapper)
    if isinstance(mapper, Neighborhood):
        return {"kind": "neighborhood", "radii": list(mapper.radii)}
    if isinstance(mapper, Slice):
        return {"kind": "slice", "dim": mapper.axis}
    if isinstance(mapper, Fixed):
        region = [{"min": list(b.mins), "max": list(b.maxs)} for b in mapper.region]
        return {"kind": "fixed", "region": region}
    raise ScenarioError(f"cannot serialize mapper {type(mapper).__name__}")


def _accessor_to_json(acc: Accessor):
    if acc.name == acc.buffer and isinstance(acc.mapper, OneToOne):
        return acc.buffer
    out = {"buffer": acc.buffer}
    if acc.name != acc.buffer:
        out["name"] = acc.name
    if not isinstance(acc.mapper, OneToOne):
        out["mapper"] = _mapper_to_json(acc.mapper)
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {}
    if scenario.nodes is not None:
        data["nodes"] = scenario.nodes
    if scenario.devices is not None:
        data["devices"] = [_model_to_json(d, DEVICE) for d in scenario.devices]
    if scenario.link is not None:
        data["link"] = _model_to_json(scenario.link, LINK)
    if scenario.queue_target is not None:
        data["target"] = scenario.queue_target.value
    data["buffers"] = [
        {
            "name": b.name,
            "extent": list(b.extent.shape),
            "element_kind": b.element_kind,
            "init": _init_to_json(b.init),
        }
        for b in scenario.buffers
    ]
    data["tasks"] = []
    for task in scenario.tasks:
        t = {
            "name": task.name,
            "range": list(task.global_range.shape),
            "reads": [_accessor_to_json(a) for a in task.reads()],
            "writes": [_accessor_to_json(a) for a in task.writes()],
            "body": {name: format_kernel(expr) for name, expr in task.body.items()},
        }
        if task.params:
            t["params"] = dict(task.params)
        if task.beta:
            t["beta"] = task.beta
        if task.target is not None:
            t["target"] = task.target.value
        data["tasks"].append(t)
    if scenario.expectations:
        data["expectations"] = [
            {"buffer": name, "values": list(values)}
            for name, values in scenario.expectations
        ]
    return data


def save_scenario(scenario: Scenario, path):
    write_json(path, scenario_to_dict(scenario))


def push_commands(plan):
    return [c for c in plan.commands if isinstance(c, PushCommand)]


def await_pushes(plan):
    return [c for c in plan.commands if isinstance(c, AwaitPushCommand)]


# --------------------------------------------------------------- random workloads

MAPPER_KINDS = ("one_to_one", "neighborhood", "all", "fixed", "slice")


def _random_shape(rng):
    dims = rng.choice((1, 1, 2, 2, 3))
    if dims == 1:
        return (rng.randrange(2, 33),)
    if dims == 2:
        return (rng.randrange(2, 9), rng.randrange(2, 8))
    return (rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(2, 4))


def _leaf(rng, read_specs, params, dims, integer):
    roll = rng.random()
    if read_specs and roll < 0.55:
        name, offsets = rng.choice(read_specs)
        return Read(name, offsets(rng))
    if params and roll < 0.7:
        return Param(rng.choice(sorted(params)))
    if roll < 0.85:
        return IdComponent(rng.randrange(dims))
    if integer:
        return Num(rng.randrange(-3, 7))
    return Num(rng.choice((0.5, 1.0, 2.0, -1.5, 3.0)))


def _expr(rng, depth, read_specs, params, dims, integer):
    if depth <= 0 or rng.random() < 0.3:
        return _leaf(rng, read_specs, params, dims, integer)
    ops = ("+", "-", "*") if integer else ("+", "-", "*", "/")
    op = rng.choice(ops)
    if rng.random() < 0.1:
        return Neg(_expr(rng, depth - 1, read_specs, params, dims, integer))
    return BinOp(
        op,
        _expr(rng, depth - 1, read_specs, params, dims, integer),
        _expr(rng, depth - 1, read_specs, params, dims, integer),
    )


def random_workload(rng, mapper_counter=None):
    """Buffers plus up to 5 tasks over a shared shape, one element kind.

    Read mappers cycle through all five kinds; write mappers are one_to_one.
    Offsets are kept within each mapper's allowance so that submit's
    footprint check passes.
    """
    shape = _random_shape(rng)
    dims = len(shape)
    extent = Box.from_shape(shape)
    integer = rng.random() < 0.4
    kind = "int64" if integer else "float64"

    names = ["a", "b", "c", "d"][: rng.randrange(2, 5)]
    inits = {}
    for name in names:
        roll = rng.random()
        if roll < 0.4:
            inits[name] = BufferInit.iota()
        elif roll < 0.6:
            inits[name] = BufferInit.zeros()
        elif roll < 0.8:
            inits[name] = BufferInit.constant(rng.randrange(1, 5))
        else:
            vol = extent.volume()
            vals = [rng.randrange(-4, 9) for _ in range(vol)]
            inits[name] = BufferInit.explicit(vals)

    task_count = rng.randrange(1, 6)
    tasks = []
    written_once = set()
    read_before_write = set()
    first_write_full = {}

    for t in range(task_count):
        if rng.random() < 0.3:
            rng_box = random_box(rng, shape)
            rng_box = Box(tuple(0 for _ in shape), rng_box.maxs)
        else:
            rng_box = extent
        full = rng_box == extent

        wcount = 1 if len(names) < 3 or rng.random() < 0.7 else 2
        wbuffers = rng.sample(names, wcount)
        rcount = rng.randrange(0, 4)
        rbuffers = [rng.choice(names) for _ in range(rcount)]

        accessors = []
        read_specs = []
        used = set()
        for j, bname in enumerate(rbuffers):
            mk = MAPPER_KINDS[mapper_counter.pop() if mapper_counter else rng.randrange(5)]
            aname = f"r{j}_{bname}"
            if mk == "one_to_one":
                mapper = OneToOne()
                offsets = lambda r, d=dims: tuple(0 for _ in range(d))
            elif mk == "neighborhood":
                radii = tuple(rng.randrange(0, 3) for _ in range(dims))
                mapper = Neighborhood(radii)
                offsets = lambda r, rad=radii: tuple(
                    r.randrange(-k, k + 1) for k in rad)
            elif mk == "all":
                mapper = All()
                offsets = lambda r, d=dims: tuple(r.randrange(-2, 3) for _ in range(d))
            elif mk == "slice":
                axis = rng.randrange(dims)
                mapper = Slice(axis)
                offsets = lambda r, d=dims, ax=axis: tuple(
                    r.randrange(-2, 3) if k == ax else 0 for k in range(d))
            else:
                # declared data requirement only; the body never reads it
                mapper = Fixed(random_region(rng, shape, 2))
                offsets = None
            accessors.append(Accessor(bname, AccessMode.READ, mapper, name=aname))
            if offsets is not None:
                read_specs.append((aname, offsets))
            if bname not in written_once:
                read_before_write.add(bname)
            used.add(bname)

        body = {}
        params = {}
        if rng.random() < 0.5:
            params["p"] = rng.randrange(1, 5) if integer else rng.choice((0.5, 2.0))
        for bname in wbuffers:
            aname = f"w_{bname}"
            accessors.append(Accessor(bname, AccessMode.WRITE, name=aname))
            body[aname] = _expr(rng, 2, read_specs, params, dims, integer)
            if bname not in written_once:
                written_once.add(bname)
                first_write_full[bname] = full and bname not in read_before_write

        tasks.append(Task(
            name=f"t{t}",
            global_range=rng_box,
            accessors=accessors,
            body=body,
            params=params,
            beta=rng.choice((0.0, 0.0, 0.5)),
        ))

    buffers = {}
    for name in names:
        init = inits[name]
        if first_write_full.get(name) and rng.random() < 0.5:
            init = BufferInit.uninitialized()
        buffers[name] = Buffer(name=name, extent=extent, element_kind=kind, init=init)
    return buffers, tasks


def error_workload(rng):
    """Buffers and one or two tasks whose bodies may fail at some ids.

    Each task reads buffer x, which may have fewer axes than the kernel,
    through a Fixed mapper and shifted wholly off the extent along one axis.
    Such a read clamps onto edge cells the fixed region may leave out, and
    then submit's footprint check rejects the task. An int64 body also
    divides by reads of x, whose values include zeros, and by id components
    less a constant."""
    dims = rng.choice((1, 2, 2, 3))
    shape = _random_shape(rng)
    while len(shape) != dims:
        shape = _random_shape(rng)
    xshape = shape[:rng.randrange(1, dims + 1)]
    integer = rng.random() < 0.7
    kind = "int64" if integer else "float64"
    values = [rng.choice((0, 1, 2, -3, 5)) for _ in range(math.prod(xshape))]
    buffers = {"x": Buffer("x", Box.from_shape(xshape), kind, BufferInit.explicit(values))}

    def shifted(r):
        axis = r.randrange(len(xshape))
        off = [r.randrange(-2, 3) for _ in xshape]
        off[axis] = r.choice((-1, 1)) * (xshape[axis] + r.randrange(0, 2))
        return tuple(off)

    def leaf(r):
        roll = r.random()
        if roll < 0.25:
            return Read("f", shifted(r))
        if roll < 0.6:
            return Read("d", tuple(0 for _ in xshape))
        if roll < 0.8:
            return BinOp("-", IdComponent(r.randrange(dims)), Num(r.randrange(0, 3)))
        return Num(r.randrange(0, 4) if integer else r.choice((0.0, 1.5)))

    def expr(r, depth):
        if depth <= 0 or r.random() < 0.25:
            return leaf(r)
        return BinOp(r.choice("+-*/"), expr(r, depth - 1), expr(r, depth - 1))

    tasks = []
    for t in range(rng.randrange(1, 3)):
        region = random_region(rng, xshape, 2)
        if rng.random() < 0.5:  # most of the extent, so fewer ids fail
            region = Region.from_box(Box.from_shape(xshape)).difference(region)
        buffers[f"z{t}"] = Buffer(f"z{t}", Box.from_shape(shape), kind, BufferInit.zeros())
        tasks.append(Task(f"t{t}", Box.from_shape(shape), [
            Accessor("x", AccessMode.READ, Fixed(region), name="f"),
            Accessor("x", AccessMode.READ, All(), name="d"),
            Accessor(f"z{t}", AccessMode.WRITE, name="w"),
        ], {"w": expr(rng, 3)}))
    return buffers, tasks


# ------------------------------------------------------------ scalar kernel oracle

_I64_HALF = 1 << 63
_I64_FULL = 1 << 64


def wrap_i64(v: int) -> int:
    return (v + _I64_HALF) % _I64_FULL - _I64_HALF


def _ieee_div(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


class PointView:
    """A ReadView read one point at a time at the ids of one axis-0 row, from
    the array of the member whose rows hold that row, each coordinate
    clamped to the extent."""

    def __init__(self, view, row):
        self.extent = view.extent
        self.data = view.arrays[0] if view.rows is None else next(
            data for data, rows in zip(view.arrays, view.rows) if rows[0] <= row < rows[1])

    def read(self, point):
        return self.data[clamp_point(point, self.extent)].item()


def eval_kernel(expr, idx, views, params, integer=False):
    """Evaluate one element. idx is the global id tuple; views maps accessor
    name to an object exposing read(point); params maps name to value."""
    return _eval(postorder(expr), idx, views, params, integer)


def _eval(order, idx, views, params, integer):
    """eval_kernel over the nodes in evaluation order."""
    stack = []
    for node in order:
        if isinstance(node, BinOp):
            b = stack.pop()
            a = stack[-1]
            op = node.op
            if integer:
                if op == "+":
                    v = wrap_i64(a + b)
                elif op == "-":
                    v = wrap_i64(a - b)
                elif op == "*":
                    v = wrap_i64(a * b)
                elif b == 0:
                    raise EvalError(f"integer division by zero at id {idx}")
                else:
                    q = abs(a) // abs(b)
                    v = wrap_i64(-q if (a < 0) != (b < 0) else q)
            elif op == "+":
                v = a + b
            elif op == "-":
                v = a - b
            elif op == "*":
                v = a * b
            else:
                v = _ieee_div(a, b)
            stack[-1] = v
        elif isinstance(node, Neg):
            stack[-1] = wrap_i64(-stack[-1]) if integer else -stack[-1]
        elif isinstance(node, Num):
            stack.append(int(node.value) if integer else float(node.value))
        elif isinstance(node, Param):
            v = params[node.name]
            stack.append(int(v) if integer else float(v))
        elif isinstance(node, IdComponent):
            v = idx[node.axis]
            stack.append(v if integer else float(v))
        elif isinstance(node, Read):
            point = tuple(idx[j] + off for j, off in enumerate(node.offsets))
            v = views[node.accessor].read(point)
            stack.append(int(v) if integer else float(v))
        else:
            raise TypeError(f"not a kernel expression: {node!r}")
    return stack[0]


def eval_box(expr, box, views, params, integer=False) -> np.ndarray:
    """eval_kernel at every id of box in row-major order, over ReadViews, as
    an array of the box's shape. It raises the error of the first failing id."""
    order = postorder(expr)
    values = []
    for row in range(box.mins[0], box.maxs[0]):
        points = {name: PointView(view, row) for name, view in views.items()}
        for rest in product(*(range(lo, hi) for lo, hi in zip(box.mins[1:], box.maxs[1:]))):
            values.append(_eval(order, (row,) + rest, points, params, integer))
    return np.array(values, dtype=np.int64 if integer else np.float64).reshape(box.shape)


def compile_reference(expr, integer=False):
    """A stand-in for compile_kernel that evaluates each box with eval_box."""
    return lambda box, views, params: eval_box(expr, box, views, params, integer)


# ---------------------------------------------------------- power model oracle

def level_oracle(device, f):
    """(P(f), f_ref / f) evaluated afresh from the device's floats by the
    formulas of docs/formats.md: an integral alpha_exp is applied exactly,
    any other in binary64."""
    alpha = device.alpha_exp
    if alpha == int(alpha):
        ratio = Fraction(f) / Fraction(device.f_ref_ghz)
        dyn = Fraction(device.p_dyn_ref_w) * ratio ** int(alpha)
    else:
        dyn = Fraction(device.p_dyn_ref_w * (f / device.f_ref_ghz) ** alpha)
    return Fraction(device.p_static_w) + dyn, Fraction(device.f_ref_ghz) / Fraction(f)


def chunk_time(t_ref, beta, device, f):
    """Exact runtime t_ref * (beta + (1 - beta) * f_ref / f) at level f."""
    beta = Fraction(beta)
    return Fraction(t_ref) * (beta + (1 - beta) * Fraction(device.f_ref_ghz) / Fraction(f))


def total_kernel_energy(report) -> Fraction:
    """The energy of every task's kernels in an EnergyReport."""
    return sum((t.energy_j for t in report.per_task), Fraction(0))


def total_idle_energy(report) -> Fraction:
    """Static power times idle time, summed over an EnergyReport's devices."""
    return sum((Fraction(d.static_power_w) * d.idle_s for d in report.per_device), Fraction(0))


# ------------------------------------------------------- number list oracles

def numbers_item_by_item(items, path):
    """scenario._numbers as a loop that reads every item with _number,
    which raises ScenarioError for the first item that is no number within
    the binary64 range."""
    for i, item in enumerate(items):
        _number(item, f"{path}[{i}]")
    return list(items)


def int64_values_item_by_item(name, values):
    """Buffer's check of int64 init values, item by item: a ValidationError
    for the first value that is_int64 rejects."""
    for k, v in enumerate(values):
        if not is_int64(v):
            raise ValidationError(f"buffer '{name}': int64 init value {v!r} at index {k} "
                                  f"is not {INT64_RANGE}")


# ------------------------------------------------------------- mutated input

def _bundled(name):
    with open(bundled_scenario_path(name), encoding="utf-8") as fh:
        return json.load(fh)


BUNDLED = {name: _bundled(name) for name in ("saxpy", "stencil", "pipeline")}
# saxpy on two nodes with every device and link field given, so that the
# mutations reach the machine models too; alpha_exp is not integral, so P(f)
# takes its binary64 path
BUNDLED["machine"] = {
    **BUNDLED["saxpy"],
    "nodes": 2,
    "device": {"levels_ghz": [0.5, 1.0, 2.0], "f_ref_ghz": 1.0, "p_static_w": 5.0,
               "p_dyn_ref_w": 20.0, "alpha_exp": 2.5, "throughput_ref": 1e8},
    "link": {"latency_s": 2e-6, "bandwidth_bytes_per_s": 5e8},
}
ODD_VALUES = (None, True, 0, -1, 2, 2 ** 63, 10 ** 400, 0.5, -0.0, math.nan, math.inf,
              "", "x", "a/b", "a\u0000b", "MIN_EDP", "all", [], [0], [1, 2], {},
              {"kind": "x"})
KEYS = sorted({"bogus", "nodes", "device", "devices", "link", "target", "queue_target",
               "buffers", "tasks", "expectations", "name", "extent", "element_kind", "init",
               "kind", "value", "values", "range", "reads", "writes", "body", "params",
               "beta", "buffer", "mapper", "radius", "radii", "dim", "region", "min", "max",
               "levels_ghz", "f_ref_ghz", "p_static_w", "latency_s"})


def _containers(node, path=()):
    """Paths to every object and list in a JSON document."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, path + (key,))


def mutated(doc, draw):
    """A copy of a JSON document with one field set to an odd value, one
    object key deleted, or one key added; draw is hypothesis's data.draw."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_containers(doc))))
    node = doc
    for key in path:
        node = node[key]
    value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    if isinstance(node, list):
        if node:
            node[draw(st.integers(0, len(node) - 1))] = value
    elif node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)))
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = value
    else:
        node[draw(st.sampled_from(KEYS))] = value
    return doc


# ------------------------------------------------------------- output oracles

def trace_to_chrome(trace) -> list[dict]:
    """Chrome trace-viewer event list. Times in microseconds."""
    lanes = {"execute": 0, "push": 1, "await_push": 2}
    out = []
    for ev in trace:
        out.append({
            "name": ev.label or ev.kind,
            "ph": "X",
            "pid": ev.node,
            "tid": lanes[ev.kind],
            "ts": float(ev.start * 1_000_000),
            "dur": float(ev.duration * 1_000_000),
            "args": {
                "kind": ev.kind,
                "command": ev.command_id,
                **({"frequency_ghz": ev.frequency_ghz} if ev.frequency_ghz is not None else {}),
                **({"bytes": ev.bytes} if ev.bytes else {}),
            },
        })
    return out


def buffer_dump(buf, arr) -> dict:
    """The buf_<name>.json object of buffer declaration buf holding arr."""
    flat = arr.reshape(-1)
    values = [int(v) for v in flat] if buf.element_kind == "int64" else [float(v) for v in flat]
    return {
        "name": buf.name,
        "extent": list(buf.extent.shape),
        "element_kind": buf.element_kind,
        "values": values,
    }


def json_dump_text(obj) -> str:
    """What json.dump(obj, fh, indent=2) plus a newline writes."""
    return json.dumps(obj, indent=2) + "\n"
