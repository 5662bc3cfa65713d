"""Shared test utilities: bitmap oracle for region algebra, an independent
command-plan replay checker, random workload generators, the scalar kernel
evaluator that is the oracle of the compiled one, field mutations of the
bundled scenario documents, and the dict forms of trace.json and
buf_<name>.json that json.dump writes as the oracle of their writers."""

import copy
import json
import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product

import numpy as np
from hypothesis import strategies as st

from clusterq.errors import EvalError
from clusterq.kernel import BinOp, IdComponent, Neg, Num, Param, Read, postorder
from clusterq.model import (
    Accessor,
    AccessMode,
    All,
    Buffer,
    BufferInit,
    Fixed,
    Neighborhood,
    OneToOne,
    Slice,
    Task,
)
from clusterq.region import Box, Region
from clusterq.scenario import bundled_scenario_path
from clusterq.scheduler import AwaitPushCommand, ExecuteCommand, PushCommand


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
      - the command DAG is acyclic and every dep id exists,
      - Push/AwaitPush pairing is a bijection with matching payload fields,
      - every Push captures exactly the version it claims from its source,
        and delivers no cell the destination already holds at that version,
      - every Execute sees each read cell at the version produced by the last
        preceding writer of that cell (pre-task state for in-place tasks),
      - every Execute writes its own chunk at the expected bumped version,
      - each buffer's final_locations entries are pairwise disjoint.

    Replay order is Kahn's algorithm with lowest command id first, matching
    the simulator, so in-place overwrites interact with capture correctly:
    a missing anti-dependency shows up as a version mismatch at the source.
    """
    by_id = {c.id: c for c in plan.commands}
    assert len(by_id) == len(plan.commands), "duplicate command ids"
    for c in plan.commands:
        for d in c.deps:
            assert d in by_id, f"C{c.id} depends on missing C{d}"

    pushes = {c.id: c for c in plan.commands if isinstance(c, PushCommand)}
    awaits = [c for c in plan.commands if isinstance(c, AwaitPushCommand)]
    assert sorted(pushes) == sorted(a.push_id for a in awaits), \
        "push/await_push pairing is not a bijection"
    for a in awaits:
        p = pushes[a.push_id]
        assert a.buffer == p.buffer and a.dst == p.dst and a.version == p.version
        assert a.region == p.region

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

    indegree = {c.id: len(c.deps) for c in plan.commands}
    dependents = {c.id: [] for c in plan.commands}
    for c in plan.commands:
        for d in c.deps:
            dependents[d].append(c.id)
    heap = [cid for cid, deg in indegree.items() if deg == 0]
    heapify(heap)
    payload_cells = {}
    processed = 0

    while heap:
        cid = heappop(heap)
        cmd = by_id[cid]
        if isinstance(cmd, PushCommand):
            cells = region_bitmap(cmd.region, buffers[cmd.buffer].extent.shape)
            assert (ver(cmd.buffer, cmd.src)[cells] == cmd.version).all(), \
                f"C{cid} captures {cmd.buffer} at the wrong version on node {cmd.src}"
            assert not (ver(cmd.buffer, cmd.dst)[cells] == cmd.version).any(), \
                f"C{cid} pushes data node {cmd.dst} already holds at v{cmd.version}"
            payload_cells[cid] = cells
        elif isinstance(cmd, AwaitPushCommand):
            ver(cmd.buffer, cmd.dst)[payload_cells[cmd.push_id]] = cmd.version
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
                assert region == Region.from_box(cmd.chunk.box)
                ver(bufname, cmd.node)[
                    region_bitmap(region, buffers[bufname].extent.shape)] = v
        processed += 1
        for nxt in dependents[cid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heappush(heap, nxt)

    assert processed == len(plan.commands), "command graph has a cycle"

    for name, entries in plan.final_locations.items():
        for i, (a, _va, _ha) in enumerate(entries):
            for b, _vb, _hb in entries[i + 1:]:
                assert not a.overlaps(b), f"final_locations of {name} overlap: {a} and {b}"
    return nodever


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
    Offsets are kept within each mapper's allowance so runs never trip the
    footprint or runtime region checks.
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
    Such a read passes the footprint check, since no shifted id lands in the
    extent, but clamps onto edge cells the fixed region may leave out. An
    int64 body also divides by reads of x, whose values include zeros, and
    by id components less a constant."""
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
    """A ReadView read one point at a time: each coordinate clamped to the
    extent, then the clamped point required to lie in the mapped region."""

    def __init__(self, view):
        self.view = view

    def read(self, point):
        v = self.view
        q = tuple(min(max(p, lo), hi - 1)
                  for p, lo, hi in zip(point, v.extent.mins, v.extent.maxs))
        if not any(all(lo <= c < hi for c, lo, hi in zip(q, b.mins, b.maxs))
                   for b in v.region.boxes):
            raise v.violation(point)
        return v.data[q].item()


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
    points = {name: PointView(view) for name, view in views.items()}
    ids = product(*(range(lo, hi) for lo, hi in zip(box.mins, box.maxs)))
    values = [_eval(order, idx, points, params, integer) for idx in ids]
    return np.array(values, dtype=np.int64 if integer else np.float64).reshape(box.shape)


def compile_reference(expr, integer=False):
    """A stand-in for compile_kernel that evaluates each box with eval_box."""
    return lambda box, views, params: eval_box(expr, box, views, params, integer)


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
              "", "x", "MIN_EDP", "all", [], [0], [1, 2], {}, {"kind": "x"})
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
