"""Fast paths against their slow references: the compiled box evaluator
against the scalar oracle in helpers, through the simulator (bit-identical
buffers and identical error messages), the batched data replay against the
per-command one, the pending region-map splits against splitting every
transferred piece's entry at once, ReadView's gathers against the
oracle's pointwise reads, submit's footprint check against a pointwise check
of every read of the plan at every split,
the replay's durations and energy against a fresh computation per event,
Execute dependencies on the transitively reduced task predecessors against
dependencies on all of them, the region map's per-task splicing against a
full scan of its entries per transferred piece and written chunk, plans
instantiated from templates against planning every task directly, and the
trace.json and buf_<name>.json writers
against json.dump of their dict forms."""

import contextlib
import copy
import itertools
import math
import os
import random
import tempfile
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clusterq import scheduler, simulator
from clusterq.energy import DeviceModel, EnergyTarget, account_energy
from clusterq.errors import EvalError, UninitializedReadError, ValidationError
from clusterq.graph import TaskGraph
from clusterq.kernel import BinOp, IdComponent, Neg, Num, Param, Read, compile_kernel, postorder
from clusterq.model import (
    Accessor,
    AccessMode,
    All,
    Buffer,
    BufferInit,
    Fixed,
    Neighborhood,
    OneToOne,
    ReadView,
    Slice,
    Task,
    static_footprint_check,
)
from clusterq.region import Box, Region
from clusterq.scenario import write_buffer, write_trace
from clusterq.scheduler import (
    PushCommand,
    assign_frequencies,
    export_command_graph,
    generate_commands,
)
from clusterq.simulator import LinkModel, TraceEvent

from helpers import (
    PointView,
    buffer_dump,
    check_plan,
    chunk_time,
    compile_reference,
    direct_plan,
    eager_split_plan,
    error_workload,
    first_read_outside,
    full_scan_table,
    json_dump_text,
    level_oracle,
    predecessors,
    push_commands,
    random_workload,
    reference_run,
    replay_order,
    trace_to_chrome,
    unchecked_plan,
)

INT64_EDGES = (-(2 ** 63), -(2 ** 62), -7, -1, 0, 1, 3, 2 ** 62, 2 ** 63 - 1)
FLOAT_EDGES = (math.inf, -math.inf, math.nan, 0.0, -0.0, -2.0, 1.5, 1e308)


def outcome(plan, reference):
    """Final buffers as (dtype, bytes), or the evaluation error's type and text."""
    patch = mock.patch.object(simulator, "compile_kernel", compile_reference)
    with patch if reference else contextlib.nullcontext():
        try:
            result = simulator.run(plan)
        except EvalError as exc:
            return type(exc).__name__, str(exc)
    return {name: (arr.dtype.str, arr.tobytes()) for name, arr in result.buffers.items()}


def assert_paths_agree(buffers, tasks, nodes):
    graph = TaskGraph(buffers)
    for task in tasks:
        graph.submit(task)
    plan = generate_commands(graph, nodes)
    assert outcome(plan, reference=False) == outcome(plan, reference=True)


def _leaves(task):
    return [node for expr in task.body.values() for node in postorder(expr)
            if isinstance(node, (Read, Param, IdComponent))]


def _body(draw, leaves, integer):
    consts = st.sampled_from(INT64_EDGES if integer else FLOAT_EDGES).map(Num)
    base = st.one_of(st.sampled_from(leaves), consts) if leaves else consts
    return draw(st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/"), kids, kids)),
        max_leaves=10,
    ))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 3), data=st.data())
def test_compiled_matches_reference_on_random_workloads(seed, nodes, data):
    buffers, tasks = random_workload(random.Random(seed))
    integer = next(iter(buffers.values())).element_kind == "int64"
    edges = INT64_EDGES if integer else FLOAT_EDGES
    for name, buf in list(buffers.items()):
        if buf.init.is_initialized and data.draw(st.booleans()):
            vol = buf.extent.volume()
            values = data.draw(st.lists(st.sampled_from(edges), min_size=vol, max_size=vol))
            buffers[name] = Buffer(name, buf.extent, buf.element_kind,
                                   BufferInit.explicit(values))
    edged = []
    for task in tasks:
        leaves = _leaves(task)
        body = {w: _body(data.draw, leaves, integer) for w in task.body}
        params = {p: data.draw(st.sampled_from(edges)) for p in task.params}
        edged.append(Task(task.name, task.global_range, task.accessors, body,
                          params, task.beta))
    assert_paths_agree(buffers, edged, nodes)


def test_gather_across_boxes_of_a_fixed_region():
    # An L-shaped fixed region of two boxes; each chunk reads [k,k+1)x[0,4),
    # which neither box holds alone but their union does, so submit accepts
    # the task.
    x = Buffer("x", Box.from_shape((4, 4)), "float64", BufferInit.iota())
    z = Buffer("z", Box.from_shape((2, 4)), "float64", BufferInit.zeros())
    ell = Region(2, [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))])
    task = Task("ell", Box.from_shape((2, 4)), [
        Accessor("x", AccessMode.READ, Fixed(ell), name="r"),
        Accessor("z", AccessMode.WRITE),
    ], {"z": BinOp("*", Read("r", (0, 0)), Num(0.5))})
    assert static_footprint_check(task, {"x": x, "z": z}) == []
    for nodes in (1, 2):
        graph = TaskGraph({"x": x, "z": z})
        graph.submit(task)
        plan = generate_commands(graph, nodes)
        assert first_read_outside(plan) is None
        got = outcome(plan, reference=False)
        assert got == outcome(plan, reference=True)
        want = np.arange(16, dtype=np.float64).reshape(4, 4)[:2] * 0.5
        assert got["z"] == ("<f8", want.tobytes())


def test_int_division_by_zero_message_is_the_reference_one():
    # The zero divisors sit at ids (1, 0) and (1, 2); the first in row-major
    # order is named, whether one box or two cover the range.
    a = Buffer("a", Box.from_shape((4, 3)), "int64",
               BufferInit.explicit([5, 5, 5, 0, 5, 0, 5, 5, 5, 5, 5, 5]))
    z = Buffer("z", Box.from_shape((4, 3)), "int64", BufferInit.zeros())
    task = Task("div", Box.from_shape((4, 3)), [
        Accessor("a", AccessMode.READ), Accessor("z", AccessMode.WRITE),
    ], {"z": BinOp("/", Num(7), Read("a", (0, 0)))})
    for nodes in (1, 2):
        graph = TaskGraph({"a": a, "z": z})
        graph.submit(task)
        plan = generate_commands(graph, nodes)
        got = outcome(plan, reference=False)
        assert got == outcome(plan, reference=True)
        assert got == ("EvalError", "integer division by zero at id (1, 0) in task 'div'")


def test_nan_of_either_sign_is_stored_canonically():
    # inf - inf is the negative NaN on x86; JSON NaN is the positive one.
    z = Buffer("z", Box.from_shape((3,)), "float64", BufferInit.zeros())
    inf = BinOp("/", Num(1.0), Num(0.0))
    task = Task("nan", Box.from_shape((3,)), [Accessor("z", AccessMode.WRITE)],
                {"z": BinOp("-", inf, inf)})
    graph = TaskGraph({"z": z})
    graph.submit(task)
    plan = generate_commands(graph, 2)
    for reference in (False, True):
        (_dtype, raw), = outcome(plan, reference).values()
        assert np.frombuffer(raw, np.uint64).tolist() == [0x7FF8000000000000] * 3


# The NaN with the sign bit set, which _canonical must not write back into a
# gathered view.
NEGATIVE_NAN = float(np.uint64(0xFFF8000000000000).view(np.float64))


@st.composite
def gather_cases(draw):
    """A read over a 1-3-D extent of a box shifted by offsets, whose
    clamping per axis is none, low, high or both. The box may carry trailing
    kernel axes the buffer does not have."""
    dims = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(dims))
    mins, maxs, offsets = [], [], []
    for n in shape:
        clamp = draw(st.sampled_from(("none", "none", "low", "high", "both")))
        below = clamp in ("low", "both")
        above = clamp in ("high", "both")
        lo = draw(st.integers(-3, -1) if below else st.integers(0, n - 1))
        hi = draw(st.integers(n + 1, n + 3) if above else st.integers(lo + 1, n))
        off = draw(st.integers(-2, 2))
        mins.append(lo - off)
        maxs.append(hi - off)
        offsets.append(off)
    for _ in range(draw(st.integers(0, 3 - dims))):
        lo = draw(st.integers(0, 3))
        mins.append(lo)
        maxs.append(lo + draw(st.integers(1, 2)))
    integer = draw(st.booleans())
    edges = INT64_EDGES if integer else FLOAT_EDGES + (NEGATIVE_NAN,)
    values = draw(st.lists(st.sampled_from(edges), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return shape, tuple(mins), tuple(maxs), tuple(offsets), integer, values


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=gather_cases())
# an unclamped row of a 4x4 buffer, that row clamped at both edges of axis 1,
# and one clamped out of it
@example(case=((4, 4), (1, 0), (2, 4), (0, 0), False, [NEGATIVE_NAN] * 16))
@example(case=((4, 4), (1, -2), (2, 6), (0, 0), False, [NEGATIVE_NAN] * 16))
@example(case=((4, 4), (2, -2), (3, 6), (0, 0), True, list(range(16))))
def test_gather_matches_pointwise_reads(case):
    shape, mins, maxs, offsets, integer, values = case
    dtype = np.int64 if integer else np.float64
    data = np.array(values, dtype=dtype).reshape(shape)
    before = data.tobytes()
    view = ReadView(Box.from_shape(shape), data)

    axes = [range(lo, hi) for lo, hi in zip(mins, maxs)][:len(shape)]
    clamped = []
    for point in itertools.product(*axes):
        read = tuple(p + off for p, off in zip(point, offsets))
        clamped.append(data[tuple(min(max(c, 0), n - 1) for c, n in zip(read, shape))])
    want = np.array(clamped, dtype=dtype).reshape([len(a) for a in axes])
    got = view.gather(mins, maxs, offsets)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    # A bare read stored as a kernel result: the store lands a canonical copy
    # and leaves the gathered source as it was, though it may be a view.
    kernel_box = Box(mins, maxs)
    result = compile_kernel(Read("r", offsets), integer)(kernel_box, {"r": view}, {})
    out = np.zeros(kernel_box.shape, dtype=dtype)
    canonical = simulator._canonical(result, integer)
    assert not np.shares_memory(canonical, data)
    out[...] = canonical
    assert data.tobytes() == before
    trailing = (1,) * (len(mins) - len(shape))
    stored = np.broadcast_to(want.reshape(want.shape + trailing), kernel_box.shape).copy()
    if not integer:
        stored[np.isnan(stored)] = math.nan
    assert out.tobytes() == stored.tobytes()
    reference = compile_reference(Read("r", offsets), integer)(kernel_box, {"r": view}, {})
    assert np.array_equal(reference, stored, equal_nan=True)


# Offsets a read may carry that numpy cannot index with.
BEYOND_INT64 = (2 ** 63, -(2 ** 63) - 1, 2 ** 70, -(10 ** 20))


@st.composite
def shared_index_cases(draw):
    """An extent of 1-3 axes and two reads of it: a box that may pass either
    edge of each axis, offsets that may clamp or lie beyond int64, and rows
    that tile the box's axis-0 span in one to three members."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3))))
    reads = []
    for _ in range(2):
        mins = tuple(draw(st.integers(-3, n - 1)) for n in shape)
        maxs = tuple(draw(st.integers(lo + 1, n + 3)) for lo, n in zip(mins, shape))
        offsets = tuple(draw(st.one_of(st.integers(-3, 3), st.sampled_from(BEYOND_INT64)))
                        for _ in shape)
        cuts = draw(st.sets(st.integers(mins[0] + 1, maxs[0] - 1), max_size=2)) \
            if maxs[0] - mins[0] > 1 else ()
        bounds = [mins[0], *sorted(cuts), maxs[0]]
        reads.append((mins, maxs, offsets, tuple(zip(bounds, bounds[1:]))))
    return shape, reads


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=shared_index_cases())
# one box and rows, clamped at both edges of each axis, read at two offsets
@example(case=((4, 4), [((-2, -1), (6, 5), (0, 0), ((-2, 1), (1, 6))),
                        ((-2, -1), (6, 5), (2 ** 63, -(10 ** 20)), ((-2, 1), (1, 6)))]))
# one box and offsets, split into other rows
@example(case=((5,), [((0,), (5,), (1,), ((0, 2), (2, 5))), ((0,), (5,), (1,), ((0, 3), (3, 5)))]))
# one axis-0 span, rows and offsets, with other boxes along axis 1
@example(case=((3, 3), [((0, 0), (3, 1), (0, -1), ((0, 3),)),
                        ((0, 1), (3, 3), (0, -1), ((0, 3),))]))
def test_shared_gather_indexes_match_fresh_views_and_pointwise_reads(case):
    # Views of one extent share one dict of indexes, as the replay's do for
    # one buffer in a run; each read runs twice, over other arrays.
    shape, reads = case
    extent = Box.from_shape(shape)
    indexes = {}
    for version in range(2):
        for mins, maxs, offsets, rows in reads:
            arrays = [np.arange(math.prod(shape), dtype=np.float64).reshape(shape) * (k + 2)
                      + 1000 * version for k in range(len(rows))]
            view = ReadView(extent, arrays, rows, indexes)
            got = view.gather(mins, maxs, offsets)
            fresh = ReadView(extent, arrays, rows).gather(mins, maxs, offsets)
            want = np.array([PointView(view, point[0]).read(
                                 tuple(c + off for c, off in zip(point, offsets)))
                             for point in itertools.product(*map(range, mins, maxs))],
                            dtype=np.float64).reshape([hi - lo for lo, hi in zip(mins, maxs)])
            for array in (fresh, want):
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (array.dtype, array.shape, array.tobytes())
    assert 1 <= len(indexes) <= 2


def test_error_corpus_matches_reference():
    # Seeded workloads whose reads may clamp outside their fixed region and
    # whose int64 divisors may be zero, at 1-3 nodes. Submit rejects a task
    # with such a read, and the pointwise oracle finds one in the plan built
    # without the check; on the rest the oracle finds none, and the compiled
    # program names the same first failing id as the scalar oracle.
    kinds = {}
    for seed in range(400):
        rng = random.Random(seed)
        buffers, tasks = error_workload(rng)
        nodes = rng.randrange(1, 4)
        graph = TaskGraph(buffers)
        try:
            for task in tasks:
                graph.submit(task)
        except ValidationError as exc:
            assert "footprint violations" in str(exc), seed
            assert first_read_outside(unchecked_plan(buffers, tasks, nodes)), seed
            kind = "rejected"
        else:
            plan = generate_commands(graph, nodes)
            assert first_read_outside(plan) is None, seed
            got = outcome(plan, reference=False)
            assert got == outcome(plan, reference=True), seed
            kind = got[0] if isinstance(got, tuple) else "ok"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("rejected", 0) > 0 and kinds.get("EvalError", 0) > 0, kinds


def _read_task(xshape, krange, mapper, offsets):
    """Buffers x (iota) and z, and a task over range krange that writes z
    with the sum of reads of x through mapper at the given offsets."""
    body = Read("r", offsets[0])
    for off in offsets[1:]:
        body = BinOp("+", body, Read("r", off))
    buffers = {"x": Buffer("x", Box.from_shape(xshape), "float64", BufferInit.iota()),
               "z": Buffer("z", Box.from_shape(krange), "float64", BufferInit.zeros())}
    task = Task("t", Box.from_shape(krange), [
        Accessor("x", AccessMode.READ, mapper, name="r"), Accessor("z", AccessMode.WRITE),
    ], {"z": body})
    return buffers, task


@st.composite
def footprint_workloads(draw):
    """One task over a 1-3-D range that reads x through one of the five
    mappers at one or two offsets in [-8, 8]. Each axis of x is drawn apart
    from the range, so it may be shorter or longer; fixed and all may read an
    x with fewer axes than the kernel, and a fixed region has 1-2 boxes."""
    dims = draw(st.integers(1, 3))
    krange = tuple(draw(st.integers(1, 6)) for _ in range(dims))
    kind = draw(st.sampled_from(("one_to_one", "neighborhood", "slice", "fixed", "all")))
    xdims = draw(st.integers(1, dims)) if kind in ("fixed", "all") else dims
    xshape = tuple(draw(st.integers(1, 6)) for _ in range(xdims))
    if kind == "one_to_one":
        mapper = OneToOne()
    elif kind == "neighborhood":
        mapper = Neighborhood(tuple(draw(st.integers(0, 3)) for _ in range(dims)))
    elif kind == "slice":
        mapper = Slice(draw(st.integers(0, dims - 1)))
    elif kind == "fixed":
        boxes = []
        for _ in range(draw(st.integers(1, 2))):
            lows = [draw(st.integers(0, n - 1)) for n in xshape]
            highs = [draw(st.integers(lo + 1, n)) for lo, n in zip(lows, xshape)]
            boxes.append(Box(tuple(lows), tuple(highs)))
        mapper = Fixed(Region(xdims, boxes))
    else:
        mapper = All()
    offset = st.tuples(*(st.integers(-8, 8) for _ in range(xdims)))
    return _read_task(xshape, krange, mapper, draw(st.lists(offset, min_size=1, max_size=2)))


ELL = Region(2, [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(workload=footprint_workloads())
# rows beyond a shorter x, under one_to_one and slice(1): rejected
@example(workload=_read_task((4,), (10,), OneToOne(), [(0,)]))
@example(workload=_read_task((4, 4), (10, 4), Slice(1), [(0, 2)]))
# a read shifted wholly off the extent clamps onto a cell outside the region
@example(workload=_read_task((4,), (4,), Fixed(Region.from_box(Box((3,), (4,)))), [(-4,)]))
# the first and last rows read inside a fixed region, the middle rows in its hole
@example(workload=_read_task((4,), (4,), Fixed(Region(1, [Box((0,), (1,)), Box((3,), (4,))])),
                             [(0,)]))
# every clamped read lies within a radius of its id: accepted
@example(workload=_read_task((2,), (2,), Neighborhood((1,)), [(2,)]))
# rows that only the union of two boxes holds: accepted
@example(workload=_read_task((4, 4), (2, 4), Fixed(ELL), [(0, 0)]))
def test_footprint_check_is_exact_over_splits(workload):
    # Submit accepts a task iff no split along axis 0 makes a clamped read
    # leave its mapped region: an accepted task reads inside its regions at
    # 1-4 nodes and at one node per row, and runs to the serial result at
    # each; a rejected one reads outside at one node per row.
    buffers, task = workload
    rows = task.global_range.maxs[0]
    if static_footprint_check(task, buffers):
        with pytest.raises(ValidationError, match="footprint violations"):
            TaskGraph(buffers).submit(task)
        assert first_read_outside(unchecked_plan(buffers, [task], rows)) is not None
        return
    serial = None
    for nodes in sorted({1, 2, 3, 4, rows}):
        graph = TaskGraph(buffers)
        graph.submit(task)
        plan = generate_commands(graph, nodes)
        assert first_read_outside(plan) is None, nodes
        got = outcome(plan, reference=False)
        assert serial is None or got == serial, nodes
        serial = got


LEVELS = (0.5, 1.0, 1.5, 2.0)
# Equal levels, different speed and reference frequency: an equal chunk at an
# equal level takes a different time and draws a different P(f) on each.
REPLAY_DEVICES = (DeviceModel(LEVELS, f_ref_ghz=1.0, throughput_ref=1e9),
                  DeviceModel(LEVELS, f_ref_ghz=1.5, throughput_ref=3e8))
TARGETS = st.sampled_from((None,) + tuple(EnergyTarget))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(2, 4),
       link=st.builds(LinkModel, st.sampled_from((0.0, 1e-6, 0.3)),
                      st.sampled_from((1e9, 3.0, 7e5))),
       data=st.data())
def test_replay_times_and_energy_match_fresh_computation(seed, nodes, link, data):
    buffers, tasks = random_workload(random.Random(seed))
    graph = TaskGraph(buffers)
    # Each task twice, so that chunk boxes shared by tasks of one shape meet
    # other betas and frequencies.
    for task in tasks + tasks:
        beta = data.draw(st.sampled_from((0.0, 0.25, 0.5, 0.9)))
        graph.submit(Task(task.name, task.global_range, task.accessors, task.body,
                          task.params, beta, data.draw(TARGETS)))
    devices = [REPLAY_DEVICES[n % 2] for n in range(nodes)]
    plan = generate_commands(graph, nodes, devices=devices)
    assign_frequencies(plan, data.draw(TARGETS) or EnergyTarget.MAX_PERF)
    result = simulator.run(plan, link)
    assert simulator.schedule(plan, link) == (result.trace, result.makespan)
    assert [ev.command_id for ev in result.trace] == list(range(len(plan.commands)))

    busy = [Fraction(0)] * nodes
    kernel = [Fraction(0)] * nodes
    finish = []  # id -> its finish, from a fresh start and the checked duration
    lane = [Fraction(0)] * nodes  # node -> the finish of its latest Execute so far
    for ev in result.trace:
        cmd = plan.commands[ev.command_id]
        start = max([finish[d] for d in cmd.deps], default=Fraction(0))
        if ev.kind == "execute":
            device = devices[ev.node]
            t_ref = Fraction(cmd.box.volume()) / Fraction(device.throughput_ref)
            beta = graph.task(cmd.task_id).beta
            assert ev.duration == chunk_time(t_ref, beta, device, ev.frequency_ghz)
            busy[ev.node] += ev.duration
            kernel[ev.node] += level_oracle(device, ev.frequency_ghz)[0] * ev.duration
            start = max(start, lane[ev.node])
            lane[ev.node] = start + ev.duration
        elif ev.kind == "push":
            assert ev.duration == link.transfer_time(ev.bytes)
        else:
            assert ev.duration == 0
        finish.append(start + ev.duration)
        assert (ev.start, ev.finish) == (start, finish[-1])
    assert result.makespan == max(finish, default=0)

    report = account_energy(result.trace, devices, result.makespan)
    for node, device in enumerate(devices):
        idle = Fraction(device.p_static_w) * (result.makespan - busy[node])
        assert report.per_device[node].energy_j == kernel[node] + idle


def _ancestors(plan):
    """Every command's transitive dependencies as a bitset over command ids.
    The commands are visited in dependency order, found afresh rather than
    read from the ids, so that this oracle does not rest on the plan's
    numbering."""
    deps = {c.id: c.deps for c in plan.commands}
    reach = {}
    while len(reach) < len(deps):
        ready = [cid for cid, cdeps in deps.items()
                 if cid not in reach and all(d in reach for d in cdeps)]
        assert ready, "the command graph has a cycle"
        for cid in ready:
            bits = 0
            for d in deps[cid]:
                bits |= (1 << d) | reach[d]
            reach[cid] = bits
    return reach


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 5))
def test_reduced_dependencies_match_full_dependencies(seed, nodes):
    buffers, tasks = random_workload(random.Random(seed))
    graph = TaskGraph(buffers)
    for task in tasks:
        graph.submit(task)
    reduced = generate_commands(graph, nodes)
    with mock.patch.object(graph, "reduced_predecessors", partial(predecessors, graph)):
        full = generate_commands(graph, nodes)
    assert [c.id for c in reduced.commands] == [c.id for c in full.commands]
    assert all(set(r.deps) <= set(f.deps) for r, f in zip(reduced.commands, full.commands))
    assert _ancestors(reduced) == _ancestors(full)

    got, want = simulator.run(reduced), simulator.run(full)
    assert got.trace == want.trace
    assert got.makespan == want.makespan
    assert {name: (arr.dtype.str, arr.tobytes()) for name, arr in got.buffers.items()} == \
        {name: (arr.dtype.str, arr.tobytes()) for name, arr in want.buffers.items()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 5), repeats=st.integers(1, 2))
def test_region_map_matches_full_scan(seed, nodes, repeats):
    buffers, tasks = random_workload(random.Random(seed))
    tasks = [copy.copy(t) for t in tasks * repeats]
    graph = TaskGraph(buffers)
    for task in tasks:
        graph.submit(task)
    pushes, after_task = full_scan_table(graph, nodes)

    tables = []

    class Recorded(scheduler.RegionMapTable):
        def __init__(self, bufs):
            super().__init__(bufs)
            tables.append(self)

    # Each prefix of the queue leaves the table as it stands after its last task.
    for count in range(1, len(tasks) + 1):
        prefix = TaskGraph(buffers)
        for task in tasks[:count]:
            prefix.submit(copy.copy(task))
        with mock.patch.object(scheduler, "RegionMapTable", Recorded):
            plan = generate_commands(prefix, nodes)
        got = {name: [(r.boxes, v, h) for r, v, h in entries]
               for name, entries in tables[-1].entries.items()}
        assert got == after_task[count - 1]
        assert {name: [(r.boxes, v, h) for r, v, h in entries]
                for name, entries in plan.final_locations.items()} == \
            {name: [(boxes, v, frozenset(h)) for boxes, v, h in entries]
             for name, entries in after_task[count - 1].items()}
    assert [(p.id, p.deps, p.src, p.dst, p.buffer, p.region.boxes, p.version)
            for p in push_commands(plan)] == pushes


def planned(plan_of, graph, nodes):
    """Every command's fields, the command DOT and the final region map with
    exact boxes, or the uninitialized read's text."""
    try:
        plan = plan_of(graph, nodes)
    except UninitializedReadError as exc:
        return str(exc), None
    commands = [(type(c).__name__, c.id, c.deps) +
                tuple(c.push.id if f == "push" else getattr(c, f) for f in c._fields[2:])
                for c in plan.commands]
    return (commands, export_command_graph(plan),
            {name: [(r.boxes, v, h) for r, v, h in entries]
             for name, entries in plan.final_locations.items()}), plan


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 5), repeats=st.integers(2, 4),
       shuffled=st.booleans())
def test_templates_match_direct_planning(seed, nodes, repeats, shuffled):
    # The queue repeats the workload's tasks as a block, or after the first
    # block in a random order, which meets layouts in other sequences.
    rng = random.Random(seed)
    buffers, tasks = random_workload(rng)
    queue = tasks + (rng.choices(tasks, k=len(tasks) * (repeats - 1)) if shuffled
                     else tasks * (repeats - 1))
    graph = TaskGraph(buffers)
    for task in queue:
        graph.submit(copy.copy(task))
    (got, plan), (want, direct) = planned(generate_commands, graph, nodes), \
        planned(direct_plan, graph, nodes)
    assert got == want
    if plan is not None:
        got_run, want_run = simulator.run(plan), simulator.run(direct)
        assert got_run.trace == want_run.trace and got_run.makespan == want_run.makespan
        assert {n: (a.dtype.str, a.tobytes()) for n, a in got_run.buffers.items()} == \
            {n: (a.dtype.str, a.tobytes()) for n, a in want_run.buffers.items()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 5), repeats=st.integers(1, 2))
def test_plans_are_numbered_in_replay_order(seed, nodes, repeats):
    # Kahn's algorithm, lowest id first, visits every plan in id order: a
    # task's transfers come before its Executes, so an in-place Execute's
    # Pushes out of its node have lower ids too. The queue ends in three
    # in-place relax sweeps of one buffer: from the second on, each node
    # pushes a halo row it then overwrites, and the third is planned from
    # the second's template.
    rng = random.Random(seed)
    buffers, tasks = random_workload(rng)
    name = rng.choice(sorted(buffers))
    extent = buffers[name].extent
    offset = [(k,) + (0,) * (extent.dims - 1) for k in (-1, 1)]
    relax = Task("relax", extent, [
        Accessor(name, AccessMode.READ, Neighborhood(offset[1]), name="r"),
        Accessor(name, AccessMode.WRITE, name="w"),
    ], {"w": BinOp("+", Read("r", offset[0]), Read("r", offset[1]))})
    graph = TaskGraph(buffers)
    for task in (tasks + [relax] * 3) * repeats:
        graph.submit(copy.copy(task))
    for plan in (generate_commands(graph, nodes), direct_plan(graph, nodes)):
        assert [c.id for c in replay_order(plan)] == list(range(len(plan.commands)))
        check_plan(plan, graph.buffers)
        hazards = [c for c in plan.executes()
                   if any(isinstance(plan.commands[d], PushCommand) for d in c.deps)]
        if min(extent.maxs[0] - extent.mins[0], nodes) > 1:
            assert hazards


def replayed(replay, plan):
    """Final buffers as (dtype, bytes), or the evaluation error's type and text."""
    try:
        final = replay(plan)
    except EvalError as exc:
        return type(exc).__name__, str(exc)
    return {name: (arr.dtype.str, arr.tobytes())
            for name, arr in getattr(final, "buffers", final).items()}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 5), errors=st.booleans())
# error workloads whose batches of 2-5 members divide by zero
@example(seed=7, nodes=3, errors=True)
@example(seed=28, nodes=5, errors=True)
def test_batched_replay_matches_per_command_replay(seed, nodes, errors):
    # run evaluates each batch in one kernel call per write accessor; the
    # reference calls the kernel per write box of each Execute as it comes.
    buffers, tasks = (error_workload if errors else random_workload)(random.Random(seed))
    graph = TaskGraph(buffers)
    try:
        for task in tasks:
            graph.submit(task)
    except ValidationError as exc:  # a read error_workload shifts off its fixed region
        assert "footprint violations" in str(exc)
        return
    plan = generate_commands(graph, nodes)
    assert replayed(simulator.run, plan) == replayed(reference_run, plan)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 5), repeats=st.integers(1, 2))
def test_pending_splits_match_eager_splits(seed, nodes, repeats):
    buffers, tasks = random_workload(random.Random(seed))
    graph = TaskGraph(buffers)
    for task in [copy.copy(t) for t in tasks * repeats]:
        graph.submit(task)
    pending, eager = generate_commands(graph, nodes), eager_split_plan(graph, nodes)
    assert export_command_graph(pending) == export_command_graph(eager)
    assert {name: [(r.boxes, v, h) for r, v, h in entries]
            for name, entries in pending.final_locations.items()} == \
        {name: [(r.boxes, v, h) for r, v, h in entries]
         for name, entries in eager.final_locations.items()}


def written(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        write(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


LABELS = st.one_of(
    st.sampled_from(("", '"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2192 \U0001d11e", ", ",
                     'T1 "a, b" \\n')),
    st.text(max_size=12),
)
TIMES = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(10 ** 300, 7),
                     Fraction(10 ** 400 + 1, 10 ** 395))),
    st.builds(Fraction, st.integers(0, 10 ** 30), st.integers(1, 10 ** 12)),
)
TRACE_EVENTS = st.builds(
    TraceEvent,
    kind=st.sampled_from(("execute", "push", "await_push")),
    node=st.integers(0, 2 ** 16),
    command_id=st.integers(0, 10 ** 6),
    start=TIMES,
    duration=TIMES,
    bytes=st.one_of(st.just(0), st.integers(0, 2 ** 40)),
    frequency_ghz=st.one_of(st.none(), st.floats(), st.sampled_from(
        (0.5, 2.0, 1e-300, -0.0, math.nan, math.inf, -math.inf))),
    label=LABELS,
)


@settings(max_examples=74, deadline=None, derandomize=True, database=None)
@given(trace=st.lists(TRACE_EVENTS, max_size=4))
@example(trace=[])
def test_trace_writer_matches_json_dump(trace):
    want = json_dump_text({"traceEvents": trace_to_chrome(trace)})
    assert written(write_trace, trace) == want.encode("ascii")


FLOAT64_VALUES = st.one_of(st.sampled_from(FLOAT_EDGES + (5e-324, 1.7e308, -1.7e308)),
                           st.floats())
INT64_VALUES = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-(2 ** 63), 2 ** 63 - 1))


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       integer=st.booleans(), name=LABELS.filter(bool), data=st.data())
def test_buffer_writer_matches_json_dump(shape, integer, name, data):
    volume = math.prod(shape)
    values = data.draw(st.lists(INT64_VALUES if integer else FLOAT64_VALUES,
                                min_size=volume, max_size=volume))
    arr = np.array(values, dtype=np.int64 if integer else np.float64).reshape(shape)
    buf = Buffer(name, Box.from_shape(tuple(shape)), "int64" if integer else "float64")
    want = json_dump_text(buffer_dump(buf, arr))
    assert written(write_buffer, buf, arr) == want.encode("ascii")
