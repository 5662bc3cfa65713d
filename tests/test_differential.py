"""Fast paths against their slow references: the compiled box evaluator
against the scalar oracle in helpers, through the simulator (bit-identical
buffers and identical error messages), ReadView's gathers against the
oracle's pointwise reads,
the replay's durations and energy against a fresh computation per event,
Execute dependencies on the transitively reduced task predecessors against
dependencies on all of them, and the trace.json and buf_<name>.json writers
against json.dump of their dict forms."""

import contextlib
import itertools
import math
import os
import random
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clusterq import simulator
from clusterq.energy import DeviceModel, EnergyTarget, account_energy, exec_time
from clusterq.errors import EvalError, MapperViolationError
from clusterq.graph import TaskGraph
from clusterq.kernel import BinOp, IdComponent, Neg, Num, Param, Read, compile_kernel, postorder
from clusterq.model import Accessor, AccessMode, Buffer, BufferInit, Fixed, ReadView, Task
from clusterq.region import Box, Region
from clusterq.scenario import write_buffer, write_trace
from clusterq.scheduler import assign_frequencies, generate_commands
from clusterq.simulator import LinkModel, TraceEvent

from helpers import (
    PointView,
    buffer_dump,
    compile_reference,
    error_workload,
    json_dump_text,
    random_workload,
    trace_to_chrome,
)

INT64_EDGES = (-(2 ** 63), -(2 ** 62), -7, -1, 0, 1, 3, 2 ** 62, 2 ** 63 - 1)
FLOAT_EDGES = (math.inf, -math.inf, math.nan, 0.0, -0.0, -2.0, 1.5, 1e308)


def outcome(plan, reference):
    """Final buffers as (dtype, bytes), or the evaluation error's type and text."""
    patch = mock.patch.object(simulator, "compile_kernel", compile_reference)
    with patch if reference else contextlib.nullcontext():
        try:
            result = simulator.run(plan)
        except (EvalError, MapperViolationError) as exc:
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


def test_mapper_violation_message_is_the_reference_one():
    # The static footprint check passes (no shifted id lands in the extent),
    # but every read clamps to cell 0, outside the fixed region.
    x = Buffer("x", Box.from_shape((8,)), "float64", BufferInit.iota())
    z = Buffer("z", Box.from_shape((8,)), "float64", BufferInit.zeros())
    task = Task("t", Box.from_shape((2,)), [
        Accessor("x", AccessMode.READ, Fixed(Region.from_box(Box((5,), (6,)))), name="r"),
        Accessor("z", AccessMode.WRITE),
    ], {"z": BinOp("+", IdComponent(0), Read("r", (-5,)))})
    graph = TaskGraph({"x": x, "z": z})
    graph.submit(task)
    plan = generate_commands(graph, 2)
    got = outcome(plan, reference=False)
    assert got == outcome(plan, reference=True)
    assert got == ("MapperViolationError",
                   "accessor 'r' read (-5,) in task 't' outside mapped region {[5,6)} "
                   "of buffer 'x'")


def test_gather_across_boxes_of_a_fixed_region():
    # An L-shaped fixed region of two boxes; each chunk reads [k,k+1)x[0,4),
    # which neither box holds alone but their union does.
    x = Buffer("x", Box.from_shape((4, 4)), "float64", BufferInit.iota())
    z = Buffer("z", Box.from_shape((2, 4)), "float64", BufferInit.zeros())
    ell = Region(2, [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))])
    task = Task("ell", Box.from_shape((2, 4)), [
        Accessor("x", AccessMode.READ, Fixed(ell), name="r"),
        Accessor("z", AccessMode.WRITE),
    ], {"z": BinOp("*", Read("r", (0, 0)), Num(0.5))})
    for nodes in (1, 2):
        graph = TaskGraph({"x": x, "z": z})
        graph.submit(task)
        plan = generate_commands(graph, nodes)
        with mock.patch.object(ReadView, "gather_masked",
                               side_effect=AssertionError("gather_masked")):
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
        assert got == ("EvalError", "integer division by zero at id (1, 0)")


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


# The NaN with the sign bit set, which _store must not write back into a
# gathered view.
NEGATIVE_NAN = float(np.uint64(0xFFF8000000000000).view(np.float64))


@st.composite
def gather_cases(draw):
    """A read view over a 1-3-D extent with a region of 1-4 boxes, and a
    shifted read box whose clamping per axis is none, low, high or both.
    Half the regions also hold the clamped points the box reads, as pieces
    left over once the earlier boxes are taken out. The box may carry
    trailing kernel axes the buffer does not have."""
    dims = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(dims))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        lows = [draw(st.integers(0, n - 1)) for n in shape]
        highs = [draw(st.integers(lo + 1, n)) for lo, n in zip(lows, shape)]
        boxes.append(Box(tuple(lows), tuple(highs)))
    mins, maxs, offsets, hit_lows, hit_highs = [], [], [], [], []
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
        hit_lows.append(min(max(lo, 0), n - 1))
        hit_highs.append(min(max(hi - 1, 0), n - 1) + 1)
    if draw(st.booleans()):
        boxes.append(Box(tuple(hit_lows), tuple(hit_highs)))
    for _ in range(draw(st.integers(0, 3 - dims))):
        lo = draw(st.integers(0, 3))
        mins.append(lo)
        maxs.append(lo + draw(st.integers(1, 2)))
    integer = draw(st.booleans())
    edges = INT64_EDGES if integer else FLOAT_EDGES + (NEGATIVE_NAN,)
    values = draw(st.lists(st.sampled_from(edges), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return shape, boxes, tuple(mins), tuple(maxs), tuple(offsets), integer, values


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=gather_cases())
# a row that neither box of an L-shaped region holds alone, unclamped
@example(case=((4, 4), [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))],
               (1, 0), (2, 4), (0, 0), False, [NEGATIVE_NAN] * 16))
# the same row clamped at both edges of axis 1, and one clamped out of it
@example(case=((4, 4), [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))],
               (1, -2), (2, 6), (0, 0), False, [NEGATIVE_NAN] * 16))
@example(case=((4, 4), [Box((0, 0), (4, 2)), Box((0, 2), (2, 4))],
               (2, -2), (3, 6), (0, 0), True, list(range(16))))
def test_gather_matches_pointwise_reads(case):
    shape, boxes, mins, maxs, offsets, integer, values = case
    dtype = np.int64 if integer else np.float64
    data = np.array(values, dtype=dtype).reshape(shape)
    before = data.tobytes()
    view = ReadView("r", "x", Region(len(shape), boxes), Box.from_shape(shape), data)

    axes = [range(lo, hi) for lo, hi in zip(mins, maxs)][:len(shape)]
    clamped, outside = [], []
    for point in itertools.product(*axes):
        read = tuple(p + off for p, off in zip(point, offsets))
        clamped.append(data[tuple(min(max(c, 0), n - 1) for c, n in zip(read, shape))])
        try:
            PointView(view).read(read)
        except MapperViolationError:
            outside.append(True)
        else:
            outside.append(False)
    want = np.array(clamped, dtype=dtype).reshape([len(a) for a in axes])
    want_outside = np.array(outside).reshape(want.shape)

    got, got_outside = view.gather_masked(mins, maxs, offsets)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert (got_outside.dtype, got_outside.shape) == (np.dtype(bool), want.shape)
    assert (got_outside == want_outside).all()

    kernel_box = Box(mins, maxs)
    evaluate = compile_kernel(Read("r", offsets), integer)
    if want_outside.any():
        assert view.gather(mins, maxs, offsets) is None
        with pytest.raises(MapperViolationError) as got_error:
            evaluate(kernel_box, {"r": view}, {})
        with pytest.raises(MapperViolationError) as want_error:
            compile_reference(Read("r", offsets), integer)(kernel_box, {"r": view}, {})
        assert str(got_error.value) == str(want_error.value)
        return
    got = view.gather(mins, maxs, offsets)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    # A bare read stored as a kernel result: the store lands a canonical copy
    # and leaves the gathered source as it was, though it may be a view.
    result = evaluate(kernel_box, {"r": view}, {})
    out = np.zeros(kernel_box.shape, dtype=dtype)
    simulator._store(out, Box.from_shape(kernel_box.shape), result, integer)
    assert data.tobytes() == before
    trailing = (1,) * (len(mins) - len(shape))
    stored = np.broadcast_to(want.reshape(want.shape + trailing), kernel_box.shape).copy()
    if not integer:
        stored[np.isnan(stored)] = math.nan
    assert out.tobytes() == stored.tobytes()


def test_error_corpus_matches_reference():
    # Seeded workloads whose reads clamp outside their fixed region and whose
    # int64 divisors may be zero, at 1-3 nodes: the compiled program names
    # the same first failing id and operation as the scalar oracle.
    kinds = {}
    for seed in range(400):
        rng = random.Random(seed)
        buffers, tasks = error_workload(rng)
        graph = TaskGraph(buffers)
        for task in tasks:
            graph.submit(task)
        plan = generate_commands(graph, rng.randrange(1, 4))
        got = outcome(plan, reference=False)
        assert got == outcome(plan, reference=True), seed
        kind = got[0] if isinstance(got, tuple) else "ok"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("MapperViolationError", 0) > 0 and kinds.get("EvalError", 0) > 0, kinds


def _violation_and_division(zero_at, violation_first):
    """A 3x4 int64 task whose read f[i.0-3, i.1+1] clamps to (0, min(i.1+1, 3))
    and leaves the fixed region {(0,1), (0,2)} at ids with i.1 >= 2, and whose
    divisor d[i] is zero only at zero_at; violation_first puts the read
    before the division in evaluation order."""
    values = [1] * 12
    values[zero_at[0] * 4 + zero_at[1]] = 0
    x = Buffer("x", Box.from_shape((3, 4)), "int64", BufferInit.explicit(values))
    z = Buffer("z", Box.from_shape((3, 4)), "int64", BufferInit.zeros())
    read, div = Read("f", (-3, 1)), BinOp("/", Num(7), Read("d", (0, 0)))
    body = BinOp("+", read, div) if violation_first else BinOp("+", div, read)
    task = Task("t", Box.from_shape((3, 4)), [
        Accessor("x", AccessMode.READ, Fixed(Region.from_box(Box((0, 1), (1, 3)))), name="f"),
        Accessor("x", AccessMode.READ, name="d"),
        Accessor("z", AccessMode.WRITE),
    ], {"z": body})
    graph = TaskGraph({"x": x, "z": z})
    graph.submit(task)
    return graph


def test_violation_and_zero_divisor_name_the_first_failing_id():
    violation = ("MapperViolationError", "accessor 'f' read {} in task 't' outside mapped "
                 "region {{[0,1)x[1,3)}} of buffer 'x'")
    division = ("EvalError", "integer division by zero at id {}")
    cases = [
        # the division fails first in row-major order, the read first in the body
        ((0, 1), True, 1, division, "(0, 1)"),
        # the read fails first in row-major order, the division first in the body
        ((1, 0), False, 1, violation, "(-3, 3)"),
        # both fail first at id (0, 2): the body order decides
        ((0, 2), True, 1, violation, "(-3, 3)"),
        ((0, 2), False, 1, division, "(0, 2)"),
        # at 3 nodes each row is a chunk; the first chunk in replay order fails
        ((1, 0), False, 3, violation, "(-3, 3)"),
        ((0, 1), True, 3, division, "(0, 1)"),
    ]
    for zero_at, violation_first, nodes, (kind, text), where in cases:
        plan = generate_commands(_violation_and_division(zero_at, violation_first), nodes)
        got = outcome(plan, reference=False)
        assert got == outcome(plan, reference=True)
        assert got == (kind, text.format(where)), (zero_at, violation_first, nodes)


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
    for task in tasks:
        beta = data.draw(st.sampled_from((0.0, 0.25, 0.5, 0.9)))
        graph.submit(Task(task.name, task.global_range, task.accessors, task.body,
                          task.params, beta, data.draw(TARGETS)))
    devices = [REPLAY_DEVICES[n % 2] for n in range(nodes)]
    plan = generate_commands(graph, nodes, devices=devices)
    assign_frequencies(plan, data.draw(TARGETS) or EnergyTarget.MAX_PERF)
    result = simulator.run(plan, link)

    by_id = {c.id: c for c in plan.commands}
    busy = [Fraction(0)] * nodes
    kernel = [Fraction(0)] * nodes
    for ev in result.trace:
        cmd = by_id[ev.command_id]
        if ev.kind == "execute":
            device = devices[ev.node]
            t_ref = Fraction(cmd.chunk.box.volume()) / Fraction(device.throughput_ref)
            beta = graph.task(cmd.task_id).beta
            assert ev.duration == exec_time(t_ref, beta, device.f_ref_ghz, ev.frequency_ghz)
            busy[ev.node] += ev.duration
            kernel[ev.node] += device._power_exact(ev.frequency_ghz) * ev.duration
        elif ev.kind == "push":
            assert ev.duration == link.transfer_time(ev.bytes)
        else:
            assert ev.duration == 0
    assert result.makespan == max((ev.finish for ev in result.trace), default=0)

    report = account_energy(result.trace, devices, result.makespan)
    for node, device in enumerate(devices):
        idle = Fraction(device.p_static_w) * (result.makespan - busy[node])
        assert report.per_device[node].energy_j == kernel[node] + idle


def _ancestors(plan):
    """Every command's transitive dependencies as a bitset over command ids.
    An Execute may wait on a Push of its own task with a higher id, so the
    commands are visited in dependency order rather than by id."""
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
    for task in graph.tasks:
        scanned = sorted({e.src for e in graph.edges if e.dst == task.id})
        assert graph.predecessors(task.id) == scanned
    reduced = generate_commands(graph, nodes)
    with mock.patch.object(graph, "reduced_predecessors", graph.predecessors):
        full = generate_commands(graph, nodes)
    assert [c.id for c in reduced.commands] == [c.id for c in full.commands]
    assert all(set(r.deps) <= set(f.deps) for r, f in zip(reduced.commands, full.commands))
    assert _ancestors(reduced) == _ancestors(full)

    got, want = simulator.run(reduced), simulator.run(full)
    assert got.trace == want.trace
    assert got.makespan == want.makespan
    assert {name: (arr.dtype.str, arr.tobytes()) for name, arr in got.buffers.items()} == \
        {name: (arr.dtype.str, arr.tobytes()) for name, arr in want.buffers.items()}


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
