"""Discrete-event replay: timing, data movement, and final buffer contents."""

import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import clusterq
from clusterq import graph as graph_module
from clusterq import simulator
from clusterq.energy import DeviceModel
from clusterq.errors import EvalError, ValidationError
from clusterq.graph import TaskGraph
from clusterq.kernel import compile_kernel, parse_kernel
from clusterq.model import (
    Accessor,
    AccessMode,
    All,
    Buffer,
    BufferInit,
    Neighborhood,
    Task,
)
from clusterq.region import Box, Region
from clusterq.scheduler import AwaitPushCommand, ExecuteCommand, PushCommand, generate_commands
from clusterq.simulator import LinkModel, run

from helpers import random_workload, reference_run, trace_to_chrome


# unit-rate device: one element per second at 1 GHz, single level, so an
# execute's duration equals its chunk volume in seconds
UNIT = DeviceModel(levels_ghz=(1.0,), f_ref_ghz=1.0, throughput_ref=1.0)
# exact link: 1 s latency, 8 bytes/s, so a 32-byte push takes 5 s
SLOW_LINK = LinkModel(latency_s=1.0, bandwidth_bytes_per_s=8.0)


def fbuf(name, n=8, init=None):
    return Buffer(name, Box.from_shape((n,)), "float64", init or BufferInit.iota())


def make_task(name, src, reads=(), writes=("z",), n=8, params=None,
              mappers=None, beta=0.0):
    accs = []
    arity = {}
    for r in reads:
        mapper = (mappers or {}).get(r)
        if mapper is None:
            accs.append(Accessor(r, AccessMode.READ, name=f"r_{r}"))
        else:
            accs.append(Accessor(r, AccessMode.READ, mapper, name=f"r_{r}"))
        arity[f"r_{r}"] = 1
    for w in writes:
        accs.append(Accessor(w, AccessMode.WRITE))
    rng = Box.from_shape((n,))
    params = params or {}
    body = {w: parse_kernel(src, arity, set(params), 1) for w in writes}
    return Task(name=name, global_range=rng, accessors=accs, body=body,
                params=params, beta=beta)


def plan_for(buffers, tasks, nodes, **kw):
    g = TaskGraph(buffers)
    for t in tasks:
        g.submit(t)
    kw.setdefault("devices", UNIT)
    return generate_commands(g, nodes, **kw)


# ----------------------------------------------------------------- correctness

def test_saxpy_matches_numpy_on_every_node_count():
    oracle = 2.0 * np.arange(8.0) + np.arange(8.0)
    for nodes in (1, 2, 3):
        t = make_task("saxpy", "p * r_x[i] + r_y[i]", reads=("x", "y"),
                      params={"p": 2.0})
        plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")},
                        [t], nodes)
        res = run(plan, link=SLOW_LINK)
        assert res.buffers["z"].dtype == np.float64
        assert np.array_equal(res.buffers["z"], oracle)


def test_in_place_stencil_distributed_matches_serial():
    """Boundary payloads must be captured before the in-place overwrite."""
    def build(nodes):
        nb = Neighborhood((1,))
        tasks = [make_task(f"relax{i}", "r_a[i-1] + r_a[i] + r_a[i+1]",
                           reads=("a",), writes=("a",), n=16,
                           mappers={"a": nb})
                 for i in range(3)]
        plan = plan_for({"a": fbuf("a", 16)}, tasks, nodes)
        return run(plan).buffers["a"]

    serial = build(1)
    # independent oracle: clamped-index relaxation, three sweeps
    a = np.arange(16.0)
    for _ in range(3):
        left = a[np.clip(np.arange(16) - 1, 0, 15)]
        right = a[np.clip(np.arange(16) + 1, 0, 15)]
        a = left + a + right
    assert np.array_equal(serial, a)
    for nodes in (2, 3, 4):
        assert np.array_equal(build(nodes), serial), f"nodes={nodes}"


def test_random_workloads_node_count_invariant():
    rng = random.Random(47)
    for _ in range(10):
        buffers, tasks = random_workload(rng)
        base = None
        for nodes in (1, 3):
            g = TaskGraph(buffers)
            for t in tasks:
                g.submit(t)
            res = run(generate_commands(g, nodes))
            got = {n: arr.copy() for n, arr in res.buffers.items()}
            if base is None:
                base = got
            else:
                for n in base:
                    assert base[n].dtype == got[n].dtype
                    assert np.array_equal(base[n], got[n], equal_nan=True), n


def test_two_reads_of_a_rewritten_buffer_share_one_snapshot():
    """A task that rewrites its buffer in place through two read accessors
    reads pre-task data through both, from one array per Execute (the
    batch's stores come after its kernel calls), in one kernel call per
    batch. Each task's transfers come before its Executes, so at every node
    count each task is one batch and one kernel call."""
    nb = Neighborhood((1,))
    body = parse_kernel("lo[i-1] * 2.0 + hi[i+1]", {"lo": 1, "hi": 1}, set(), 1)
    tasks = [Task(f"shift{k}", Box.from_shape((16,)), [
        Accessor("a", AccessMode.READ, nb, name="lo"),
        Accessor("a", AccessMode.READ, nb, name="hi"),
        Accessor("a", AccessMode.WRITE),
    ], {"a": body}) for k in range(2)]
    a = np.arange(16.0)
    for _ in range(2):
        a = a[np.clip(np.arange(16) - 1, 0, 15)] * 2.0 + a[np.clip(np.arange(16) + 1, 0, 15)]

    for nodes in (1, 2, 3):
        seen = []  # the views of each kernel call

        def recording(expr, integer):
            evaluate = compile_kernel(expr, integer)
            return lambda box, views, params: seen.append(views) or evaluate(box, views, params)

        plan = plan_for({"a": fbuf("a", 16)}, tasks, nodes)
        with mock.patch.object(simulator, "compile_kernel", recording):
            res = run(plan)
        assert res.buffers["a"].tobytes() == a.tobytes(), f"nodes={nodes}"
        assert len(seen) == {1: 2, 2: 2, 3: 2}[nodes]
        for views in seen:
            assert sorted(views) == ["hi", "lo"]
            for lo, hi in zip(views["lo"].arrays, views["hi"].arrays, strict=True):
                assert lo is hi


# ------------------------------------------------------------- batch edges

def batch_outcome(plan):
    """run's final buffers, the box of each of its kernel calls, and whether
    the per-command reference replay gives the same bytes."""
    calls = []

    def counting(expr, integer):
        evaluate = compile_kernel(expr, integer)
        return lambda box, views, params: calls.append(box) or evaluate(box, views, params)

    with mock.patch.object(simulator, "compile_kernel", counting):
        got = run(plan).buffers
    want = reference_run(plan)
    same = {n: a.tobytes() for n, a in got.items()} == {n: a.tobytes() for n, a in want.items()}
    return got, calls, same


def body(text, reads, dims):
    return parse_kernel(text, {name: dims for name in reads}, set(), dims)


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
def test_in_place_task_batches_match_reference(nodes):
    bufs = {"a": Buffer("a", Box.from_shape((7, 3)), "float64", BufferInit.iota())}
    task = Task("smooth", Box.from_shape((7, 3)), [
        Accessor("a", AccessMode.READ, Neighborhood((1, 1)), name="r"),
        Accessor("a", AccessMode.WRITE),
    ], {"a": body("r[i.0-1, i.1] + r[i.0+1, i.1+1] * 0.5", ["r"], 2)})
    assert batch_outcome(plan_for(bufs, [task, task], nodes))[2]


@pytest.mark.parametrize("nodes", [2, 3, 4])
def test_execute_writing_other_than_its_box_is_rejected(nodes):
    # The range exceeds z along axis 0 and axis 1, which submit rejects, so
    # this plan is built with validation off: each chunk's write region is
    # its box clamped to z, and run rejects the first such Execute before
    # any data moves. It follows the task's Push/AwaitPush pair per other node.
    bufs = {"x": Buffer("x", Box.from_shape((8, 5)), "float64", BufferInit.iota()),
            "z": Buffer("z", Box.from_shape((6, 3)), "float64", BufferInit.zeros())}
    task = Task("wide", Box.from_shape((8, 5)), [
        Accessor("x", AccessMode.READ), Accessor("z", AccessMode.WRITE),
    ], {"z": body("x[i.0, i.1] * 2.0 + i.0", ["x"], 2)})
    with mock.patch.object(graph_module, "validate_task"):
        plan = plan_for(bufs, [task], nodes)
    rows = {2: 4, 3: 3, 4: 2}[nodes]
    with mock.patch.object(simulator, "_Storage") as storage, \
            pytest.raises(ValidationError, match=re.escape(
                f"Execute {2 * (nodes - 1)} writes {{[0,{rows})x[0,3)}} of buffer 'z', "
                f"not its box [0,{rows})x[0,5)")):
        run(plan)
    storage.assert_not_called()


def test_ping_pong_chain_replays_in_one_kernel_call_per_task():
    # The bench chain shape: 30 radius-1 ping-pong tasks over 64 cells on 8
    # nodes. Each task's 8 Executes continue one another, so they form one
    # batch: a join rule that splits batches makes more calls.
    a = np.random.default_rng(1).random(64)
    bufs = {"a": Buffer("a", Box.from_shape((64,)), "float64", BufferInit.explicit(a.tolist())),
            "b": fbuf("b", 64, BufferInit.zeros())}
    tasks = [make_task(f"step{k}", f"w * (r_{src}[i-1] + r_{src}[i] + r_{src}[i+1])",
                       reads=(src,), writes=(dst,), n=64, params={"w": 1.0 / 3.0},
                       mappers={src: Neighborhood((1,))})
             for k, (src, dst) in enumerate([("a", "b"), ("b", "a")] * 15)]
    plan = plan_for(bufs, tasks, 8)
    assert sum(isinstance(c, ExecuteCommand) for c in plan.commands) == 240
    _got, calls, same = batch_outcome(plan)
    assert same and calls == [Box.from_shape((64,))] * 30


def stencil2d_queue():
    """The bench stencil2d shape: 4 five-point Jacobi sweeps ping-ponging
    over 40x40 cells on 4 nodes."""
    a = np.random.default_rng(1).random(1600)
    bufs = {"a": Buffer("a", Box.from_shape((40, 40)), "float64",
                        BufferInit.explicit(a.tolist())),
            "b": Buffer("b", Box.from_shape((40, 40)), "float64", BufferInit.zeros())}
    text = "0.2 * (r[i.0-1, i.1] + r[i.0, i.1-1] + r[i.0, i.1] + r[i.0, i.1+1] + r[i.0+1, i.1])"
    tasks = [Task(f"jacobi{k}", Box.from_shape((40, 40)), [
        Accessor(src, AccessMode.READ, Neighborhood((1, 1)), name="r"),
        Accessor(dst, AccessMode.WRITE),
    ], {dst: body(text, ["r"], 2)}) for k, (src, dst) in enumerate(["ab", "ba"] * 2)]
    return bufs, tasks, 4


def allgather_queue():
    """The bench allgather shape: 4 int64 rounds over 2048 cells on 8 nodes,
    each chunk reading all of the other buffer."""
    x = np.random.default_rng(1).integers(-(1 << 40), 1 << 40, size=2048)
    bufs = {"x": Buffer("x", Box.from_shape((2048,)), "int64", BufferInit.explicit(x.tolist())),
            "y": Buffer("y", Box.from_shape((2048,)), "int64", BufferInit.zeros())}
    rounds = [(3, "+5", 2), (7, "-11", 3), (5, "+17", 5), (9, "-3", 7)]
    tasks = [Task(f"gather{k}", Box.from_shape((2048,)), [
        Accessor(src, AccessMode.READ, All(), name="r"), Accessor(dst, AccessMode.WRITE),
    ], {dst: body(f"(r[i] * {m} - r[i{o}]) / {d}", ["r"], 1)})
        for k, ((m, o, d), (src, dst)) in enumerate(zip(rounds, ["xy", "yx"] * 2))]
    return bufs, tasks, 8


@pytest.mark.parametrize("queue", [stencil2d_queue, allgather_queue])
def test_bench_shaped_queues_replay_in_one_kernel_call_per_task(queue):
    # Each task's transfers come before its Executes, which continue one
    # another and so form one batch: 4 tasks, 4 kernel calls.
    bufs, tasks, nodes = queue()
    plan = plan_for(bufs, tasks, nodes)
    extent = next(iter(bufs.values())).extent
    _got, calls, same = batch_outcome(plan)
    assert same and calls == [extent] * 4


def test_two_write_accessors_that_swap_two_buffers():
    bufs = {"a": fbuf("a", 12), "b": fbuf("b", 12, BufferInit.constant(5.0))}
    nb = Neighborhood((1,))
    task = Task("swap", Box.from_shape((12,)), [
        Accessor("a", AccessMode.READ, nb, name="ra"),
        Accessor("b", AccessMode.READ, nb, name="rb"),
        Accessor("a", AccessMode.WRITE, name="wa"), Accessor("b", AccessMode.WRITE, name="wb"),
    ], {"wa": body("rb[i+1] - ra[i-1]", ["ra", "rb"], 1),
        "wb": body("ra[i+1] * 2.0 + rb[i]", ["ra", "rb"], 1)})
    for nodes in (1, 2, 3):
        got, calls, same = batch_outcome(plan_for(bufs, [task, task], nodes))
        assert same, nodes
        # one batch per task, and one call per write accessor per batch
        assert calls == [Box.from_shape((12,))] * 4, nodes
    a, b = np.arange(12.0), np.full(12, 5.0)
    for _ in range(2):
        up, down = np.minimum(np.arange(12) + 1, 11), np.maximum(np.arange(12) - 1, 0)
        a, b = b[up] - a[down], a[up] * 2.0 + b
    assert got["a"].tobytes() == a.tobytes() and got["b"].tobytes() == b.tobytes()


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["float64", "int64"])
def test_swap_by_bare_reads_stores_after_the_batch(kind, nodes):
    # Each body is a bare read of the other buffer, so a kernel result can
    # be a view of an array the batch writes next: every store must land
    # the values read before the batch. The task runs three times.
    if kind == "int64":
        a0, b0 = np.arange(12) * -(2 ** 59), np.arange(12) + 2 ** 62
    else:
        b0 = np.array([math.inf, -math.inf, math.nan, -0.0, 1e308] + [0.5] * 7)
        a0 = np.arange(12.0)
    bufs = {"a": Buffer("a", Box.from_shape((12,)), kind, BufferInit.explicit(a0.tolist())),
            "b": Buffer("b", Box.from_shape((12,)), kind, BufferInit.explicit(b0.tolist()))}
    task = Task("swap", Box.from_shape((12,)), [
        Accessor("a", AccessMode.READ, name="ra"), Accessor("b", AccessMode.READ, name="rb"),
        Accessor("a", AccessMode.WRITE, name="wa"), Accessor("b", AccessMode.WRITE, name="wb"),
    ], {"wa": body("rb[i]", ["ra", "rb"], 1), "wb": body("ra[i]", ["ra", "rb"], 1)})
    got, _calls, same = batch_outcome(plan_for(bufs, [task] * 3, nodes))
    assert same
    assert got["a"].dtype == got["b"].dtype == np.dtype(kind)
    assert got["a"].tobytes() == b0.astype(kind).tobytes()
    assert got["b"].tobytes() == a0.astype(kind).tobytes()


def test_division_by_zero_in_two_chunks_names_the_first_in_replay_order():
    # Node 1's chunk divides by x's zero at id 5 through the first write
    # accessor, node 0's by y's zero at id 2 through the second. The batch's
    # first call fails at id 5; node 0's Execute comes first in replay order.
    bufs = {"x": Buffer("x", Box.from_shape((8,)), "int64",
                        BufferInit.explicit([1, 1, 1, 1, 1, 0, 1, 1])),
            "y": Buffer("y", Box.from_shape((8,)), "int64",
                        BufferInit.explicit([1, 1, 0, 1, 1, 1, 1, 1])),
            "p": Buffer("p", Box.from_shape((8,)), "int64"),
            "q": Buffer("q", Box.from_shape((8,)), "int64")}
    task = Task("div", Box.from_shape((8,)), [
        Accessor("x", AccessMode.READ), Accessor("y", AccessMode.READ),
        Accessor("p", AccessMode.WRITE), Accessor("q", AccessMode.WRITE),
    ], {"p": body("7 / x[i]", ["x", "y"], 1), "q": body("7 / y[i]", ["x", "y"], 1)})
    plan = plan_for(bufs, [task], 2)
    for replay in (reference_run, lambda plan: run(plan).buffers):
        with pytest.raises(EvalError, match=r"^integer division by zero at id \(2,\) "
                                            r"in task 'div'$"):
            replay(plan)


def hand_built(bufs, task, nodes, commands, final):
    """A plan of task's graph with the given commands and final region map."""
    plan = plan_for(bufs, [task], nodes)
    plan.commands = commands
    plan.final_locations = {name: [(Region(1, [Box((lo,), (hi,))]), 2, frozenset(holders))
                                   for lo, hi, holders in entries]
                            for name, entries in final.items()}
    return plan


def execute(cid, deps, lo, hi, node, reads, writes, halo=0):
    """An Execute of task 1 over [lo, hi) on node, reading each accessor of
    reads over the box widened by halo within [0, 8), writing writes' box."""
    def region(pad):
        return Region(1, [Box((max(lo - pad, 0),), (min(hi + pad, 8),))])
    return ExecuteCommand(cid, deps, 1, Box((lo,), (hi,)), node, 1.0,
                          tuple((name, buffer, region(halo)) for name, buffer in reads),
                          tuple((buffer, buffer, region(0), 2) for buffer in writes))


def test_hand_built_plans_evaluate_the_batch_where_its_data_is_seen_or_changed():
    # Executes of one task in replay order C0, C1; then an AwaitPush lands on
    # data C1 read or wrote, or a second Execute on C0's node reads what C0
    # wrote. Each plan runs as the per-command replay does.
    bufs = {"a": fbuf("a"), "z": fbuf("z", init=BufferInit.zeros())}
    inc = make_task("inc", "r_a[i] + 1.0", reads=("a",))
    reads, writes = [("r_a", "a")], ["z"]
    push_a = PushCommand(2, (1,), 0, 1, "a", Region(1, [Box((4,), (8,))]), 1)
    push_z = PushCommand(2, (), 2, 1, "z", Region(1, [Box((4,), (8,))]), 1)
    shift = make_task("shift", "r_a[i-1] + r_a[i+1]", reads=("a",), writes=("a",),
                      mappers={"a": Neighborhood((1,))})
    plans = [
        hand_built(bufs, inc, 2, [execute(0, (), 0, 4, 0, reads, writes),
                                  execute(1, (), 4, 8, 1, reads, writes),
                                  push_a, AwaitPushCommand(3, (2,), push_a)],
                   {"a": [(0, 8, {0})], "z": [(0, 4, {0}), (4, 8, {1})]}),
        hand_built(bufs, inc, 3, [execute(0, (), 0, 4, 0, reads, writes),
                                  execute(1, (), 4, 8, 1, reads, writes),
                                  push_z, AwaitPushCommand(3, (2,), push_z)],
                   {"a": [(0, 8, {0})], "z": [(0, 4, {0}), (4, 8, {1})]}),
        hand_built(bufs, shift, 1, [execute(0, (), 0, 4, 0, reads, ["a"], halo=1),
                                    execute(1, (0,), 4, 8, 0, reads, ["a"], halo=1)],
                   {"a": [(0, 8, {0})]}),
    ]
    for plan in plans:
        assert batch_outcome(plan)[2]


def spans(*bounds):
    return Region(1, [Box((lo,), (hi,)) for lo, hi in bounds])


@pytest.mark.parametrize("y, z, named", [
    (spans(), spans((0, 4)), "{} of buffer 'y'"),
    (spans((1, 5)), spans((0, 4)), "{[1,5)} of buffer 'y'"),
    (spans((0, 4), (6, 8)), spans((0, 4)), "{[0,4) [6,8)} of buffer 'y'"),
    (spans((0, 4)), spans((0, 3)), "{[0,3)} of buffer 'z'"),
], ids=["empty", "shifted", "two_boxes", "second_write"])
def test_hand_built_execute_writing_other_than_its_box_is_rejected(y, z, named):
    # Execute 1 runs after a well-formed Execute 0, over the box [0, 4), and
    # writes y and z; one of the two regions is not exactly its box. run
    # names it before any data moves.
    bufs = {"a": fbuf("a"), "y": fbuf("y", init=BufferInit.zeros()),
            "z": fbuf("z", init=BufferInit.zeros())}
    task = make_task("inc", "r_a[i] + 1.0", reads=("a",), writes=("y", "z"))
    bad = ExecuteCommand(1, (), 1, Box((0,), (4,)), 0, 1.0, (("r_a", "a", spans((0, 4))),),
                         (("y", "y", y, 2), ("z", "z", z, 2)))
    plan = hand_built(bufs, task, 2, [execute(0, (), 4, 8, 1, [("r_a", "a")], ["y", "z"]), bad],
                      {"y": [(0, 4, {0}), (4, 8, {1})], "z": [(0, 4, {0}), (4, 8, {1})]})
    with mock.patch.object(simulator, "_Storage") as storage, \
            pytest.raises(ValidationError,
                          match=re.escape(f"Execute 1 writes {named}, not its box [0,4)")):
        run(plan)
    storage.assert_not_called()


def with_task(cmd, task_id):
    cmd.task_id = task_id
    return cmd


HALF = Region(1, [Box((4,), (8,))])


def other_accessors(reads, writes):
    return (f"Execute 1 reads {reads} and writes {writes}, "
            "not its task's [('r_a', 'a')] and [('z', 'z')]")


@pytest.mark.parametrize("bad, message", [
    (execute(1, (), 4, 8, 2, [("r_a", "a")], ["z"]), "Execute 1 is on node 2, outside [0, 2)"),
    (execute(1, (), 4, 8, -1, [("r_a", "a")], ["z"]), "Execute 1 is on node -1, outside [0, 2)"),
    (with_task(execute(1, (), 4, 8, 1, [("r_a", "a")], ["z"]), 0),
     "Execute 1 names task 0, not in the graph"),
    (with_task(execute(1, (), 4, 8, 1, [("r_a", "a")], ["z"]), 2),
     "Execute 1 names task 2, not in the graph"),
    (execute(1, (), 4, 8, 1, [("r_a", "q")], ["z"]),
     other_accessors([("r_a", "q")], [("z", "z")])),
    (execute(1, (), 4, 8, 1, [("r_a", "a")], ["q"]),
     other_accessors([("r_a", "a")], [("q", "q")])),
    (execute(1, (), 4, 8, 1, [("r_b", "a")], ["z"]),
     other_accessors([("r_b", "a")], [("z", "z")])),
    (ExecuteCommand(1, (), 1, Box((4,), (8,)), 1, 1.0, (("r_a", "a", HALF),),
                    (("q", "z", HALF, 2),)),
     other_accessors([("r_a", "a")], [("q", "z")])),
    (execute(1, (), 4, 8, 1, [("r_a", "z")], ["z"]),
     other_accessors([("r_a", "z")], [("z", "z")])),
    (PushCommand(1, (), 0, 9, "a", HALF, 1), "Push 1 goes from node 0 to node 9, outside [0, 2)"),
    (PushCommand(1, (), -1, 1, "a", HALF, 1),
     "Push 1 goes from node -1 to node 1, outside [0, 2)"),
    (PushCommand(1, (), 0, 1, "q", HALF, 1), "Push 1 names buffer 'q', not in the graph"),
], ids=["execute_node", "execute_negative_node", "task_0", "task_beyond", "read_buffer",
        "write_buffer", "read_name", "write_name", "read_other_buffer", "push_dst", "push_src",
        "push_buffer"])
def test_bad_references_are_rejected_before_any_data_moves(bad, message):
    # Command 1 of a 2-node plan of task 1 names a node, a task or a buffer
    # the plan lacks, or accessors other than its task's; run and schedule
    # name it before any data moves. An Execute there would join Execute 0's
    # batch, whose data walk reads only the first member's accessors.
    bufs = {"a": fbuf("a"), "z": fbuf("z", init=BufferInit.zeros())}
    inc = make_task("inc", "r_a[i] + 1.0", reads=("a",))
    plan = hand_built(bufs, inc, 2, [execute(0, (), 0, 4, 0, [("r_a", "a")], ["z"]), bad],
                      {"z": [(0, 4, {0}), (4, 8, {1})]})
    for replay in (run, simulator.schedule):
        with mock.patch.object(simulator, "_Storage") as storage, \
                pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replay(plan)
        storage.assert_not_called()


def test_await_push_without_its_push_is_rejected():
    region = Region(1, [Box((0,), (4,))])
    push = PushCommand(1, (), 0, 1, "x", region, 1)
    plan = plan_for({"x": fbuf("x")}, [], 2)
    plan.commands = [AwaitPushCommand(0, (), push), push]
    with pytest.raises(ValidationError, match="AwaitPush 0 does not depend on its Push 1"):
        run(plan)
    # depending on a Push equal to the one it holds, which is not in the plan
    plan.commands = [PushCommand(0, (), 0, 1, "x", region, 1),
                     AwaitPushCommand(1, (0,), PushCommand(0, (), 0, 1, "x", region, 1))]
    with pytest.raises(ValidationError, match="AwaitPush 1 does not depend on its Push 0"):
        run(plan)


def test_int64_buffers_stay_int64():
    t = make_task("dbl", "r_x[i] * p", reads=("x",), params={"p": 3})
    bufs = {"x": Buffer("x", Box.from_shape((8,)), "int64", BufferInit.iota()),
            "z": Buffer("z", Box.from_shape((8,)), "int64", BufferInit.zeros())}
    plan = plan_for(bufs, [t], 2)
    res = run(plan, link=SLOW_LINK)
    assert res.buffers["z"].dtype == np.int64
    assert res.buffers["z"].tolist() == [0, 3, 6, 9, 12, 15, 18, 21]


def test_partial_write_of_uninitialized_buffer_gathers_zero_elsewhere():
    t = make_task("fill", "7.0", writes=("u",), n=4)
    bufs = {"u": Buffer("u", Box.from_shape((8,)), "float64",
                        BufferInit.uninitialized())}
    plan = plan_for(bufs, [t], 2)
    res = run(plan)
    assert res.buffers["u"].tolist() == [7.0, 7.0, 7.0, 7.0, 0.0, 0.0, 0.0, 0.0]


# --------------------------------------------------------------------- timing

def test_transfer_time_is_exact():
    assert SLOW_LINK.transfer_time(32) == Fraction(5)
    assert SLOW_LINK.transfer_time(0) == Fraction(1)
    free = LinkModel(latency_s=0.0, bandwidth_bytes_per_s=2.0)
    assert free.transfer_time(7) == Fraction(7, 2)


def test_link_validation():
    with pytest.raises(ValidationError):
        LinkModel(latency_s=-1.0)
    with pytest.raises(ValidationError):
        LinkModel(bandwidth_bytes_per_s=0.0)


def test_two_node_makespan_hand_computed():
    # pushes of x[4:8) and y[4:8) at 32 bytes: start 0, take 5 s each;
    # node-1 execute starts at 5 and runs 4 s; node-0 execute runs [0,4)
    t = make_task("saxpy", "r_x[i] + r_y[i]", reads=("x", "y"))
    plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, [t], 2)
    res = run(plan, link=SLOW_LINK)
    assert res.makespan == Fraction(9)
    execs = sorted((ev for ev in res.trace if ev.kind == "execute"),
                   key=lambda ev: ev.node)
    assert (execs[0].start, execs[0].finish) == (Fraction(0), Fraction(4))
    assert (execs[1].start, execs[1].finish) == (Fraction(5), Fraction(9))
    for ev in res.trace:
        if ev.kind == "push":
            assert (ev.start, ev.duration) == (Fraction(0), Fraction(5))
        if ev.kind == "await_push":
            assert ev.duration == Fraction(0)
            assert ev.start == Fraction(5)


def test_run_is_schedule_then_the_data_walk():
    # schedule times the plan without moving data; run takes its trace and
    # makespan, the same objects, from one schedule call.
    t = make_task("saxpy", "r_x[i] + r_y[i]", reads=("x", "y"))
    plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, [t], 2)
    with mock.patch.object(simulator, "_Storage") as storage:
        trace, makespan = clusterq.schedule(plan, SLOW_LINK)
    storage.assert_not_called()
    assert makespan == Fraction(9)
    assert [ev.command_id for ev in trace] == list(range(len(plan.commands)))
    returned, schedule = [], simulator.schedule

    def spy(*args):
        returned.append(schedule(*args))
        return returned[-1]

    with mock.patch.object(simulator, "schedule", spy):
        res = run(plan, link=SLOW_LINK)
    [(trace2, makespan2)] = returned
    assert (trace2, makespan2) == (trace, makespan)
    assert res.trace is trace2 and res.makespan is makespan2


@pytest.mark.parametrize("cells", [(8, 16), (16, 8)])
def test_readiness_is_the_exact_latest_finish(cells):
    # At 1e30 bytes/s the 64- and 128-byte pushes finish 64e-30 s apart,
    # below the spacing of binary64 near their 1e-6 s latency: equal as
    # floats, different as rationals. Node 1's Execute waits for both.
    t = make_task("sum", "r_x[i] + r_y[i]", reads=("x", "y"),
                  mappers={"x": All(), "y": All()})
    buffers = {"x": fbuf("x", cells[0]), "y": fbuf("y", cells[1]), "z": fbuf("z")}
    res = run(plan_for(buffers, [t], 2), link=LinkModel(1e-6, 1e30))
    pushes = [ev for ev in res.trace if ev.kind == "push"]
    assert sorted(ev.bytes for ev in pushes) == [64, 128]
    first, second = (ev.finish for ev in pushes)
    assert first != second and float(first) == float(second)
    later = max(first, second)
    assert later == Fraction(1e-6) + Fraction(128) / Fraction(1e30)
    [execute] = [ev for ev in res.trace if ev.kind == "execute" and ev.node == 1]
    assert execute.start == later
    assert res.makespan == max(ev.finish for ev in res.trace)


def test_execute_lane_serializes_per_node():
    # independent tasks share the one lane per node and run back to back
    t1 = make_task("w1", "1.0", writes=("a",))
    t2 = make_task("w2", "2.0", writes=("b",))
    plan = plan_for({"a": fbuf("a"), "b": fbuf("b")}, [t1, t2], 1)
    res = run(plan)
    evs = [ev for ev in res.trace if ev.kind == "execute"]
    assert len(evs) == 2
    assert evs[0].start == Fraction(0)
    assert evs[1].start == evs[0].finish
    assert res.makespan == evs[1].finish


def test_execute_lanes_never_overlap():
    rng = random.Random(53)
    for _ in range(8):
        buffers, tasks = random_workload(rng)
        g = TaskGraph(buffers)
        for t in tasks:
            g.submit(t)
        res = run(generate_commands(g, rng.choice((2, 3))))
        by_node = {}
        for ev in res.trace:
            if ev.kind == "execute":
                by_node.setdefault(ev.node, []).append(ev)
        for evs in by_node.values():
            evs.sort(key=lambda ev: ev.start)
            for a, b in zip(evs, evs[1:]):
                assert a.finish <= b.start


def test_events_start_after_dependencies():
    t = make_task("saxpy", "r_x[i] + r_y[i]", reads=("x", "y"))
    plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, [t], 2)
    res = run(plan, link=SLOW_LINK)
    finish = {ev.command_id: ev.finish for ev in res.trace}
    start = {ev.command_id: ev.start for ev in res.trace}
    for cmd in plan.commands:
        for d in cmd.deps:
            assert start[cmd.id] >= finish[d]


def test_empty_plan():
    plan = plan_for({"x": fbuf("x")}, [], 2)
    res = run(plan)
    assert res.makespan == Fraction(0)
    assert res.trace == []
    # untouched buffers still gather their host-initialized contents
    assert np.array_equal(res.buffers["x"], np.arange(8.0))


def test_deterministic_replay():
    t = make_task("saxpy", "r_x[i] + r_y[i]", reads=("x", "y"))
    plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, [t], 2)
    r1 = run(plan, link=SLOW_LINK)
    r2 = run(plan, link=SLOW_LINK)
    assert [(e.command_id, e.start, e.duration) for e in r1.trace] == \
           [(e.command_id, e.start, e.duration) for e in r2.trace]
    assert np.array_equal(r1.buffers["z"], r2.buffers["z"])


def test_cycle_detection():
    # A cycle, an acyclic dependency on a later command and a command's
    # dependency on itself: each makes C0 depend on a command not before it.
    region = Region(1, [Box((0,), (4,))])
    plan = plan_for({"x": fbuf("x")}, [], 2)
    for deps0, deps1 in [((1,), (0,)), ((1,), ()), ((0,), ())]:
        c0 = PushCommand(id=0, deps=deps0, src=0, dst=1, buffer="x",
                         region=region, version=1)
        c1 = PushCommand(id=1, deps=deps1, src=1, dst=0, buffer="x",
                         region=region, version=1)
        plan.commands = [c0, c1]
        for replay in (run, simulator.schedule):
            with mock.patch.object(simulator, "_Storage") as storage, pytest.raises(
                    ValidationError,
                    match=f"^command 0 depends on id {deps0[0]}, not an earlier command$"):
                replay(plan)
            storage.assert_not_called()


def two_push_plan():
    """A valid plan of two independent Pushes, C0 and C1."""
    region = Region(1, [Box((0,), (4,))])
    plan = plan_for({"x": fbuf("x")}, [], 2)
    plan.commands = [PushCommand(id=i, deps=(), src=0, dst=1, buffer="x", region=region,
                                 version=1) for i in range(2)]
    return plan


def test_ids_out_of_list_order_are_rejected():
    plan = two_push_plan()
    assert len(run(plan).trace) == 2
    plan.commands.reverse()
    with pytest.raises(ValidationError, match="command 1 is at position 0"):
        run(plan)


@pytest.mark.parametrize("dep", [-1, 2, 7])
def test_dependency_outside_the_plan_is_rejected(dep):
    plan = two_push_plan()
    plan.commands[1].deps = (0, dep)
    with pytest.raises(ValidationError, match=f"command 1 depends on id {dep}"):
        run(plan)


@pytest.mark.parametrize("deps, named", [((5, 0, -3), 5), ((0, -3, 5), -3)])
def test_first_dependency_outside_the_plan_is_named(deps, named):
    plan = two_push_plan()
    plan.commands[1].deps = deps
    with pytest.raises(ValidationError, match=f"^command 1 depends on id {named}, not an"):
        run(plan)


def test_a_task_submitted_twice_is_two_tasks():
    bufs = {"a": Buffer("a", Box.from_shape((4,)), "float64", BufferInit.iota())}
    task = Task("twice", Box.from_shape((4,)), [
        Accessor("a", AccessMode.READ, name="r"), Accessor("a", AccessMode.WRITE),
    ], {"a": body("r[i] + 1.0", ["r"], 1)})
    g = TaskGraph(bufs)
    assert [g.submit(task), g.submit(task)] == [1, 2]
    assert [t.id for t in g.tasks] == [1, 2] and task.id is None
    plan = generate_commands(g, 2, devices=UNIT)
    assert [(e.task_id, e.node) for e in plan.executes()] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    res = run(plan)
    assert [ev.label for ev in res.trace if ev.kind == "execute"] == [
        "twice#1 [0,2)", "twice#1 [2,4)", "twice#2 [0,2)", "twice#2 [2,4)"]
    assert res.buffers["a"].tolist() == [2.0, 3.0, 4.0, 5.0]


# ---------------------------------------------------------------- trace export

def test_trace_events_carry_metadata():
    t = make_task("saxpy", "r_x[i] + r_y[i]", reads=("x", "y"))
    plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, [t], 2)
    res = run(plan, link=SLOW_LINK)
    assert len(res.trace) == len(plan.commands)
    assert {ev.command_id for ev in res.trace} == {c.id for c in plan.commands}
    for ev in res.trace:
        if ev.kind == "execute":
            assert ev.frequency_ghz == 1.0
            assert ev.task_id == 1 and ev.task_name == "saxpy"
            assert "saxpy" in ev.label
        elif ev.kind == "push":
            assert ev.bytes == 32
            assert "->" in ev.label


def test_trace_to_chrome_format():
    t = make_task("saxpy", "r_x[i] + r_y[i]", reads=("x", "y"))
    plan = plan_for({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, [t], 2)
    res = run(plan, link=SLOW_LINK)
    events = trace_to_chrome(res.trace)
    assert len(events) == len(res.trace)
    lanes = {"execute": 0, "push": 1, "await_push": 2}
    for ev, raw in zip(events, res.trace):
        assert ev["ph"] == "X"
        assert ev["pid"] == raw.node
        assert ev["tid"] == lanes[raw.kind]
        assert ev["ts"] == float(raw.start * 1_000_000)
        assert ev["dur"] == float(raw.duration * 1_000_000)
        assert ev["args"]["kind"] == raw.kind
        assert ev["args"]["command"] == raw.command_id
        if raw.kind == "execute":
            assert ev["args"]["frequency_ghz"] == raw.frequency_ghz
        if raw.kind == "push":
            assert ev["args"]["bytes"] == raw.bytes
