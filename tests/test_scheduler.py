"""Chunk splitting, transfer inference, and command graph structure."""

import copy
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from clusterq import scheduler, simulator
from clusterq.energy import DeviceModel, EnergyTarget, select_frequency
from clusterq.errors import UninitializedReadError, ValidationError
from clusterq.graph import TaskGraph
from clusterq.kernel import parse_kernel
from clusterq.model import (
    Accessor,
    AccessMode,
    Buffer,
    BufferInit,
    Fixed,
    Neighborhood,
    Task,
)
from clusterq.region import Box, Region
from clusterq.scheduler import (
    MAX_NODES,
    AwaitPushCommand,
    ExecuteCommand,
    PushCommand,
    RegionMapTable,
    assign_frequencies,
    export_command_graph,
    generate_commands,
    split_task,
)
from clusterq.scenario import Scenario, plan_scenario

from helpers import await_pushes, check_plan, direct_plan, push_commands, random_workload


def simple_task(name="t", n=8, reads=(), writes=("z",), mappers=None, nd_range=None):
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
    rng = nd_range or Box.from_shape((n,))
    src = " + ".join(f"r_{r}[i]" for r in reads) or "1"
    body = {w: parse_kernel(src, arity, set(), rng.dims) for w in writes}
    return Task(name=name, global_range=rng, accessors=accs, body=body, params={})


def graph_of(buffers, *tasks):
    g = TaskGraph(buffers)
    for t in tasks:
        g.submit(t)
    return g


def fbuf(name, n=8, init=None):
    return Buffer(name, Box.from_shape((n,)), "float64", init or BufferInit.iota())


# ------------------------------------------------------------------ split_task

def test_split_even():
    t = simple_task(n=8)
    t.id = 1
    boxes = split_task(t, 2)
    assert [(b.mins[0], b.maxs[0]) for b in boxes] == [(0, 4), (4, 8)]


def test_split_remainder_goes_to_low_ids():
    t = simple_task(n=10)
    t.id = 1
    boxes = split_task(t, 4)
    sizes = [b.volume() for b in boxes]
    assert sizes == [3, 3, 2, 2]
    # contiguous and in order
    for a, b in zip(boxes, boxes[1:]):
        assert a.maxs[0] == b.mins[0]


def test_split_more_nodes_than_work():
    t = simple_task(n=3)
    t.id = 1
    boxes = split_task(t, 8)
    assert len(boxes) == 3
    assert [b.volume() for b in boxes] == [1, 1, 1]


def test_split_2d_splits_dim0_only():
    t = simple_task(nd_range=Box.from_shape((6, 5)))
    t.id = 1
    boxes = split_task(t, 3)
    assert [(b.mins, b.maxs) for b in boxes] == [
        ((0, 0), (2, 5)), ((2, 0), (4, 5)), ((4, 0), (6, 5))]


def test_split_single_node():
    t = simple_task(n=8)
    t.id = 1
    boxes = split_task(t, 1)
    assert boxes == [Box.from_shape((8,))]


def test_execute_k_runs_box_k_on_node_k():
    t1 = simple_task(name="a", n=10, writes=("z",))
    t2 = simple_task(name="b", n=10, reads=("z",), writes=("w",))
    g = graph_of({"z": fbuf("z", 10), "w": fbuf("w", 10)}, t1, t2)
    plan = generate_commands(g, 4)
    for task in (g.task(1), g.task(2)):
        execs = [e for e in plan.executes() if e.task_id == task.id]
        assert [(e.box, e.node) for e in execs] == \
            [(box, k) for k, box in enumerate(split_task(task, 4))]


def test_tasks_of_one_shape_share_chunk_geometry():
    # Equal range and accessors share the chunk boxes, mapped reads and write
    # regions by identity; a mapper of other radii shares nothing.
    bufs = {"a": fbuf("a", 10), "b": fbuf("b", 10)}
    nb = Neighborhood((1,))
    tasks = [simple_task("p0", 10, ("a",), ("b",), {"a": nb}),
             simple_task("p1", 10, ("a",), ("b",), {"a": Neighborhood((1,))}),
             simple_task("q", 10, ("a",), ("b",), {"a": Neighborhood((2,))})]
    plan = generate_commands(graph_of(bufs, *tasks), 3)
    p0, p1, q = ([e for e in plan.executes() if e.task_id == t.id] for t in tasks)
    for x, y, z in zip(p0, p1, q):
        assert x.box is y.box and x.reads is y.reads and x.writes[0][2] is y.writes[0][2]
        assert x.box == z.box and x.box is not z.box and x.reads != z.reads


def test_fixed_mapper_tasks_share_by_region_value():
    # Two Fixed mappers over equal, distinct Region objects key one shape.
    x = Buffer("x", Box.from_shape((6,)), "float64", BufferInit.iota())
    z = fbuf("z", 6)
    tasks = [Task(f"f{k}", Box.from_shape((6,)), [
        Accessor("x", AccessMode.READ, Fixed(Region(1, [Box((0,), (3,)), Box((3,), (6,))])),
                 name="r"),
        Accessor("z", AccessMode.WRITE),
    ], {"z": parse_kernel("r[i] * 2.0 + r[i]", {"r": 1}, set(), 1)}) for k in range(2)]
    graph = graph_of({"x": x, "z": z}, *tasks)
    plan = generate_commands(graph, 2)
    first, second = ([e for e in plan.executes() if e.task_id == t.id] for t in tasks)
    assert all(a.reads is b.reads for a, b in zip(first, second))
    check_plan(plan, graph.buffers)
    result = simulator.run(plan)
    assert result.buffers["z"].tolist() == [3.0 * v for v in range(6)]


# -------------------------------------------------------------- plan templates

def chain_tasks(count, cells):
    """The bench chain's queue: a three-point average ping-ponging between
    buffers a and b, the bodies of each direction shared as parsing shares them."""
    nb = Neighborhood((1,))
    bodies = {src: parse_kernel(f"w * ({src}[i-1] + {src}[i] + {src}[i+1])", {src: 1}, {"w"}, 1)
              for src in "ab"}
    return [Task(f"step{k}", Box.from_shape((cells,)),
                 [Accessor(src, AccessMode.READ, nb), Accessor(dst, AccessMode.WRITE)],
                 {dst: bodies[src]}, {"w": 1 / 3})
            for k, (src, dst) in enumerate(["ab", "ba"][k % 2] for k in range(count))]


def test_repeated_tasks_are_instances_of_one_template():
    # From task 2 on the region map cycles between two layouts, so tasks of
    # one direction are, from some point on, instances of one template and
    # push the very same region objects.
    bufs = {"a": fbuf("a", 64), "b": Buffer("b", Box.from_shape((64,)), "float64",
                                            BufferInit.zeros())}
    graph = graph_of(bufs, *chain_tasks(30, 64))
    plan = generate_commands(graph, 8)
    pushes, before = {}, []  # task id -> the Pushes planned with it
    for c in plan.commands:
        if isinstance(c, PushCommand):
            before.append(c)
        elif isinstance(c, ExecuteCommand):
            pushes.setdefault(c.task_id, []).extend(before)
            before = []
    assert len(pushes[9]) == len(pushes[11]) == 14
    assert all(p.region is q.region for p, q in zip(pushes[9], pushes[11]))
    assert export_command_graph(plan) == export_command_graph(direct_plan(graph, 8))


@pytest.mark.parametrize("nodes", [1, 2])
def test_layouts_tell_host_data_from_written_data(nodes):
    # At 1 node a write leaves a buffer with the boxes and holders the host
    # gave it, but with a producer, so t1 and t3 are keys of their own and
    # not instances of t0's; t4 records t3's key and t5 instantiates it.
    bufs = {n: fbuf(n) for n in "ab"}
    tasks = [simple_task(f"t{k}", reads=(src,), writes=(dst,))
             for k, (src, dst) in enumerate(("ab", "ab", "ba", "ab", "ab", "ab"))]
    graph = graph_of(bufs, *tasks)
    plan, direct = generate_commands(graph, nodes), direct_plan(graph, nodes)
    assert plan.commands == direct.commands
    assert {name: [(r.boxes, v, h) for r, v, h in entries]
            for name, entries in plan.final_locations.items()} == \
        {name: [(r.boxes, v, h) for r, v, h in entries]
         for name, entries in direct.final_locations.items()}


def test_uninitialized_read_after_template_instances_names_its_task():
    # The steps are planned from templates; the read of u that no entry
    # covers raises the text direct planning raises, naming its own task.
    bufs = {"a": fbuf("a", 16), "b": fbuf("b", 16),
            "u": Buffer("u", Box.from_shape((16,)), "float64", BufferInit.uninitialized())}
    use = Task("use", Box.from_shape((16,)), [
        Accessor("u", AccessMode.READ, Neighborhood((1,)), name="r_u"),
        Accessor("b", AccessMode.WRITE),
    ], {"b": parse_kernel("r_u[i]", {"r_u": 1}, set(), 1)})
    graph = graph_of(bufs, *chain_tasks(8, 16), use)
    for plan_of in (generate_commands, direct_plan):
        with pytest.raises(UninitializedReadError) as info:
            plan_of(graph, 4)
        assert str(info.value) == ("task 'use' (id 9) reads {[0,5)} of buffer 'u' which was "
                                   "never written or host-initialized")


# ------------------------------------------------------------- region map table

def resident(table, buffer, node):
    """Union of the 1D regions of `buffer` that `node` holds, per the snapshot."""
    out = Region.empty(1)
    for region, _version, holders in table.snapshot()[buffer]:
        if node in holders:
            out = out.union(region)
    return out


def test_table_initial_state():
    bufs = {"x": fbuf("x"), "u": Buffer("u", Box.from_shape((8,)), "float64",
                                        BufferInit.uninitialized())}
    table = RegionMapTable(bufs)
    assert resident(table, "x", 0) == Region.from_box(Box.from_shape((8,)))
    assert resident(table, "x", 1).is_empty()
    assert table.entries["u"] == []
    assert table.version_counter == {"x": 1, "u": 0}


def test_table_write_supersedes():
    bufs = {"x": fbuf("x")}
    table = RegionMapTable(bufs)
    v = table.bump_version("x")
    table.write("x", v, [(Region(1, [Box((0,), (4,))]), 1, 7)])
    assert resident(table, "x", 0) == Region(1, [Box((4,), (8,))])
    assert resident(table, "x", 1) == Region(1, [Box((0,), (4,))])
    versions = {v for _r, v, _h in table.entries["x"]}
    assert versions == {1, 2}


def test_table_add_holder_keeps_producer():
    bufs = {"x": fbuf("x")}
    table = RegionMapTable(bufs)
    # node 3 gains [2,5) from entry 0, the host-initialized whole buffer
    table.add_holders("x", {0: [(Region(1, [Box((2,), (5,))]), 3, 11)]})
    assert resident(table, "x", 3) == Region(1, [Box((2,), (5,))])
    # original holder still covers everything
    assert resident(table, "x", 0) == Region.from_box(Box.from_shape((8,)))
    holders = [h for _r, _v, h in table.entries["x"] if 3 in h]
    assert holders == [{0: None, 3: 11}]


# --------------------------------------------------------- command generation

def test_single_node_generates_no_transfers():
    g = graph_of({"x": fbuf("x"), "z": fbuf("z")},
                 simple_task(reads=("x",), writes=("z",)))
    plan = generate_commands(g, 1)
    assert len(push_commands(plan)) == 0
    assert len(await_pushes(plan)) == 0
    assert len(plan.executes()) == 1
    assert plan.executes()[0].deps == ()


def test_two_node_saxpy_structure():
    """The worked transfer example: 2 pushes of 4 elements, both n0 to n1."""
    g = graph_of({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")},
                 simple_task(name="saxpy", reads=("x", "y"), writes=("z",)))
    plan = generate_commands(g, 2)
    pushes = push_commands(plan)
    assert len(pushes) == 2
    for p in pushes:
        assert (p.src, p.dst) == (0, 1)
        assert p.region == Region(1, [Box((4,), (8,))])
        assert p.bytes == 32
        assert p.deps == ()  # host-initialized data has no producer command
    assert {p.buffer for p in pushes} == {"x", "y"}
    execs = plan.executes()
    assert len(execs) == 2
    e0, e1 = sorted(execs, key=lambda e: e.node)
    assert e0.deps == ()
    # node 1 waits on both awaits
    await_ids = {a.id for a in await_pushes(plan)}
    assert set(e1.deps) == await_ids
    check_plan(plan, g.buffers)


def test_repeat_task_no_new_transfers():
    t1 = simple_task(name="s1", reads=("x", "y"), writes=("z",))
    t2 = simple_task(name="s2", reads=("x", "y"), writes=("z",))
    g = graph_of({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")}, t1, t2)
    plan = generate_commands(g, 2)
    assert len(push_commands(plan)) == 2  # all for the first task
    by_task = {}
    for e in plan.executes():
        by_task.setdefault(e.task_id, []).append(e)
    # second task depends on first task's executes (WAW on z)
    for e in by_task[2]:
        dep_cmds = [plan.commands[d] for d in e.deps]
        exec_deps = [c for c in dep_cmds if isinstance(c, ExecuteCommand)]
        assert {c.task_id for c in exec_deps} == {1}
    check_plan(plan, g.buffers)


def test_producer_dependency_on_pushed_data():
    # task 1 writes z on both nodes; task 2 reads all of z everywhere, so
    # each node pulls the half it lacks from the node that produced it
    from clusterq.model import All
    t1 = simple_task(name="make", reads=("x",), writes=("z",))
    t2 = simple_task(name="sum", reads=("z",), writes=("w",),
                     mappers={"z": All()})
    g = graph_of({"x": fbuf("x"), "z": fbuf("z"), "w": fbuf("w")}, t1, t2)
    plan = generate_commands(g, 2)
    pushes = {p.dst: p for p in push_commands(plan) if p.buffer == "z"}
    assert set(pushes) == {0, 1}
    assert pushes[0].region == Region(1, [Box((4,), (8,))])
    assert pushes[1].region == Region(1, [Box((0,), (4,))])
    for p in pushes.values():
        assert p.src == 1 - p.dst
        producer = plan.commands[p.deps[0]]
        assert isinstance(producer, ExecuteCommand)
        assert producer.task_id == 1 and producer.node == p.src
    check_plan(plan, g.buffers)


def test_stencil_halo_exchange_counts():
    nb = Neighborhood((1,))
    t1 = simple_task(name="s1", n=16, reads=("a",), writes=("b",),
                     mappers={"a": nb})
    t2 = simple_task(name="s2", n=16, reads=("b",), writes=("a",),
                     mappers={"b": nb})
    t3 = simple_task(name="s3", n=16, reads=("a",), writes=("b",),
                     mappers={"a": nb})
    g = graph_of({"a": fbuf("a", 16), "b": fbuf("b", 16, BufferInit.zeros())},
                 t1, t2, t3)
    plan = generate_commands(g, 2)
    pushes = push_commands(plan)
    # task 1: node 1 lacks a entirely -> one bulk push of a[7:16)
    # tasks 2 and 3: one boundary element in each direction
    volumes = [p.region.volume() for p in pushes]
    assert volumes == [9, 1, 1, 1, 1]
    assert pushes[0].region == Region(1, [Box((7,), (16,))])
    later = {(p.src, p.dst, p.region.boxes[0].mins[0]) for p in pushes[1:]}
    assert later == {(0, 1, 7), (1, 0, 8)}
    check_plan(plan, g.buffers)


def test_in_place_stencil_hazard_deps():
    """The boundary cell must leave a node before that node's own execute
    overwrites it in place."""
    nb = Neighborhood((1,))
    t1 = simple_task(name="relax1", n=16, reads=("a",), writes=("a",),
                     mappers={"a": nb})
    t2 = simple_task(name="relax2", n=16, reads=("a",), writes=("a",),
                     mappers={"a": nb})
    g = graph_of({"a": fbuf("a", 16)}, t1, t2)
    plan = generate_commands(g, 2)
    pushes = push_commands(plan)
    assert [p.region.volume() for p in pushes] == [9, 1, 1]
    # the reading task rewrites the buffer at version+1, which identifies the
    # execute of the same task on the pushing node
    for p in pushes:
        same_task_exec = next(
            e for e in plan.executes()
            if e.node == p.src and any(
                b == p.buffer and v == p.version + 1 and r.intersect(p.region)
                for _n, b, r, v in e.writes))
        assert p.id in same_task_exec.deps, \
            f"push C{p.id} not ordered before overwrite on node {p.src}"
    check_plan(plan, g.buffers)


def test_uninitialized_read_detected():
    t = simple_task(reads=("u",), writes=("z",))
    bufs = {"u": Buffer("u", Box.from_shape((8,)), "float64",
                        BufferInit.uninitialized()),
            "z": fbuf("z")}
    g = graph_of(bufs, t)
    with pytest.raises(UninitializedReadError, match="'u'"):
        generate_commands(g, 2)


@pytest.mark.parametrize("extent, fill, nodes, uncovered", [
    ((8,), (4,), 1, "{[4,8)}"),
    ((8,), (4,), 2, "{[4,5)}"),
    ((8,), (4,), 3, "{[4,7)}"),
    ((8,), (4,), 4, "{[4,5)}"),
    ((6, 5), (3, 5), 1, "{[3,6)x[0,5)}"),
    ((6, 5), (3, 5), 2, "{[3,4)x[0,5)}"),
    ((6, 5), (3, 5), 3, "{[3,5)x[0,5)}"),
    ((6, 5), (3, 5), 4, "{[3,5)x[0,5)}"),
    ((6, 5), (3, 4), 1, "{[0,3)x[4,5) [3,6)x[0,5)}"),
    ((6, 5), (3, 4), 2, "{[0,3)x[4,5) [3,4)x[0,5)}"),
    ((6, 5), (3, 4), 3, "{[0,3)x[4,5)}"),
    ((6, 5), (3, 4), 4, "{[0,3)x[4,5)}"),
    ((6, 4, 3), (3, 3, 2), 1,
     "{[0,3)x[0,3)x[2,3) [0,3)x[3,4)x[0,3) [3,6)x[0,4)x[0,3)}"),
    ((6, 4, 3), (3, 3, 2), 2,
     "{[0,3)x[0,3)x[2,3) [0,3)x[3,4)x[0,3) [3,4)x[0,4)x[0,3)}"),
    ((6, 4, 3), (3, 3, 2), 3, "{[0,3)x[0,3)x[2,3) [0,3)x[3,4)x[0,3)}"),
    ((6, 4, 3), (3, 3, 2), 4, "{[0,3)x[0,3)x[2,3) [0,3)x[3,4)x[0,3)}"),
])
def test_uninitialized_read_error_names_region(extent, fill, nodes, uncovered):
    # `fill` writes part of `u`; `use` reads it with a halo of one cell, so
    # the first chunk that reaches unwritten cells names exactly those cells
    dims = len(extent)
    one = parse_kernel("1", {}, set(), dims)
    t1 = Task("fill", Box.from_shape(fill), [Accessor("u", AccessMode.WRITE)],
              {"u": one}, {})
    t2 = Task("use", Box.from_shape(extent),
              [Accessor("u", AccessMode.READ, Neighborhood((1,) * dims), name="r_u"),
               Accessor("z", AccessMode.WRITE)],
              {"z": one}, {})
    bufs = {"u": Buffer("u", Box.from_shape(extent), "float64",
                        BufferInit.uninitialized()),
            "z": Buffer("z", Box.from_shape(extent), "float64", BufferInit.iota())}
    g = graph_of(bufs, t1, t2)
    with pytest.raises(UninitializedReadError) as info:
        generate_commands(g, nodes)
    assert str(info.value) == (
        f"task 'use' (id 2) reads {uncovered} of buffer 'u' which was never "
        f"written or host-initialized"
    )


def test_uninitialized_ok_after_full_write():
    t1 = simple_task(name="fill", writes=("u",))
    t2 = simple_task(name="use", reads=("u",), writes=("z",))
    bufs = {"u": Buffer("u", Box.from_shape((8,)), "float64",
                        BufferInit.uninitialized()),
            "z": fbuf("z")}
    g = graph_of(bufs, t1, t2)
    plan = generate_commands(g, 2)  # must not raise
    assert len(push_commands(plan)) == 0  # aligned chunks, data stays put
    check_plan(plan, g.buffers)


def test_partial_write_mixed_versions():
    # write only [0,4), then read everything: the read mixes v1 and v2 data
    from clusterq.model import All
    t1 = simple_task(name="half", writes=("x",), n=4)
    t2 = simple_task(name="rd", reads=("x",), writes=("z",), n=8,
                     mappers={"x": All()})
    g = graph_of({"x": fbuf("x"), "z": fbuf("z")}, t1, t2)
    plan = generate_commands(g, 2)
    check_plan(plan, g.buffers)
    # t1 split leaves x as [0,2) v2 on n0, [2,4) v2 on n1, [4,8) v1 on n0;
    # node 1 receives exactly what it lacks, mixing fresh and initial data
    incoming = [p for p in push_commands(plan) if p.dst == 1 and p.buffer == "x"]
    got = Region.empty(1)
    for p in incoming:
        got = got.union(p.region)
    assert got == Region(1, [Box((0,), (2,)), Box((4,), (8,))])
    versions = {p.version for p in incoming}
    assert versions == {1, 2}


def test_command_ids_sequential_and_deps_mostly_backward():
    """Deps point backward, except WAR capture edges ordering an execute
    after a later-numbered push that snapshots data the execute overwrites."""
    rng = random.Random(23)
    for _ in range(20):
        buffers, tasks = random_workload(rng)
        g = TaskGraph(buffers)
        for t in tasks:
            g.submit(t)
        plan = generate_commands(g, rng.choice((2, 3, 4)))
        assert [c.id for c in plan.commands] == list(range(len(plan.commands)))
        for c in plan.commands:
            for d in c.deps:
                if d < c.id:
                    continue
                p = plan.commands[d]
                assert isinstance(c, ExecuteCommand)
                assert isinstance(p, PushCommand)
                assert p.src == c.node
                assert any(b == p.buffer and r.intersect(p.region)
                           for _n, b, r, _v in c.writes)


def test_check_plan_on_random_workloads():
    rng = random.Random(31)
    for _ in range(25):
        buffers, tasks = random_workload(rng)
        g = TaskGraph(buffers)
        for t in tasks:
            g.submit(t)
        for nodes in (1, 3, 5):
            plan = generate_commands(g, nodes)
            check_plan(plan, g.buffers)


def test_chunks_beyond_range_get_no_commands():
    t = simple_task(n=2)
    g = graph_of({"z": fbuf("z", 2)}, t)
    plan = generate_commands(g, 4)
    assert len(plan.executes()) == 2
    assert {e.node for e in plan.executes()} == {0, 1}


def test_device_count_validation():
    g = graph_of({"z": fbuf("z")}, simple_task())
    with pytest.raises(ValidationError):
        generate_commands(g, 3, devices=[DeviceModel(), DeviceModel()])


def test_node_count_bounded_before_devices_resolve():
    g = graph_of({"z": fbuf("z")}, simple_task())
    # a device list of the wrong length would fail too; the bound comes first
    with pytest.raises(ValidationError,
                       match=f"node count {MAX_NODES + 1} exceeds the maximum of {MAX_NODES}$"):
        generate_commands(g, MAX_NODES + 1, devices=[DeviceModel(), DeviceModel()])


def test_final_locations_snapshot():
    t = simple_task(reads=("x",), writes=("z",))
    g = graph_of({"x": fbuf("x"), "z": fbuf("z")}, t)
    plan = generate_commands(g, 2)
    z_entries = plan.final_locations["z"]
    # z was fully rewritten at version 2, split across the two writers
    assert sorted((str(r), v, sorted(h)) for r, v, h in z_entries) == [
        ("{[0,4)}", 2, [0]), ("{[4,8)}", 2, [1])]


def test_export_command_graph_dot():
    g = graph_of({"x": fbuf("x"), "y": fbuf("y"), "z": fbuf("z")},
                 simple_task(name="saxpy", reads=("x", "y"), writes=("z",)))
    plan = generate_commands(g, 2)
    dot = export_command_graph(plan)
    assert dot.startswith("digraph commands {")
    assert dot.count("Execute") == 2
    assert dot.count("Push") == 4  # 2 Push + 2 AwaitPush labels
    assert dot.count("AwaitPush") == 2
    assert "C0 -> C1;" in dot
    for cmd in plan.commands:
        assert f"C{cmd.id} [label=" in dot


# ------------------------------------------------------- frequency assignment

TARGETS = list(EnergyTarget)
DEVICE_POOL = (
    DeviceModel(),
    DeviceModel(levels_ghz=(0.6, 0.9, 1.2, 1.8, 2.4), f_ref_ghz=1.2, p_static_w=4.0,
                p_dyn_ref_w=15.0, alpha_exp=2.5, throughput_ref=5e8),
    DeviceModel(levels_ghz=(0.8, 1.6), f_ref_ghz=0.8, p_static_w=0.0, throughput_ref=2e9),
)


def structure(plan):
    """Every command, with copies of the Executes whose frequencies are blanked out."""
    commands = []
    for c in plan.commands:
        if isinstance(c, ExecuteCommand):
            c = copy.copy(c)
            c.frequency_ghz = None
        commands.append(c)
    return commands


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 4), data=st.data())
def test_plan_structure_does_not_depend_on_target(seed, nodes, data):
    buffers, tasks = random_workload(random.Random(seed))
    for task in tasks:
        task.target = data.draw(st.sampled_from([None] + TARGETS))
        task.beta = data.draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
    devices = [data.draw(st.sampled_from(DEVICE_POOL)) for _ in range(nodes)]
    scenario = Scenario(buffers=list(buffers.values()), tasks=tasks, devices=devices)
    graph = TaskGraph(buffers)
    for task in tasks:
        graph.submit(task)
    base = generate_commands(graph, nodes, devices=devices)
    assert all(e.frequency_ghz == devices[e.node].levels_ghz[-1] for e in base.executes())

    for target in TARGETS:
        plan = plan_scenario(scenario, nodes, target)
        assert structure(plan) == structure(base)
        assert plan.final_locations == base.final_locations
        assert plan.target is target
        for exe in plan.executes():
            task = graph.task(exe.task_id)
            device = devices[exe.node]
            t_ref = Fraction(exe.box.volume()) / Fraction(device.throughput_ref)
            chosen = task.target if task.target is not None else target
            assert exe.frequency_ghz == select_frequency(device, chosen, t_ref, task.beta)

        again = generate_commands(graph, nodes, devices=devices)
        assign_frequencies(again, target)
        assert again.commands == plan.commands


@pytest.mark.parametrize("beta", (0.0, 0.5, 1.0))
def test_one_selection_per_device_target_and_beta(beta):
    # 7 cells over 3 nodes: chunks of 3, 2 and 2 cells, so t_ref differs.
    task = simple_task(n=7, reads=("x",))
    task.beta = beta
    graph = graph_of({"x": fbuf("x", 7), "z": fbuf("z", 7)}, task)
    device = DEVICE_POOL[1]
    for target in TARGETS:
        plan = generate_commands(graph, 3, devices=device)
        with mock.patch.object(scheduler, "select_frequency", wraps=select_frequency) as spy:
            assign_frequencies(plan, target)
        assert spy.call_count == 1
        assert [e.box.volume() for e in plan.executes()] == [3, 2, 2]
        for exe in plan.executes():
            t_ref = Fraction(exe.box.volume()) / Fraction(device.throughput_ref)
            assert exe.frequency_ghz == select_frequency(device, target, t_ref, beta)
