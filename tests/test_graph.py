"""Task graph construction: region-precise dependency edges."""

import copy
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from clusterq import graph as graph_module
from clusterq.errors import ValidationError
from clusterq.graph import KINDS, DepKind, TaskGraph
from clusterq.kernel import parse_kernel
from clusterq.model import (
    Accessor,
    AccessMode,
    Buffer,
    BufferInit,
    Fixed,
    Neighborhood,
    OneToOne,
    Task,
    static_footprint_check,
    validate_task,
)
from clusterq.region import Box, Region

from helpers import full_scan_graph, predecessors, random_workload


def buf(name, n=8, kind="float64", init=None):
    return Buffer(name, Box.from_shape((n,)), kind, init or BufferInit.iota())


def task(name, reads=(), writes=("z",), n=8, read_mappers=None, body_src=None):
    accs = []
    arity = {}
    for r in reads:
        mapper = (read_mappers or {}).get(r, OneToOne())
        accs.append(Accessor(r, AccessMode.READ, mapper, name=f"r_{r}"))
        arity[f"r_{r}"] = 1
    for w in writes:
        accs.append(Accessor(w, AccessMode.WRITE))
    if body_src is None:
        body_src = " + ".join(f"r_{r}[i]" for r in reads) or "1"
    body = {w: parse_kernel(body_src, arity, set(), 1) for w in writes}
    return Task(name=name, global_range=Box.from_shape((n,)), accessors=accs,
                body=body, params={})


def test_submit_assigns_ids_from_one():
    g = TaskGraph({"x": buf("x"), "z": buf("z")})
    t1 = g.submit(task("a", reads=("x",)))
    t2 = g.submit(task("b", reads=("x",)))
    ids = [t.id for t in g.tasks]
    assert ids == [1, 2]
    assert g.task(1).name == "a"
    assert g.task(2).name == "b"


def test_raw_edge_with_region():
    g = TaskGraph({"x": buf("x"), "z": buf("z"), "w": buf("w")})
    g.submit(task("producer", reads=("x",), writes=("z",)))
    g.submit(task("consumer", reads=("z",), writes=("w",)))
    edges = [e for e in g.edges if e.kind == DepKind.RAW]
    assert len(edges) == 1
    e = edges[0]
    assert (e.src, e.dst, e.buffer) == (1, 2, "z")
    assert e.region == Region.from_box(Box.from_shape((8,)))


def test_war_edge():
    g = TaskGraph({"x": buf("x"), "z": buf("z"), "w": buf("w")})
    g.submit(task("reader", reads=("x",), writes=("w",)))
    g.submit(task("writer", reads=(), writes=("x",)))
    kinds = {(e.src, e.dst): e.kind for e in g.edges}
    assert kinds == {(1, 2): DepKind.WAR}


def test_waw_edge():
    g = TaskGraph({"z": buf("z")})
    g.submit(task("w1"))
    g.submit(task("w2"))
    kinds = [e.kind for e in g.edges]
    assert kinds == [DepKind.WAW]


def test_raw_edge_region_follows_fixed_mapper():
    g = TaskGraph({"x": buf("x"), "z": buf("z"), "w": buf("w")})
    lo = Fixed(Region(1, [Box((0,), (4,))]))
    hi = Fixed(Region(1, [Box((4,), (8,))]))
    # declared requirements only; the bodies read nothing
    g.submit(task("writer", writes=("x",)))
    g.submit(task("r_lo", reads=("x",), writes=("z",), read_mappers={"x": lo},
                  body_src="1"))
    g.submit(task("r_hi", reads=("x",), writes=("w",), read_mappers={"x": hi},
                  body_src="2"))
    raw = [e for e in g.edges if e.kind == DepKind.RAW]
    assert {(e.src, e.dst) for e in raw} == {(1, 2), (1, 3)}
    assert raw[0].region == Region(1, [Box((0,), (4,))])
    assert raw[1].region == Region(1, [Box((4,), (8,))])


def test_rar_produces_no_edge():
    g = TaskGraph({"x": buf("x"), "z": buf("z"), "w": buf("w")})
    g.submit(task("r1", reads=("x",), writes=("z",)))
    g.submit(task("r2", reads=("x",), writes=("w",)))
    assert g.edges == []


def test_edge_order_raw_war_waw():
    # one pair of tasks can carry several kinds at once; edges come out
    # grouped by buffer in sorted order, RAW before WAW within a buffer
    g = TaskGraph({"a": buf("a"), "b": buf("b")})
    g.submit(task("t1", reads=("b",), writes=("a",)))
    g.submit(task("t2", reads=("a",), writes=("a", "b")))
    kinds = [(e.kind, e.buffer) for e in g.edges]
    assert kinds == [
        (DepKind.RAW, "a"),
        (DepKind.WAW, "a"),
        (DepKind.WAR, "b"),
    ]


def test_predecessors_sorted_unique():
    g = TaskGraph({"a": buf("a"), "b": buf("b"), "z": buf("z")})
    g.submit(task("p1", writes=("a",)))
    g.submit(task("p2", writes=("b",)))
    g.submit(task("c", reads=("a", "b"), writes=("z",)))
    assert predecessors(g, 3) == [1, 2]
    assert predecessors(g, 1) == []
    assert g.reduced_predecessors(3) == [1, 2]


def test_stencil_ping_pong_chain():
    g = TaskGraph({"a": buf("a", 16), "b": buf("b", 16, init=BufferInit.zeros())})
    nb = {"a": Neighborhood((1,)), "b": Neighborhood((1,))}
    g.submit(task("s1", reads=("a",), writes=("b",), n=16, read_mappers=nb))
    g.submit(task("s2", reads=("b",), writes=("a",), n=16, read_mappers=nb))
    g.submit(task("s3", reads=("a",), writes=("b",), n=16, read_mappers=nb))
    pairs = {(e.src, e.dst, e.kind) for e in g.edges}
    assert (1, 2, DepKind.RAW) in pairs
    assert (2, 3, DepKind.RAW) in pairs
    assert (1, 2, DepKind.WAR) in pairs  # s2 overwrites what s1 read
    assert (1, 3, DepKind.WAW) in pairs


def test_submit_validates():
    g = TaskGraph({"z": buf("z")})
    bad = task("bad", reads=("missing",), writes=("z",))
    with pytest.raises(ValidationError):
        g.submit(bad)
    assert g.tasks == []  # rejected task must not linger


def test_submit_rejects_footprint_violation():
    g = TaskGraph({"x": buf("x"), "z": buf("z")})
    arity = {"x": 1}
    t = Task(
        name="over", global_range=Box.from_shape((8,)),
        accessors=[Accessor("x", AccessMode.READ, Neighborhood((1,))),
                   Accessor("z", AccessMode.WRITE)],
        body={"z": parse_kernel("x[i-2]", arity, set(), 1)}, params={},
    )
    with pytest.raises(ValidationError, match="footprint"):
        g.submit(t)


def test_topological_order_is_submission_order():
    g = TaskGraph({"a": buf("a"), "z": buf("z")})
    g.submit(task("t1", writes=("a",)))
    g.submit(task("t2", reads=("a",), writes=("z",)))
    g.submit(task("t3", reads=("a",), writes=("a",)))
    assert g.topological_order() == [1, 2, 3]
    # edges only ever point forward, so submission order is topological
    assert all(e.src < e.dst for e in g.edges)


def test_edges_forward_on_random_workloads():
    rng = random.Random(17)
    for _ in range(30):
        buffers, tasks = random_workload(rng)
        g = TaskGraph(buffers)
        for t in tasks:
            g.submit(t)
        assert all(e.src < e.dst for e in g.edges)
        for e in g.edges:
            assert not e.region.is_empty()


def test_to_dot_format():
    g = TaskGraph({"x": buf("x"), "z": buf("z"), "w": buf("w")})
    g.submit(task("make", reads=("x",), writes=("z",)))
    g.submit(task("use", reads=("z",), writes=("w",)))
    dot = g.to_dot()
    assert dot.startswith("digraph tasks {")
    assert 'T1 [label="T1: make"]' in dot
    assert 'T2 [label="T2: use"]' in dot
    assert 'T1 -> T2 [label="RAW z {[0,8)}"]' in dot
    assert dot.rstrip().endswith("}")


def test_to_dot_labels_the_conflict_region():
    g = TaskGraph({"x": buf("x"), "z": buf("z")})
    g.submit(task("head", writes=("z",), n=3))
    g.submit(task("tail", reads=("x",), writes=("z",), n=8,
                  read_mappers={"x": Fixed(Region.from_box(Box((1,), (2,))))},
                  body_src="1"))
    assert 'T1 -> T2 [label="WAW z {[0,3)}"]' in g.to_dot()


def test_reduced_predecessors_drop_implied_edges():
    # T1 -> T2 -> T3 and T1 -> T3: T1 is implied through T2. T4 has edges
    # from T1, T2 and T3; T3 implies the other two.
    g = TaskGraph({"a": buf("a"), "b": buf("b"), "c": buf("c")})
    g.submit(task("t1", reads=("a",), writes=("b",)))
    g.submit(task("t2", reads=("b",), writes=("c",)))
    g.submit(task("t3", reads=("b", "c"), writes=("a",)))
    g.submit(task("t4", reads=("b", "a"), writes=("c",)))
    assert predecessors(g, 3) == [1, 2]
    assert g.reduced_predecessors(3) == [2]
    assert predecessors(g, 4) == [1, 2, 3]
    assert g.reduced_predecessors(4) == [3]
    assert g.reduced_predecessors(1) == []


def test_reduced_predecessors_follow_ancestors_transitively():
    # T1 -> T2 -> T3 -> T4 and T1 -> T4, where T1 is no predecessor of T3.
    g = TaskGraph({name: buf(name) for name in "abcd"})
    g.submit(task("t1", writes=("a",)))
    g.submit(task("t2", reads=("a",), writes=("b",)))
    g.submit(task("t3", reads=("b",), writes=("c",)))
    g.submit(task("t4", reads=("c", "a"), writes=("d",)))
    assert predecessors(g, 3) == [2]
    assert predecessors(g, 4) == [1, 3]
    assert g.reduced_predecessors(4) == [3]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), repeats=st.integers(1, 3))
def test_last_writer_maps_match_full_scan(seed, repeats):
    # The workload's queue submitted `repeats` times over, so that later
    # tasks meet partly overwritten last-writer and reader entries. The
    # recorded edges are a subset of the scan's conflicts that reaches all
    # of them.
    buffers, tasks = random_workload(random.Random(seed))
    g = TaskGraph(buffers)
    for t in tasks * repeats:
        g.submit(copy.copy(t))
    edges, preds, ancestors = full_scan_graph(g)
    scanned = {(src, dst, kind, buffer): boxes for src, dst, kind, buffer, boxes in edges}
    keys = [(e.dst, e.src, e.buffer, KINDS.index(e.kind)) for e in g.edges]
    assert keys == sorted(set(keys))
    sources = {t.id: set() for t in g.tasks}
    for e in g.edges:
        boxes = scanned.get((e.src, e.dst, e.kind.value, e.buffer))
        assert boxes is not None, e
        assert not e.region.is_empty()
        assert Region(e.region.dims, boxes).contains_region(e.region)
        sources[e.dst].add(e.src)
    for t in g.tasks:
        reached = 0
        for p in sources[t.id]:
            reached |= (1 << p) | ancestors[p]
        assert g._ancestors[t.id] == reached == ancestors[t.id]
        want, covered = [], 0
        for p in sorted(preds[t.id], reverse=True):
            if not (covered >> p) & 1:
                want.append(p)
                covered |= ancestors[p]
        assert g.reduced_predecessors(t.id) == sorted(want)


def test_stored_predecessors_stay_linear_on_a_long_chain():
    # A bench-shaped chain: 400 tasks ping-pong a radius-1 stencil between
    # two 64-cell buffers. Each task conflicts with every earlier one (the
    # full scan finds 119,800 edges); through the last-writer maps it records
    # only RAW and WAR from the previous task and WAW from the last writer
    # of its output, so at most 3 edges.
    g = TaskGraph({"a": buf("a", n=64), "b": buf("b", n=64)})
    for k in range(400):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        g.submit(task(f"step{k}", reads=(src,), writes=(dst,), n=64,
                      read_mappers={src: Neighborhood((1,))},
                      body_src=f"r_{src}[i-1] + r_{src}[i] + r_{src}[i+1]"))
    assert len(g.edges) == 3 * 400 - 4
    assert g.reduced_predecessors(400) == [399]


def test_to_dot_lists_the_recorded_dependencies_of_a_ping_pong_chain():
    # The scan also listed RAW b and WAR a from T1 to T4; T4 reaches T1
    # through T3 and T2, whose writes cut T1's entries.
    g = TaskGraph({"a": buf("a", n=4), "b": buf("b", n=4)})
    for k in range(4):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        g.submit(task(f"step{k}", reads=(src,), writes=(dst,), n=4))
    assert g.to_dot() == """digraph tasks {
  T1 [label="T1: step0"];
  T2 [label="T2: step1"];
  T3 [label="T3: step2"];
  T4 [label="T4: step3"];
  T1 -> T2 [label="WAR a {[0,4)}"];
  T1 -> T2 [label="RAW b {[0,4)}"];
  T1 -> T3 [label="WAW b {[0,4)}"];
  T2 -> T3 [label="RAW a {[0,4)}"];
  T2 -> T3 [label="WAR b {[0,4)}"];
  T2 -> T4 [label="WAW a {[0,4)}"];
  T3 -> T4 [label="WAR a {[0,4)}"];
  T3 -> T4 [label="RAW b {[0,4)}"];
}
"""


def test_reader_entries_stay_bounded_on_a_long_chain():
    # A 200-task ping-pong chain whose tasks also read a constant buffer x.
    # Each task depends on every earlier one, so its read of x cuts their
    # reader entries: a later write of x depends on it and reaches them
    # through it.
    g = TaskGraph({"a": buf("a", n=64), "b": buf("b", n=64), "x": buf("x", n=64)})
    for k in range(200):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        g.submit(task(f"step{k}", reads=(src, "x"), writes=(dst,), n=64))
    assert len(g._readers["x"]) <= 1
    overwrite = g.submit(task("overwrite", writes=("x",), n=64))
    assert predecessors(g, overwrite) == list(range(1, 201))
    assert g.reduced_predecessors(overwrite) == [200]


# ------------------------------------------------------------ checks per shape

def fixed_read_task(name, body, stop):
    """z = body over [0, 6), reading x through a fixed mapper over [0, stop)."""
    return Task(name, Box.from_shape((6,)), [
        Accessor("x", AccessMode.READ, Fixed(Region.from_box(Box((0,), (stop,)))), name="r"),
        Accessor("z", AccessMode.WRITE),
    ], {"z": body})


def test_checks_run_once_per_task_shape():
    # One body object, as parsing one text gives: equal shapes are checked
    # once, and fixed mappers over other regions are other shapes.
    body = parse_kernel("r[i] + 1.0", {"r": 1}, set(), 1)
    tasks = [fixed_read_task(f"t{k}", body, stop) for k, stop in enumerate((6, 6, 7, 6, 7))]
    g = TaskGraph({"x": buf("x", 7), "z": buf("z", 6)})
    with mock.patch.object(graph_module, "validate_task", wraps=validate_task) as valid, \
            mock.patch.object(graph_module, "static_footprint_check",
                              wraps=static_footprint_check) as footprint:
        for t in tasks:
            g.submit(t)
    assert valid.call_count == footprint.call_count == 2
    assert [c.args[0].name for c in footprint.call_args_list] == ["t0", "t2"]


def test_failing_shape_after_a_passing_one_still_raises():
    # The second fixed region leaves out cells the body reads.
    body = parse_kernel("r[i]", {"r": 1}, set(), 1)
    g = TaskGraph({"x": buf("x", 6), "z": buf("z", 6)})
    g.submit(fixed_read_task("wide", body, 6))
    with pytest.raises(ValidationError, match="task 'narrow': footprint violations"):
        g.submit(fixed_read_task("narrow", body, 3))
    with pytest.raises(ValidationError, match="task 'narrow': footprint violations"):
        g.submit(fixed_read_task("narrow", body, 3))
    # Beta and the params are part of the key too.
    for field, value, error in (("beta", 2.0, "beta must be within"),
                                ("params", {"r": 1.0}, "accessor and parameter names overlap")):
        bad = fixed_read_task("bad", body, 6)
        setattr(bad, field, value)
        with pytest.raises(ValidationError, match=error):
            g.submit(bad)
    assert len(g.tasks) == 1
