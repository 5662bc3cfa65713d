"""The compiled box evaluator against the scalar reference, through the
simulator: bit-identical buffers and identical error messages."""

import contextlib
import math
import random
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from clusterq import simulator
from clusterq.errors import EvalError, MapperViolationError
from clusterq.graph import TaskGraph
from clusterq.kernel import BinOp, IdComponent, Neg, Num, Param, Read, walk
from clusterq.model import Accessor, AccessMode, Buffer, BufferInit, Fixed, Task
from clusterq.region import Box, Region
from clusterq.scheduler import generate_commands

from helpers import random_workload

INT64_EDGES = (-(2 ** 63), -(2 ** 62), -7, -1, 0, 1, 3, 2 ** 62, 2 ** 63 - 1)
FLOAT_EDGES = (math.inf, -math.inf, math.nan, 0.0, -0.0, -2.0, 1.5, 1e308)


def _decline_every_box(expr, integer):
    """Stands in for compile_kernel so that every box takes the scalar path."""
    return lambda box, views, params: None


def outcome(plan, reference):
    """Final buffers as (dtype, bytes), or the evaluation error's type and text."""
    patch = mock.patch.object(simulator, "compile_kernel", _decline_every_box)
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
    return [node for expr in task.body.values() for node in walk(expr)
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

