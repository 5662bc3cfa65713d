"""Buffers, range mappers, task validation, and runtime read views."""

import copy
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterq.energy import DeviceEnergy, DeviceModel, EnergyReport, EnergyTarget, TaskEnergy
from clusterq.errors import ValidationError
from clusterq.graph import DepKind, Edge, TaskGraph
from clusterq.kernel import BinOp, IdComponent, Neg, Num, Param, Read, parse_kernel
from clusterq.model import (
    Accessor,
    AccessMode,
    All,
    Buffer,
    BufferInit,
    Fixed,
    FootprintViolation,
    Neighborhood,
    OneToOne,
    RangeMapper,
    ReadView,
    Slice,
    Task,
    collect_read_offsets,
    static_footprint_check,
    validate_task,
)
from clusterq.region import Box, Region
from clusterq.scenario import RunBundle, Scenario
from clusterq.scheduler import (
    AwaitPushCommand,
    Command,
    ExecuteCommand,
    Plan,
    PushCommand,
)
from clusterq.simulator import LinkModel, RunResult, TraceEvent
from clusterq.value import Frozen, Value

from helpers import int64_values_item_by_item, random_box, region_bitmap


EXTENT8 = Box.from_shape((8,))


def make_task(body_text, reads=None, writes=("z",), rng=EXTENT8, params=None,
              buffers=None, dims=1):
    reads = reads or []
    params = params or {}
    accs = [Accessor(b, AccessMode.READ, m, name=n) for n, b, m in reads]
    accs += [Accessor(b, AccessMode.WRITE) for b in writes]
    arity = {n: (buffers[b].dims if buffers else dims) for n, b, _ in reads}
    body = {writes[0]: parse_kernel(body_text, arity, set(params), rng.dims)}
    return Task(name="t", global_range=rng, accessors=accs, body=body, params=params)


def std_buffers(**kinds):
    out = {}
    for name in ("x", "y", "z"):
        out[name] = Buffer(name=name, extent=EXTENT8,
                           element_kind=kinds.get(name, "float64"),
                           init=BufferInit.iota())
    return out


# ------------------------------------------------------------------ buffer init

def test_init_zeros_and_iota():
    b = Buffer("b", Box.from_shape((2, 3)), "float64", BufferInit.iota())
    arr = b.init.materialize(b.extent, b.element_kind)
    assert arr.dtype == np.float64
    assert arr.tolist() == [[0, 1, 2], [3, 4, 5]]  # row-major linear ids
    z = BufferInit.zeros().materialize(b.extent, "int64")
    assert z.dtype == np.int64
    assert not z.any()


def test_init_constant_and_values():
    arr = BufferInit.constant(2.5).materialize(EXTENT8, "float64")
    assert (arr == 2.5).all()
    vals = list(range(8))
    arr = BufferInit.explicit(vals).materialize(EXTENT8, "int64")
    assert arr.tolist() == vals


def test_init_validation():
    with pytest.raises(ValidationError):
        Buffer("b", EXTENT8, "int64", BufferInit.constant(1.5))
    with pytest.raises(ValidationError):
        Buffer("b", EXTENT8, "int64", BufferInit.explicit([0.5] * 8))
    with pytest.raises(ValidationError):
        Buffer("b", EXTENT8, "float64", BufferInit.explicit([1, 2]))  # wrong length
    with pytest.raises(ValidationError):
        Buffer("b", EXTENT8, "complex", BufferInit.zeros())


def test_int64_init_accepts_exactly_the_int64_range():
    top, bottom = 2 ** 63 - 1, -(2 ** 63)
    for value in (top, bottom, 3.0, -(2.0 ** 63)):
        arr = Buffer("b", EXTENT8, "int64", BufferInit.constant(value)).init.materialize(
            EXTENT8, "int64")
        assert arr.tolist() == [int(value)] * 8
    vals = [top, bottom, 2.0 ** 62, 0, -1, 5, 6, 7]
    arr = Buffer("b", EXTENT8, "int64", BufferInit.explicit(vals)).init.materialize(
        EXTENT8, "int64")
    assert arr.tolist() == [int(v) for v in vals]
    for value in (2 ** 63, bottom - 1, 2.0 ** 63, 0.5, float("nan"), "3"):
        with pytest.raises(ValidationError, match=r"constant init .* is not an integer"):
            Buffer("b", EXTENT8, "int64", BufferInit.constant(value))
        with pytest.raises(ValidationError, match=rf"init value {re.escape(repr(value))} "
                                                  r"at index 3"):
            Buffer("b", EXTENT8, "int64", BufferInit.explicit([0, 1, 2, value] + [0] * 4))


INT64_ITEMS = st.integers(-2 ** 63, 2 ** 63 - 1)
BAD_INT64 = st.one_of(
    st.integers(2 ** 63, 2 ** 65), st.integers(-2 ** 65, -2 ** 63 - 1),
    st.floats().filter(lambda f: not f.is_integer()), st.booleans(),
    INT64_ITEMS.map(np.int64))  # an np.integer in range is accepted, item by item


@st.composite
def int64_lists(draw):
    """A list of ints in the int64 range, with integral floats in some, and
    in half of them one bad item at a random position."""
    items = draw(st.sampled_from((INT64_ITEMS, st.one_of(
        INT64_ITEMS, st.integers(-2 ** 53, 2 ** 53).map(float)))))
    values = draw(st.lists(items, min_size=1, max_size=8))
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), draw(BAD_INT64))
    return values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=int64_lists())
def test_int64_values_checked_whole_match_the_item_by_item_check(values):
    def build():
        Buffer("b", Box.from_shape((len(values),)), "int64", BufferInit.explicit(values))

    outcomes = []
    for check in (build, lambda: int64_values_item_by_item("b", values)):
        try:
            check()
            outcomes.append(None)
        except ValidationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_validate_int64_params_and_literals_in_range():
    bufs = std_buffers(x="int64", z="int64")
    reads = [("x", "x", OneToOne())]
    ok = make_task("x[i] * p + 9223372036854775807", reads=reads,
                   params={"p": -(2 ** 63)}, buffers=bufs)
    validate_task(ok, bufs)
    for params, text, named in (
            ({"p": 2 ** 63}, "x[i] * p", "parameter 'p' = 9223372036854775808"),
            ({"p": 2.5}, "x[i] * p", "parameter 'p' = 2.5"),
            ({}, "x[i] * 18446744073709551616", "literal 18446744073709551616"),
            ({}, "x[i] * 1.5", "literal 1.5")):
        t = make_task(text, reads=reads, params=params, buffers=bufs)
        with pytest.raises(ValidationError, match=re.escape(named)):
            validate_task(t, bufs)


def test_validate_float_literal_must_fit_binary64():
    bufs = std_buffers()
    largest = int(1.7976931348623157e308)
    validate_task(make_task(f"1e999 + {largest}", buffers=bufs), bufs)
    t = make_task(str(10 ** 400), buffers=bufs)
    with pytest.raises(ValidationError, match=r"literal 10+ in a float64 expression is not "
                                              r"within the binary64 range"):
        validate_task(t, bufs)


def test_uninitialized_flag():
    assert not BufferInit.uninitialized().is_initialized
    assert BufferInit.zeros().is_initialized


def test_buffer_extent_must_start_at_zero():
    with pytest.raises(ValidationError):
        Buffer("b", Box((1,), (4,)), "float64", BufferInit.zeros())


# -------------------------------------------------------------------- mappers

def test_one_to_one_identity():
    chunk = Box((2,), (5,))
    r = OneToOne().map_chunk(chunk, EXTENT8)
    assert r == Region.from_box(chunk)


def test_one_to_one_dims_mismatch():
    with pytest.raises(ValidationError):
        OneToOne().map_chunk(Box((0,), (4,)), Box.from_shape((4, 4)))


def test_neighborhood_clamps_at_borders():
    r = Neighborhood((2,)).map_chunk(Box((0,), (3,)), EXTENT8)
    assert r == Region(1, [Box((0,), (5,))])
    r = Neighborhood((2,)).map_chunk(Box((6,), (8,)), EXTENT8)
    assert r == Region(1, [Box((4,), (8,))])


def test_neighborhood_2d():
    extent = Box.from_shape((6, 6))
    r = Neighborhood((1, 2)).map_chunk(Box((2, 2), (4, 4)), extent)
    assert r == Region(2, [Box((1, 0), (5, 6))])


def test_all_mapper_ignores_chunk():
    extent = Box.from_shape((4, 4))
    r = All().map_chunk(Box((1, 1), (2, 2)), extent)
    assert r == Region.from_box(extent)


def test_fixed_mapper_constant():
    reg = Region(1, [Box((0,), (2,)), Box((6,), (8,))])
    r1 = Fixed(reg).map_chunk(Box((0,), (4,)), EXTENT8)
    r2 = Fixed(reg).map_chunk(Box((4,), (8,)), EXTENT8)
    assert r1 == reg and r2 == reg


def test_slice_mapper_expands_axis():
    extent = Box.from_shape((4, 6))
    r = Slice(1).map_chunk(Box((1, 2), (2, 3)), extent)
    assert r == Region(2, [Box((1, 0), (2, 6))])
    r = Slice(0).map_chunk(Box((1, 2), (2, 3)), extent)
    assert r == Region(2, [Box((0, 2), (4, 3))])


def test_mapper_region_always_inside_extent():
    rng = random.Random(5)
    extent = Box.from_shape((8, 8))
    for _ in range(100):
        chunk = random_box(rng, (8, 8))
        mapper = rng.choice([
            OneToOne(), All(), Slice(rng.randrange(2)),
            Neighborhood((rng.randrange(3), rng.randrange(3))),
            Fixed(Region.from_box(random_box(rng, (8, 8)))),
        ])
        r = mapper.map_chunk(chunk, extent)
        assert Region.from_box(extent).contains_region(r)


# -------------------------------------------------------------- task validation

def test_validate_good_task():
    bufs = std_buffers()
    t = make_task("alpha * x[i] + y[i]",
                  reads=[("x", "x", OneToOne()), ("y", "y", OneToOne())],
                  params={"alpha": 2.0}, buffers=bufs)
    validate_task(t, bufs)  # should not raise


def test_validate_requires_write():
    bufs = std_buffers()
    t = Task(name="t", global_range=EXTENT8,
             accessors=[Accessor("x", AccessMode.READ)], body={}, params={})
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_write_mapper_must_be_one_to_one():
    bufs = std_buffers()
    t = Task(name="t", global_range=EXTENT8,
             accessors=[Accessor("z", AccessMode.WRITE, Neighborhood((1,)))],
             body={"z": parse_kernel("1", {}, set(), 1)}, params={})
    with pytest.raises(ValidationError, match="one_to_one"):
        validate_task(t, bufs)


def test_validate_write_range_within_extent():
    bufs = std_buffers()
    t = Task(name="t", global_range=Box.from_shape((12,)),
             accessors=[Accessor("z", AccessMode.WRITE)],
             body={"z": parse_kernel("1", {}, set(), 1)}, params={})
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_duplicate_accessor_names():
    bufs = std_buffers()
    t = Task(name="t", global_range=EXTENT8,
             accessors=[Accessor("x", AccessMode.READ, name="a"),
                        Accessor("y", AccessMode.READ, name="a"),
                        Accessor("z", AccessMode.WRITE)],
             body={"z": parse_kernel("1", {}, set(), 1)}, params={})
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_reserved_name_i():
    bufs = std_buffers()
    t = Task(name="t", global_range=EXTENT8,
             accessors=[Accessor("x", AccessMode.READ, name="i"),
                        Accessor("z", AccessMode.WRITE)],
             body={"z": parse_kernel("1", {}, set(), 1)}, params={})
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_unknown_buffer():
    bufs = std_buffers()
    t = make_task("q[i]", reads=[("q", "q", OneToOne())], dims=1)
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_element_kind_mismatch():
    bufs = std_buffers(x="int64")  # read int64 into a float64 write
    t = make_task("x[i]", reads=[("x", "x", OneToOne())], buffers=bufs)
    with pytest.raises(ValidationError, match="kind"):
        validate_task(t, bufs)


def test_validate_int_context_rejects_float_literal():
    bufs = std_buffers(x="int64", z="int64")
    arity = {"x": 1}
    body = {"z": parse_kernel("x[i] * 1.5", arity, set(), 1)}
    t = Task(name="t", global_range=EXTENT8,
             accessors=[Accessor("x", AccessMode.READ),
                        Accessor("z", AccessMode.WRITE)],
             body=body, params={})
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_int_context_rejects_float_param():
    bufs = std_buffers(x="int64", z="int64")
    t = make_task("p * x[i]", reads=[("x", "x", OneToOne())],
                  params={"p": 0.5}, buffers=bufs)
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_validate_beta_range():
    bufs = std_buffers()
    t = make_task("x[i]", reads=[("x", "x", OneToOne())], buffers=bufs)
    t.beta = 1.5
    with pytest.raises(ValidationError):
        validate_task(t, bufs)


def test_footprint_check_neighborhood():
    bufs = std_buffers()
    t = make_task("x[i-1] + x[i+1]", reads=[("x", "x", Neighborhood((1,)))],
                  buffers=bufs)
    assert static_footprint_check(t, bufs) == []
    t2 = make_task("x[i-2]", reads=[("x", "x", Neighborhood((1,)))], buffers=bufs)
    violations = static_footprint_check(t2, bufs)
    assert len(violations) == 1
    assert violations[0].offset == (-2,)


def test_footprint_check_one_to_one_offset():
    bufs = std_buffers()
    t = make_task("x[i+1]", reads=[("x", "x", OneToOne())], buffers=bufs)
    assert len(static_footprint_check(t, bufs)) == 1


def test_footprint_check_all_allows_any_offset():
    bufs = std_buffers()
    t = make_task("x[i+2] - x[i-2]", reads=[("x", "x", All())], buffers=bufs)
    assert static_footprint_check(t, bufs) == []


def test_footprint_slice_axis_only():
    extent = Box.from_shape((4, 4))
    bufs = {"m": Buffer("m", extent, "float64", BufferInit.iota()),
            "o": Buffer("o", extent, "float64", BufferInit.zeros())}
    arity = {"m": 2}
    body = {"o": parse_kernel("m[i.0, i.1+1]", arity, set(), 2)}
    t = Task(name="t", global_range=extent,
             accessors=[Accessor("m", AccessMode.READ, Slice(1)),
                        Accessor("o", AccessMode.WRITE)],
             body=body, params={})
    assert static_footprint_check(t, bufs) == []
    body2 = {"o": parse_kernel("m[i.0+1, i.1]", arity, set(), 2)}
    t2 = Task(name="t", global_range=extent,
              accessors=[Accessor("m", AccessMode.READ, Slice(1)),
                         Accessor("o", AccessMode.WRITE)],
              body=body2, params={})
    assert len(static_footprint_check(t2, bufs)) == 1


def test_collect_read_offsets():
    bufs = std_buffers()
    t = make_task("x[i-1] + x[i+1] + x[i-1]",
                  reads=[("x", "x", Neighborhood((1,)))], buffers=bufs)
    offs = collect_read_offsets(t)
    assert offs["x"] == [(-1,), (1,)]


# ------------------------------------------------------------------- read views

def test_read_view_clamps_then_checks():
    # Clamping is the whole of a read at run time; the footprint check at
    # submit is what keeps the clamped cells inside the mapped region.
    data = np.arange(8, dtype=np.float64)
    v = ReadView(EXTENT8, data)
    assert v.gather((0,), (1,), (-3,)).tolist() == [0.0]  # clamped to the low edge
    assert v.gather((0,), (1,), (9,)).tolist() == [7.0]
    assert v.gather((4,), (5,), (0,)).tolist() == [4.0]
    assert v.gather((0,), (3,), (-1,)).tolist() == [0.0, 0.0, 1.0]
    assert v.gather((6,), (8,), (1,)).tolist() == [7.0, 7.0]
    # offsets beyond int64 clamp like any other
    assert v.gather((0,), (2,), (2 ** 70,)).tolist() == [7.0, 7.0]
    assert v.gather((0,), (2,), (-(10 ** 20),)).tolist() == [0.0, 0.0]
    assert v.gather((0,), (3,), (2 ** 63 - 1,)).tolist() == [7.0, 7.0, 7.0]


def test_read_view_2d():
    extent = Box.from_shape((3, 4))
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    v = ReadView(extent, data)
    assert v.gather((1, 2), (2, 3), (0, 0)).tolist() == [[6.0]]
    assert v.gather((5, -1), (6, 0), (0, 0)).tolist() == [[data[2, 0]]]


# ------------------------------------------------------------------ value types

def _value_cases():
    """(class, frozen, constructor keyword arguments) for every value type.
    The arguments are in the constructor's order and already in the form the
    constructor stores, so the repr can be written from them."""
    box = Box((0, 0), (2, 3))
    region = Region.from_box(Box((1,), (3,)))
    device = DeviceModel(levels_ghz=(0.5, 1.0), f_ref_ghz=1.0, p_static_w=2.0,
                         p_dyn_ref_w=3.0, alpha_exp=2.0, throughput_ref=1e6)
    write = Accessor("y", AccessMode.WRITE, OneToOne(), "y")
    cases = [
        (Box, True, dict(mins=(0, 0), maxs=(2, 3))),
        (Num, True, dict(value=1.5)),
        (Param, True, dict(name="alpha")),
        (IdComponent, True, dict(axis=1)),
        (Read, True, dict(accessor="x", offsets=(-1,))),
        (Neg, True, dict(operand=Num(2))),
        (BinOp, True, dict(op="+", left=Param("a"), right=Read("x", (0,)))),
        (BufferInit, True, dict(kind="constant", value=2.0, values=None)),
        (Buffer, True, dict(name="x", extent=Box((0,), (2,)), element_kind="int64",
                            init=BufferInit("values", values=(1, 2)))),
        (OneToOne, True, dict()),
        (Neighborhood, True, dict(radii=(1, 2))),
        (Fixed, True, dict(region=region)),
        (All, True, dict()),
        (Slice, True, dict(axis=0)),
        (Accessor, True, dict(buffer="x", mode=AccessMode.READ, mapper=Neighborhood((1,)),
                              name="xs")),
        (Task, False, dict(name="t", global_range=box, accessors=(write,),
                           body={"y": Num(1)}, params={"a": 2.0}, beta=0.5,
                           target=EnergyTarget.MIN_EDP, id=3)),
        (FootprintViolation, True, dict(accessor="x", offset=(1,), reason="outside")),
        (Edge, True, dict(src=1, dst=2, kind=DepKind.RAW, buffer="x", region=region)),
        (ExecuteCommand, False, dict(id=2, deps=(0, 1), task_id=1, box=Box((0,), (2,)),
                                     node=0, frequency_ghz=1.5,
                                     reads=(("x", "x", region),), writes=())),
        (PushCommand, False, dict(id=3, deps=(2,), src=0, dst=1, buffer="x", region=region,
                                  version=1)),
        (AwaitPushCommand, False, dict(id=4, deps=(3,), push=PushCommand(
            3, (2,), 0, 1, "x", region, 1))),
        (Plan, False, dict(graph=TaskGraph({}), node_count=2, commands=[], devices=[device],
                           final_locations={"x": []}, target=None)),
        (LinkModel, True, dict(latency_s=2e-6, bandwidth_bytes_per_s=1e8)),
        (TraceEvent, False, dict(kind="push", node=0, command_id=3, start=Fraction(1, 3),
                                 duration=Fraction(2), bytes=8, frequency_ghz=None,
                                 task_id=None, task_name=None, label="x")),
        (RunResult, False, dict(buffers={"x": [1.0]}, trace=[], makespan=Fraction(1))),
        (DeviceModel, True, dict(levels_ghz=(0.5, 1.0), f_ref_ghz=1.0, p_static_w=2.0,
                                 p_dyn_ref_w=3.0, alpha_exp=2.0, throughput_ref=1e6)),
        (TaskEnergy, False, dict(task_id=1, name="t", duration_s=Fraction(1),
                                 energy_j=Fraction(2), frequency_ghz_per_node={0: 1.0})),
        (DeviceEnergy, False, dict(node=0, energy_j=Fraction(3), busy_s=Fraction(1),
                                   idle_s=Fraction(2), static_power_w=1.0)),
        (EnergyReport, False, dict(per_task=[], per_device=[], makespan_s=Fraction(3))),
        (Scenario, False, dict(buffers=[], tasks=[], nodes=2, devices=None, link=LinkModel(),
                               queue_target=EnergyTarget.MIN_ENERGY,
                               expectations=[("x", [1.0])], path="p")),
        (RunBundle, False, dict(scenario=None, plan=None, result=None, energy=None)),
    ]
    return cases


VALUE_CASES = _value_cases()


def test_value_cases_cover_every_value_type():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    # Frozen and the bases RangeMapper and Command have no constructor of their own.
    assert {cls for cls, _, _ in VALUE_CASES} == \
        set(subclasses(Value)) - {Frozen, RangeMapper, Command}
    assert len(VALUE_CASES) == 31


@pytest.mark.parametrize("cls, frozen, kwargs", VALUE_CASES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_CASES])
def test_value_semantics(cls, frozen, kwargs):
    a = cls(**kwargs)
    b = cls(*kwargs.values())
    assert a == b and not a != b
    assert copy.copy(a) == a and type(copy.copy(a)) is cls
    args = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(a) == f"{cls.__qualname__}({args})"
    assert a != object()
    if not frozen:
        with pytest.raises(TypeError):
            hash(a)
        return
    try:
        expected = hash(tuple(kwargs.values()))
    except TypeError:  # a Region field: unhashable, as the field tuple is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b
