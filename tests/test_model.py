"""Buffers, range mappers, task validation, and runtime read views."""

import random
import re

import numpy as np
import pytest

from clusterq.errors import MapperViolationError, ValidationError
from clusterq.kernel import parse_kernel
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
    apply_mapper,
    collect_read_offsets,
    static_footprint_check,
    validate_task,
)
from clusterq.region import Box, Region

from helpers import random_box, region_bitmap


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
    r = apply_mapper(OneToOne(), chunk, EXTENT8, EXTENT8)
    assert r == Region.from_box(chunk)


def test_one_to_one_dims_mismatch():
    with pytest.raises(ValidationError):
        apply_mapper(OneToOne(), Box((0,), (4,)), EXTENT8, Box.from_shape((4, 4)))


def test_neighborhood_clamps_at_borders():
    r = apply_mapper(Neighborhood((2,)), Box((0,), (3,)), EXTENT8, EXTENT8)
    assert r == Region(1, [Box((0,), (5,))])
    r = apply_mapper(Neighborhood((2,)), Box((6,), (8,)), EXTENT8, EXTENT8)
    assert r == Region(1, [Box((4,), (8,))])


def test_neighborhood_2d():
    extent = Box.from_shape((6, 6))
    r = apply_mapper(Neighborhood((1, 2)), Box((2, 2), (4, 4)), extent, extent)
    assert r == Region(2, [Box((1, 0), (5, 6))])


def test_all_mapper_ignores_chunk():
    extent = Box.from_shape((4, 4))
    r = apply_mapper(All(), Box((1, 1), (2, 2)), extent, extent)
    assert r == Region.from_box(extent)


def test_fixed_mapper_constant():
    reg = Region(1, [Box((0,), (2,)), Box((6,), (8,))])
    r1 = apply_mapper(Fixed(reg), Box((0,), (4,)), EXTENT8, EXTENT8)
    r2 = apply_mapper(Fixed(reg), Box((4,), (8,)), EXTENT8, EXTENT8)
    assert r1 == reg and r2 == reg


def test_slice_mapper_expands_axis():
    extent = Box.from_shape((4, 6))
    r = apply_mapper(Slice(1), Box((1, 2), (2, 3)), extent, extent)
    assert r == Region(2, [Box((1, 0), (2, 6))])
    r = apply_mapper(Slice(0), Box((1, 2), (2, 3)), extent, extent)
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
        r = apply_mapper(mapper, chunk, extent, extent)
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
    data = np.arange(8, dtype=np.float64)
    full = Region.from_box(EXTENT8)
    v = ReadView("x", "x", full, EXTENT8, data)
    assert v.gather((0,), (1,), (-3,)).tolist() == [0.0]  # clamped to the low edge
    assert v.gather((0,), (1,), (9,)).tolist() == [7.0]
    assert v.gather((4,), (5,), (0,)).tolist() == [4.0]
    assert v.gather((0,), (3,), (-1,)).tolist() == [0.0, 0.0, 1.0]
    assert v.gather((6,), (8,), (1,)).tolist() == [7.0, 7.0]
    # offsets beyond int64 clamp like any other
    assert v.gather((0,), (2,), (2 ** 70,)).tolist() == [7.0, 7.0]
    assert v.gather((0,), (2,), (-(10 ** 20),)).tolist() == [0.0, 0.0]
    values, outside = v.gather_masked((0,), (3,), (2 ** 63 - 1,))
    assert values.tolist() == [7.0, 7.0, 7.0] and not outside.any()


def test_read_view_region_violation():
    data = np.arange(8, dtype=np.float64)
    part = Region(1, [Box((0,), (4,))])
    v = ReadView("x", "x", part, EXTENT8, data, context="task 't'")
    assert v.gather((3,), (4,), (0,)).tolist() == [3.0]
    assert v.gather((5,), (6,), (0,)) is None
    values, outside = v.gather_masked((2,), (6,), (0,))
    assert values.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert outside.tolist() == [False, False, True, True]
    error = v.violation((5,))
    assert isinstance(error, MapperViolationError)
    assert str(error) == ("accessor 'x' read (5,) in task 't' outside mapped region {[0,4)} "
                          "of buffer 'x'")


def test_read_view_2d():
    extent = Box.from_shape((3, 4))
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    v = ReadView("s", "s", Region.from_box(extent), extent, data)
    assert v.gather((1, 2), (2, 3), (0, 0)).tolist() == [[6.0]]
    assert v.gather((5, -1), (6, 0), (0, 0)).tolist() == [[data[2, 0]]]
