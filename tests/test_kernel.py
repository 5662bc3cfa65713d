"""Kernel expression grammar: parsing, printing, evaluation by the scalar
oracle in helpers and by the compiled program against it."""

import math
import random

import numpy as np
import pytest

from clusterq.errors import EvalError, KernelNameError, KernelSyntaxError
from clusterq.kernel import (
    BinOp,
    IdComponent,
    Neg,
    Num,
    Param,
    Read,
    compile_kernel,
    parse_kernel,
    postorder,
)
from clusterq.model import ReadView
from clusterq.region import Box

from helpers import compile_reference, eval_box, eval_kernel, format_kernel, wrap_i64


class FakeView:
    """Minimal stand-in for a read view: answers from a dict of points."""

    def __init__(self, data):
        self.data = data

    def read(self, point):
        return self.data[point]


def parse1(text, reads=None, params=(), dims=1):
    return parse_kernel(text, reads or {}, set(params), dims)


def test_parse_number_int_vs_float():
    assert parse1("3") == Num(3)
    assert parse1("3.5") == Num(3.5)
    assert parse1("1e3") == Num(1000.0)
    assert parse1("2.0") == Num(2.0)
    assert isinstance(parse1("2.0").value, float)
    assert isinstance(parse1("2").value, int)


def test_parse_precedence():
    e = parse1("1 + 2 * 3")
    assert e == BinOp("+", Num(1), BinOp("*", Num(2), Num(3)))
    e = parse1("(1 + 2) * 3")
    assert e == BinOp("*", BinOp("+", Num(1), Num(2)), Num(3))


def test_parse_left_associative():
    e = parse1("1 - 2 - 3")
    assert e == BinOp("-", BinOp("-", Num(1), Num(2)), Num(3))
    e = parse1("8 / 4 / 2")
    assert e == BinOp("/", BinOp("/", Num(8), Num(4)), Num(2))


def test_parse_unary_minus():
    assert parse1("-3") == Neg(Num(3))
    assert parse1("-(-3)") == Neg(Neg(Num(3)))
    with pytest.raises(KernelSyntaxError):
        parse1("--3")  # grammar allows at most one leading minus
    e = parse1("-x[i] + 2", reads={"x": 1})
    assert e == BinOp("+", Neg(Read("x", (0,))), Num(2))


def test_parse_reads_and_offsets():
    assert parse1("x[i]", reads={"x": 1}) == Read("x", (0,))
    assert parse1("x[i+1]", reads={"x": 1}) == Read("x", (1,))
    assert parse1("x[i-2]", reads={"x": 1}) == Read("x", (-2,))
    e = parse_kernel("s[i.0+1, i.1]", {"s": 2}, set(), 2)
    assert e == Read("s", (1, 0))


def test_parse_id_components():
    assert parse1("i") == IdComponent(0)
    assert parse_kernel("i.1", {}, set(), 2) == IdComponent(1)
    with pytest.raises(KernelSyntaxError):
        parse_kernel("i", {}, set(), 2)  # bare i ambiguous beyond 1D
    with pytest.raises(KernelSyntaxError):
        parse_kernel("i.1", {}, set(), 1)


def test_parse_params():
    e = parse1("alpha * x[i]", reads={"x": 1}, params={"alpha"})
    assert e == BinOp("*", Param("alpha"), Read("x", (0,)))


def test_parse_unknown_name():
    with pytest.raises(KernelNameError):
        parse1("y[i]", reads={"x": 1})
    with pytest.raises(KernelNameError):
        parse1("bogus + 1")


def test_parse_accessor_without_subscript():
    with pytest.raises(KernelNameError):
        parse1("x + 1", reads={"x": 1})


def test_parse_arity_mismatch():
    with pytest.raises(KernelSyntaxError):
        parse_kernel("s[i.0]", {"s": 2}, set(), 2)
    with pytest.raises(KernelSyntaxError):
        parse_kernel("x[i, i]", {"x": 1}, set(), 1)


def test_parse_index_must_be_id_plus_constant():
    with pytest.raises(KernelNameError):
        parse1("x[j]", reads={"x": 1})
    with pytest.raises(KernelSyntaxError):
        parse1("x[i*2]", reads={"x": 1})
    with pytest.raises(KernelSyntaxError):
        parse1("x[1]", reads={"x": 1})
    # wrong axis for the slot
    with pytest.raises(KernelSyntaxError):
        parse_kernel("s[i.1, i.0]", {"s": 2}, set(), 2)


def test_parse_syntax_error_positions():
    with pytest.raises(KernelSyntaxError) as info:
        parse1("1 + ")
    assert info.value.position == 4
    with pytest.raises(KernelSyntaxError) as info:
        parse1("(1 + 2")
    assert info.value.position == 6
    with pytest.raises(KernelSyntaxError):
        parse1("1 2")


def test_postorder_visits_all_nodes():
    e = parse1("alpha * x[i] + 1", reads={"x": 1}, params={"alpha"})
    assert postorder(e) == [Param("alpha"), Read("x", (0,)), e.left, Num(1), e]


def test_postorder_deep_tree_needs_no_recursion():
    e = parse1(" + ".join(["i"] * 5000))
    nodes = postorder(e)
    assert len(nodes) == 9999
    assert isinstance(nodes[0], IdComponent) and nodes[-1] is e


def test_parse_rejects_what_the_parser_cannot_hold():
    with pytest.raises(KernelSyntaxError, match="nested too deeply"):
        parse1("(" * 5000 + "1" + ")" * 5000)
    with pytest.raises(KernelSyntaxError, match="integer literal of 5001 digits is too long"):
        parse1("1" + "0" * 5000)
    with pytest.raises(KernelSyntaxError, match="integer literal of 5000 digits is too long"):
        parse1("x[i - " + "9" * 5000 + "]", reads={"x": 1})


def test_format_round_trip_fixed_cases():
    cases = [
        ("1 + 2 * 3", {}, set(), 1),
        ("(1 + 2) * 3", {}, set(), 1),
        ("1 - (2 - 3)", {}, set(), 1),
        ("-x[i] + alpha", {"x": 1}, {"alpha"}, 1),
        ("s[i.0+1, i.1-2] / 2.5", {"s": 2}, set(), 2),
        ("1 / 2 / 3", {}, set(), 1),
        ("2 * (i + 1)", {}, set(), 1),
    ]
    for text, reads, params, dims in cases:
        e = parse_kernel(text, reads, params, dims)
        printed = format_kernel(e)
        again = parse_kernel(printed, reads, params, dims)
        assert again == e, f"{text!r} -> {printed!r} reparses differently"


def _random_expr(rng, depth, dims):
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Num(rng.randrange(0, 9))
        if leaf == 1:
            return Num(rng.choice((0.5, 2.75, 1.25)))
        if leaf == 2:
            return IdComponent(rng.randrange(dims))
        return Read("v", tuple(rng.randrange(-2, 3) for _ in range(dims)))
    if rng.random() < 0.2:
        return Neg(_random_expr(rng, depth - 1, dims))
    op = rng.choice("+-*/")
    return BinOp(op, _random_expr(rng, depth - 1, dims), _random_expr(rng, depth - 1, dims))


def test_format_round_trip_random():
    rng = random.Random(99)
    for _ in range(300):
        dims = rng.choice((1, 2, 3))
        e = _random_expr(rng, 3, dims)
        printed = format_kernel(e)
        again = parse_kernel(printed, {"v": dims}, set(), dims)
        assert again == e, printed


def test_eval_float_basics():
    e = parse1("alpha * x[i] + y[i]", reads={"x": 1, "y": 1}, params={"alpha"})
    views = {"x": FakeView({(3,): 4.0}), "y": FakeView({(3,): 1.0})}
    assert eval_kernel(e, (3,), views, {"alpha": 2}) == 9.0


def test_eval_left_to_right_depth_first():
    order = []

    class Tracing:
        def read(self, point):
            order.append(point)
            return 1.0

    e = parse_kernel("x[i-1] + x[i+1] * x[i]", {"x": 1}, set(), 1)
    eval_kernel(e, (5,), {"x": Tracing()}, {})
    assert order == [(4,), (6,), (5,)]


def test_eval_division_ieee():
    e = parse1("1 / x[i]", reads={"x": 1})
    assert eval_kernel(e, (0,), {"x": FakeView({(0,): 0.0})}, {}) == math.inf
    e = parse1("-1 / x[i]", reads={"x": 1})
    assert eval_kernel(e, (0,), {"x": FakeView({(0,): 0.0})}, {}) == -math.inf
    e = parse1("0 / x[i]", reads={"x": 1})
    assert math.isnan(eval_kernel(e, (0,), {"x": FakeView({(0,): 0.0})}, {}))


def test_eval_integer_wrapping():
    big = 2 ** 62
    e = BinOp("*", Num(big), Num(4))
    assert eval_kernel(e, (0,), {}, {}, integer=True) == 0
    e = BinOp("+", Num(2 ** 63 - 1), Num(1))
    assert eval_kernel(e, (0,), {}, {}, integer=True) == -(2 ** 63)


def test_eval_integer_division_truncates():
    cases = [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3)]
    for a, b, want in cases:
        e = BinOp("/", Num(a), Num(b))
        assert eval_kernel(e, (0,), {}, {}, integer=True) == want


def test_eval_integer_division_by_zero():
    e = BinOp("/", Num(1), Num(0))
    with pytest.raises(EvalError):
        eval_kernel(e, (0,), {}, {}, integer=True)


def test_wrap_i64():
    assert wrap_i64(2 ** 63) == -(2 ** 63)
    assert wrap_i64(-(2 ** 63) - 1) == 2 ** 63 - 1
    assert wrap_i64(5) == 5


def test_eval_reads_apply_offsets():
    e = parse_kernel("s[i.0+1, i.1-1]", {"s": 2}, set(), 2)
    views = {"s": FakeView({(3, 1): 42.0})}
    assert eval_kernel(e, (2, 2), views, {}) == 42.0


# ------------------------------------------------------------- compiled kernels

I64_MIN, I64_MAX = -(2 ** 63), 2 ** 63 - 1


def box_views(**arrays):
    """Read views over whole arrays."""
    return {name: ReadView(Box.from_shape(arr.shape), arr) for name, arr in arrays.items()}


def both(expr, box, views, params=None, integer=False):
    """Compiled and reference values over box; the compiled ones must exist."""
    got = compile_kernel(expr, integer)(box, views, params or {})
    assert got is not None
    assert got.shape == box.shape
    return got, eval_box(expr, box, views, params or {}, integer)


def test_compiled_matches_reference_on_a_clamped_stencil():
    views = box_views(s=np.arange(20.0).reshape(4, 5))
    e = parse_kernel("s[i.0-1, i.1] + s[i.0+1, i.1] * s[i.0, i.1-2] - i.1 / 3 * p",
                     {"s": 2}, {"p"}, 2)
    for box in (Box((0, 0), (4, 5)), Box((1, 2), (3, 5))):
        got, want = both(e, box, views, {"p": 1.5})
        assert got.tobytes() == want.tobytes()


def test_compiled_read_with_fewer_axes_broadcasts():
    views = box_views(v=np.array([1.0, 2.0, 3.0]))
    e = parse_kernel("v[i.0] * 10 + i.1", {"v": 1}, set(), 2)
    got, want = both(e, Box((1, 0), (3, 4)), views)
    assert got.tolist() == want.tolist() == [[20, 21, 22, 23], [30, 31, 32, 33]]


def test_compiled_int_division_truncates_and_wraps():
    pairs = [(7, 2), (-7, 2), (7, -2), (-7, -2), (I64_MIN, -1), (I64_MIN, 3),
             (I64_MAX, -1), (I64_MIN, I64_MIN), (5, I64_MIN), (0, -3)]
    views = box_views(a=np.array([a for a, _ in pairs]), b=np.array([b for _, b in pairs]))
    e = parse_kernel("a[i] / b[i]", {"a": 1, "b": 1}, set(), 1)
    got, want = both(e, Box((0,), (len(pairs),)), views, integer=True)
    assert got.tolist() == want.tolist() == [3, -3, -3, 3, I64_MIN, -3074457345618258602,
                                             -I64_MAX, 1, 0, 0]


def test_compiled_int_arithmetic_wraps():
    e = parse_kernel("-(p * 4) + (9223372036854775807 + 1) - i", set(), {"p"}, 1)
    got, want = both(e, Box((0,), (3,)), {}, {"p": 2 ** 62}, integer=True)
    assert got.tolist() == want.tolist() == [I64_MIN, I64_MAX, I64_MAX - 1]


def test_compiled_float_division_matches_ieee_div():
    vals = np.array([1.0, -1.0, 0.0, -0.0, math.inf, 2.0])
    views = box_views(a=vals, b=np.array([0.0, 0.0, 0.0, -0.0, -0.0, 3.0]))
    e = parse_kernel("a[i] / b[i]", {"a": 1, "b": 1}, set(), 1)
    got, want = both(e, Box((0,), (6,)), views)
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    assert same.all()


def test_compiled_constant_body_fills_the_box():
    got, want = both(parse_kernel("2 * 3", {}, set(), 2), Box((0, 0), (2, 3)), {},
                     integer=True)
    assert got.tolist() == want.tolist() == [[6, 6, 6], [6, 6, 6]]


def test_compiled_raises_where_reference_raises():
    box = Box((0,), (4,))
    views = box_views(b=np.array([1, 2, 0, 4]))
    e = parse_kernel("8 / b[i]", {"b": 1}, set(), 1)
    for compile_ in (compile_kernel, compile_reference):
        with pytest.raises(EvalError, match=r"^integer division by zero at id \(2,\)$"):
            compile_(e, integer=True)(box, views, {})

    # b's zero is later in the body but earlier in row-major order
    views = box_views(a=np.array([1, 1, 1, 0]), b=np.array([1, 0, 1, 1]))
    e = parse_kernel("8 / a[i] + 8 / b[i]", {"a": 1, "b": 1}, set(), 1)
    for compile_ in (compile_kernel, compile_reference):
        with pytest.raises(EvalError, match=r"^integer division by zero at id \(1,\)$"):
            compile_(e, integer=True)(box, views, {})


def test_compiled_names_a_late_failing_id_in_a_large_box():
    b = np.ones((512, 512), dtype=np.int64)
    b[511, 511] = 0
    e = parse_kernel("i.0 / b[i.0, i.1]", {"b": 2}, set(), 2)
    with pytest.raises(EvalError, match=r"^integer division by zero at id \(511, 511\)$"):
        compile_kernel(e, integer=True)(Box.from_shape((512, 512)), box_views(b=b), {})


def test_compiled_deep_tree_needs_no_recursion():
    e = Num(1)
    for _ in range(5000):
        e = BinOp("-", e, Neg(Num(1)))
    got = compile_kernel(e, integer=True)(Box((0,), (2,)), {}, {})
    assert got.tolist() == [5001, 5001]
