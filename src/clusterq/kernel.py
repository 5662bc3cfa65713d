"""Arithmetic kernel language: AST, recursive-descent parser, printer, evaluators.

Grammar (whitespace insignificant between tokens):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-'? factor
    factor := number | param | id_component | access | '(' expr ')'
    access := name '[' index (',' index)* ']'
    index  := 'i' '.' digit (('+' | '-') integer)?

A bare `i` stands for `i.0` when the kernel is one-dimensional. The j-th index
of an access must use component i.j; offsets must be integer literals.

Evaluation is depth-first, left to right. Float context follows IEEE binary64
(division by zero yields inf/nan, never an exception). Integer context uses
wrapping 64-bit semantics for + - * and truncating division; integer division
by zero raises EvalError. Literals and parameters in an integer expression
must be integers in [-2**63, 2**63); task validation rejects any other value.

Two evaluators share these semantics. `eval_kernel` walks the tree for one id
and is the reference. `compile_kernel` turns a body into a numpy program that
evaluates a whole box of ids at once, bit for bit like the reference, and
declines (returns None) for a box on which the reference raises; `eval_box`
then runs the reference over that box to raise its exact error. The caller
that stores a float result stores every NaN as the canonical quiet NaN
0x7ff8000000000000, the one JSON `NaN` parses to, because the sign bit of a
computed NaN depends on the hardware and on which operand numpy or CPython
propagates.
"""

import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Union

import numpy as np

from .errors import EvalError, KernelNameError, KernelSyntaxError


@dataclass(frozen=True)
class Num:
    value: Union[int, float]


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class IdComponent:
    axis: int


@dataclass(frozen=True)
class Read:
    accessor: str
    offsets: tuple[int, ...]


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Param, IdComponent, Read, Neg, BinOp]

_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+")
_NAME = re.compile(r"[A-Za-z_]\w*")


class _Parser:
    def __init__(self, text, reads, params, dims):
        self.text = text
        self.reads = dict(reads)
        self.params = set(params)
        self.dims = dims
        self.pos = 0

    def parse(self):
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise KernelSyntaxError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return expr

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            got = self.peek() or "end of input"
            raise KernelSyntaxError(f"expected {ch!r}, got {got!r}", self.pos)
        self.pos += 1

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.factor())
        return self.factor()

    def factor(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit():
            return Num(self.number())
        m = _NAME.match(self.text, self.pos)
        if not m:
            got = ch or "end of input"
            raise KernelSyntaxError(f"expected a value, got {got!r}", self.pos)
        name = m.group(0)
        start = self.pos
        self.pos = m.end()
        if name == "i":
            return IdComponent(self.id_axis(start))
        if self.peek() == "[":
            return self.access(name, start)
        if name in self.params:
            return Param(name)
        if name in self.reads:
            raise KernelNameError(f"accessor '{name}' must be indexed, e.g. {name}[i.0]")
        raise KernelNameError(f"unknown name '{name}'")

    def number(self):
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise KernelSyntaxError("malformed number", self.pos)
        start, self.pos = self.pos, m.end()
        tok = m.group(0)
        if "." in tok or "e" in tok or "E" in tok:
            return float(tok)
        try:
            return int(tok)
        except ValueError:  # more digits than the interpreter converts
            raise KernelSyntaxError(
                f"integer literal of {len(tok)} digits is too long", start
            ) from None

    def id_axis(self, start):
        """Axis for an `i` already consumed; handles the 1D bare-i shorthand."""
        if self.peek() == ".":
            self.pos += 1
            ch = self.peek()
            if not ch.isdigit():
                raise KernelSyntaxError("expected an axis digit after 'i.'", self.pos)
            self.pos += 1
            axis = int(ch)
            if axis >= self.dims:
                raise KernelSyntaxError(
                    f"id component i.{axis} out of range for a {self.dims}D kernel", start
                )
            return axis
        if self.dims != 1:
            raise KernelSyntaxError("bare 'i' is only valid in 1D; use i.<axis>", start)
        return 0

    def access(self, name, start):
        if name not in self.reads:
            raise KernelNameError(f"unknown accessor '{name}'")
        self.expect("[")
        offsets = []
        while True:
            offsets.append(self.index(len(offsets)))
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            break
        arity = self.reads[name]
        if len(offsets) != arity:
            raise KernelSyntaxError(
                f"accessor '{name}' takes {arity} indices, got {len(offsets)}", start
            )
        return Read(name, tuple(offsets))

    def index(self, position):
        m = _NAME.match(self.text, self.pos) if self.peek() else None
        if not m or m.group(0) != "i":
            if m:
                raise KernelNameError(f"unknown name '{m.group(0)}' in index")
            got = self.peek() or "end of input"
            raise KernelSyntaxError(f"expected an id component, got {got!r}", self.pos)
        start = self.pos
        self.pos = m.end()
        axis = self.id_axis(start)
        if axis != position:
            raise KernelSyntaxError(f"index {position} must use i.{position}", start)
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
            self.skip_ws()
            m = re.match(r"\d+", self.text[self.pos :])
            if not m:
                raise KernelSyntaxError("accessor offset must be a constant integer", self.pos)
            self.pos += len(m.group(0))
            return int(m.group(0)) if ch == "+" else -int(m.group(0))
        return 0


def parse_kernel(text, reads, params, dims) -> Expr:
    """Parse kernel text against declared read accessors and parameters.

    reads maps accessor name to its index arity; params is the set of scalar
    parameter names; dims is the kernel's iteration dimensionality. Text
    nested too deeply for the interpreter's stack is a syntax error.
    """
    parser = _Parser(text, reads, params, dims)
    try:
        return parser.parse()
    except RecursionError:
        raise KernelSyntaxError("expression nested too deeply", parser.pos) from None


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC[expr.op]
    if isinstance(expr, Neg):
        return 3
    return 4


def format_kernel(expr) -> str:
    """Canonical text for an expression; reparsing yields an identical tree.
    Iterative, so deep trees need no recursion."""
    texts = []  # the text of each operand not yet consumed
    for node in _postorder(expr):
        if isinstance(node, Num):
            texts.append(repr(node.value))
        elif isinstance(node, Param):
            texts.append(node.name)
        elif isinstance(node, IdComponent):
            texts.append(f"i.{node.axis}")
        elif isinstance(node, Read):
            idx = ", ".join(
                f"i.{j}" if off == 0 else f"i.{j}{off:+d}" for j, off in enumerate(node.offsets)
            )
            texts.append(f"{node.accessor}[{idx}]")
        elif isinstance(node, Neg):
            inner = texts[-1]
            if _prec(node.operand) < 4:
                inner = f"({inner})"
            texts[-1] = f"-{inner}"
        elif isinstance(node, BinOp):
            right = texts.pop()
            if _prec(node.right) <= _PREC[node.op]:
                right = f"({right})"
            left = texts[-1]
            if _prec(node.left) < _PREC[node.op]:
                left = f"({left})"
            texts[-1] = f"{left} {node.op} {right}"
        else:
            raise TypeError(f"not a kernel expression: {node!r}")
    return texts[0]


def walk(expr):
    """Yield every node of the expression tree, depth first, each node before
    its operands and left before right. Iterative, so deep trees need no
    recursion."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)


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


def eval_kernel(expr, idx, views, params, integer=False):
    """Evaluate one element. idx is the global id tuple; views maps accessor
    name to a read view exposing read(point); params maps name to value.
    Iterative, so deep trees need no recursion."""
    return _eval(_postorder(expr), idx, views, params, integer)


def _eval(order, idx, views, params, integer):
    """eval_kernel over the nodes in _postorder's evaluation order."""
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
    """eval_kernel at every id of box in row-major order, as an array of the
    box's shape. It raises the error of the first failing id."""
    order = _postorder(expr)
    points = product(*(range(lo, hi) for lo, hi in zip(box.mins, box.maxs)))
    values = [_eval(order, point, views, params, integer) for point in points]
    return np.array(values, dtype=np.int64 if integer else np.float64).reshape(box.shape)


class _Declined(Exception):
    """The compiled program cannot reproduce the reference on this box."""


def _postorder(expr) -> list:
    """Nodes in evaluation order: operands left to right, then the operator.
    Iterative, so deep trees need no recursion."""
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
    order.reverse()
    return order


def _int_div(a, b):
    """Truncating int64 division. Floor division wraps INT64_MIN / -1 to
    INT64_MIN like wrap_i64; an inexact quotient of mixed signs then moves
    one step toward zero."""
    if np.any(b == 0):
        raise _Declined
    q = np.floor_divide(a, b)
    return q + ((q * b != a) & ((a < 0) != (b < 0)))


_FLOAT_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}
_INT_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _int_div}


def compile_kernel(expr, integer=False):
    """Compile a body to evaluate(box, views, params) over a whole box.

    evaluate returns an array of box.shape holding eval_kernel's value for
    every id of the box, or None when eval_kernel would raise for some id:
    a read outside its view's mapped region or an int64 division by zero.
    views maps accessor name to an object whose gather(mins, maxs, offsets)
    returns the reads of every id as an array over the read buffer's axes,
    or None when one falls outside the mapped region. A read buffer with
    fewer axes than the kernel broadcasts along the trailing kernel axes.
    evaluate never writes into a gathered array, and its result may be one,
    so a caller copies the result out rather than writing into it. Float
    division needs no special case: IEEE division by zero gives the
    values _ieee_div spells out, up to the sign bit of a NaN.
    """
    dtype = np.int64 if integer else np.float64
    convert = int if integer else float
    ops = _INT_OPS if integer else _FLOAT_OPS
    program = []
    for node in _postorder(expr):
        if isinstance(node, Num):
            program.append((Num, dtype(convert(node.value))))
        elif isinstance(node, BinOp):
            program.append((BinOp, ops[node.op]))
        elif isinstance(node, (Param, IdComponent, Read, Neg)):
            program.append((type(node), node))
        else:
            raise TypeError(f"not a kernel expression: {node!r}")

    def evaluate(box, views, params):
        dims = len(box.mins)
        stack = []
        with np.errstate(all="ignore"):
            try:
                for kind, arg in program:
                    if kind is BinOp:
                        b = stack.pop()
                        stack[-1] = arg(stack[-1], b)
                    elif kind is Num:
                        stack.append(arg)
                    elif kind is Read:
                        values = views[arg.accessor].gather(box.mins, box.maxs, arg.offsets)
                        if values is None:
                            raise _Declined
                        trailing = (1,) * (dims - values.ndim)
                        stack.append(values.reshape(values.shape + trailing))
                    elif kind is IdComponent:
                        shape = [1] * dims
                        shape[arg.axis] = -1
                        ids = np.arange(box.mins[arg.axis], box.maxs[arg.axis], dtype=dtype)
                        stack.append(ids.reshape(shape))
                    elif kind is Param:
                        stack.append(dtype(convert(params[arg.name])))
                    else:
                        stack[-1] = np.negative(stack[-1])
            except _Declined:
                return None
        result = stack[0]
        shape = box.shape
        return result if np.shape(result) == shape else np.broadcast_to(result, shape)

    return evaluate
