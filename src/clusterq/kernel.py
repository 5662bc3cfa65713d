"""Arithmetic kernel language: AST, recursive-descent parser, printer, evaluator.

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

`compile_kernel` turns a body into a numpy program that evaluates a whole box
of ids at once. On a box where some id fails, it raises the error of the
first failing id in row-major order, and at that id the error of the first
failing operation in evaluation order. The caller that stores a float result
stores every NaN as the canonical quiet NaN 0x7ff8000000000000, the one JSON
`NaN` parses to, because the sign bit of a computed NaN depends on the
hardware and on which operand numpy propagates.
"""

import re
from dataclasses import dataclass
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
_DIGITS = re.compile(r"\d+")


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
        tok = m.group(0)
        if "." in tok or "e" in tok or "E" in tok:
            self.pos = m.end()
            return float(tok)
        return self.integer(m)

    def integer(self, m):
        """The value of the digits m matched at pos, consumed."""
        start, self.pos = self.pos, m.end()
        try:
            return int(m.group(0))
        except ValueError:  # more digits than the interpreter converts
            raise KernelSyntaxError(
                f"integer literal of {len(m.group(0))} digits is too long", start
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
            m = _DIGITS.match(self.text, self.pos)
            if not m:
                raise KernelSyntaxError("accessor offset must be a constant integer", self.pos)
            value = self.integer(m)
            return value if ch == "+" else -value
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
    for node in postorder(expr):
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


def postorder(expr) -> list:
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
    """Truncating int64 division by a divisor with no zero. Floor division
    wraps INT64_MIN / -1 to INT64_MIN as two's complement does; an inexact
    quotient of mixed signs then moves one step toward zero."""
    q = np.floor_divide(a, b)
    return q + ((q * b != a) & ((a < 0) != (b < 0)))


_FLOAT_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}
_INT_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _int_div}


def compile_kernel(expr, integer=False):
    """Compile a body to evaluate(box, views, params) over a whole box.

    evaluate returns an array of box.shape holding the body's value at every
    id of the box, or raises the error of the first failing id: a read
    outside its view's mapped region (MapperViolationError) or an int64
    division by zero (EvalError). views maps accessor name to a ReadView.
    A read buffer with fewer axes than the kernel broadcasts along the
    trailing kernel axes. evaluate never writes into a gathered array, and
    its result may be one, so a caller copies the result out rather than
    writing into it. Float division needs no special case: IEEE division by
    zero gives inf or NaN.

    A read whose gather declines is taken again with its clamped values and
    a mask of the ids it fails at; a zero divisor records its mask and
    divides by 1 there. Values at a failed id are garbage, but only from the
    first failing operation on, so at the first id in row-major order where
    any mask is set, the first failing operation in evaluation order is the
    one whose error is raised.
    """
    dtype = np.int64 if integer else np.float64
    convert = int if integer else float
    ops = _INT_OPS if integer else _FLOAT_OPS
    program = []
    for node in postorder(expr):
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
        failures = []  # (mask, Read node or None for a zero divisor), in program order
        with np.errstate(all="ignore"):
            for kind, arg in program:
                if kind is BinOp:
                    b = stack.pop()
                    if arg is _int_div:
                        zero = b == 0
                        if zero.any():
                            failures.append((zero, None))
                            b = np.where(zero, 1, b)
                    stack[-1] = arg(stack[-1], b)
                elif kind is Num:
                    stack.append(arg)
                elif kind is Read:
                    view = views[arg.accessor]
                    values = view.gather(box.mins, box.maxs, arg.offsets)
                    trailing = (1,) * (dims - len(arg.offsets))
                    if values is None:
                        values, outside = view.gather_masked(box.mins, box.maxs, arg.offsets)
                        failures.append((outside.reshape(outside.shape + trailing), arg))
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
        if failures:
            raise _first_failure(box, views, failures)
        result = stack[0]
        shape = box.shape
        return result if np.shape(result) == shape else np.broadcast_to(result, shape)

    return evaluate


def _first_failure(box, views, failures):
    """The error of the first failing id of box in row-major order, from the
    first operation in evaluation order whose failure mask is set there."""
    failing = np.zeros(box.shape, dtype=bool)
    for mask, _read in failures:
        failing |= mask
    at = np.unravel_index(np.argmax(failing), box.shape)
    idx = tuple(int(k) + lo for k, lo in zip(at, box.mins))  # Python ints print plainly
    for mask, read in failures:
        if np.broadcast_to(mask, box.shape)[at]:
            if read is None:
                return EvalError(f"integer division by zero at id {idx}")
            return views[read.accessor].violation(
                tuple(p + off for p, off in zip(idx, read.offsets)))
