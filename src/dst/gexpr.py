"""Scalar-function expression language for the functional calculus.

Grammar (EBNF, also reproduced in the README):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;              (* right associative *)
    atom   = NUMBER | "lambda" | "i"
           | NAME "(" expr ")" | "(" expr ")" ;

Precedence, low to high: add/sub, mul/div, unary minus, power, atoms.
``NUMBER`` is a nonnegative decimal with an optional fraction and exponent
("2", "3.5", ".5", "1e-3"). ``i`` is the imaginary unit. There is no
implicit multiplication: "2lambda" is a syntax error. The callable names
are whitelisted; evaluation is plain complex arithmetic with principal
branches for log and sqrt.
"""

from __future__ import annotations

import cmath
import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

from .errors import EvalError, ExprSyntaxError, UnknownFunction, UnknownIdentifier

__all__ = ["GExpr", "Number", "Var", "Neg", "BinOp", "Call", "parse", "evaluate", "compile_expr"]


@dataclass(frozen=True)
class Number:
    value: complex


@dataclass(frozen=True)
class Var:
    """The integration variable, written ``lambda``."""


@dataclass(frozen=True)
class Neg:
    operand: "GExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "GExpr"
    right: "GExpr"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "GExpr"


GExpr = Union[Number, Var, Neg, BinOp, Call]


def _safe_log(z: complex) -> complex:
    if z == 0:
        raise EvalError("log(0) is undefined")
    return cmath.log(z)


FUNCTIONS: dict[str, Callable[[complex], complex]] = {
    "exp": cmath.exp,
    "log": _safe_log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sqrt": cmath.sqrt,
    "abs": lambda z: complex(abs(z)),
    "re": lambda z: complex(z.real),
    "im": lambda z: complex(z.imag),
    "conj": lambda z: z.conjugate(),
}

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, char pos)
        pos = 0
        while pos < len(src):
            m = _TOKEN.match(src, pos)
            if m is None:
                raise ExprSyntaxError(
                    f"unexpected character {src[pos]!r}", _byte_offset(src, pos)
                )
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(src)))
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message: str, pos: int):
        raise ExprSyntaxError(message, _byte_offset(self.src, pos))

    def parse(self) -> GExpr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            self.fail(f"unexpected token {text!r}", pos)
        return e

    def expr(self) -> GExpr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> GExpr:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> GExpr:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> GExpr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> GExpr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Number(complex(float(text)))
        if kind == "name":
            if text == "lambda":
                return Var()
            if text == "i":
                return Number(1j)
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {text!r}", _byte_offset(self.src, pos))
                self.advance()
                arg = self.expr()
                k2, t2, p2 = self.advance()
                if t2 != ")":
                    self.fail("expected ')'", p2)
                return Call(text, arg)
            raise UnknownIdentifier(f"unknown identifier {text!r}", _byte_offset(self.src, pos))
        if text == "(":
            e = self.expr()
            k2, t2, p2 = self.advance()
            if t2 != ")":
                self.fail("expected ')'", p2)
            return e
        self.fail(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(src: str) -> GExpr:
    """Parse expression text into an AST. Errors carry a byte offset."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


def evaluate(e: GExpr, lam: complex) -> complex:
    """Evaluate at ``lambda = lam`` in complex arithmetic."""
    return compile_expr(e)(lam)


def compile_expr(e: GExpr) -> Callable[[complex], complex]:
    """``lam -> evaluate(e, lam)`` with the tree walked once, for an
    expression evaluated at many points: the same operations in the same
    order, so the same bits and the same errors."""
    if isinstance(e, Number):
        value = e.value
        return lambda lam: value
    if isinstance(e, Var):
        return complex
    if isinstance(e, Neg):
        operand = compile_expr(e.operand)
        return lambda lam: -operand(lam)
    if isinstance(e, Call):
        name, arg, fn = e.name, compile_expr(e.arg), FUNCTIONS[e.name]

        def call(lam):
            z = arg(lam)
            try:
                return fn(z)
            except (OverflowError, ValueError) as exc:
                raise EvalError(f"{name} failed at {z}: {exc}") from exc

        return call
    if isinstance(e, BinOp):
        op, left, right = e.op, compile_expr(e.left), compile_expr(e.right)
        if op not in _BINARY:
            raise TypeError(f"not a GExpr node: {e!r}")
        apply = _BINARY[op]

        def binary(lam):
            a, b = left(lam), right(lam)
            try:
                return apply(a, b)
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise EvalError(f"arithmetic failure in {op!r}: {exc}") from exc

        return binary
    raise TypeError(f"not a GExpr node: {e!r}")


def _divide(a: complex, b: complex) -> complex:
    if b == 0:
        raise EvalError("division by zero")
    return a / b


_BINARY: dict[str, Callable[[complex, complex], complex]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "^": operator.pow,
}
