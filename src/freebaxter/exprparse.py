"""Expression front end for the shuffle algebra.

Grammar (whitespace insensitive; ``P`` followed by ``(`` is the Baxter
operator, any other ``P`` an identifier):

    expr   := signed (('+'|'-') signed)*
    signed := '-' signed | prod
    prod   := pow ('*' pow)*
    pow    := atom ('^' nat)?
    atom   := nat | ident | 'P' '(' expr ')' | '(' expr ')'
            | '[' poly ('|' poly)* ']'

where ``poly`` is the polynomial grammar of ``coeffring.read_polynomial``,
read from the same token cursor.

The printer emits the canonical grammar, so printing then parsing is the
identity on parser output shapes (left-associated chains).
"""

from __future__ import annotations

from typing import Iterable

from .coeffring import (
    Cursor,
    Monomial,
    Polynomial,
    Record,
    Weight,
    _set,
    coeff_var,
    gen_var,
    read_polynomial,
)
from .mixshuffle import baxter_operator, shuffle_product
from .words import ShuffleElement, TensorWord


class ExprNode(Record):
    """Base class for expression AST nodes."""

    __slots__ = ()


class IntLit(ExprNode):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class CoeffVar(ExprNode):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class GenVar(ExprNode):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class WordLit(ExprNode):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Polynomial, ...]):
        _set(self, "factors", factors)


class Add(ExprNode):
    __slots__ = ("left", "right")

    def __init__(self, left: ExprNode, right: ExprNode):
        _set(self, "left", left)
        _set(self, "right", right)


class Sub(ExprNode):
    __slots__ = ("left", "right")

    def __init__(self, left: ExprNode, right: ExprNode):
        _set(self, "left", left)
        _set(self, "right", right)


class Mul(ExprNode):
    __slots__ = ("left", "right")

    def __init__(self, left: ExprNode, right: ExprNode):
        _set(self, "left", left)
        _set(self, "right", right)


class Pow(ExprNode):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ExprNode, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class PApply(ExprNode):
    __slots__ = ("child",)

    def __init__(self, child: ExprNode):
        _set(self, "child", child)


class Neg(ExprNode):
    __slots__ = ("child",)

    def __init__(self, child: ExprNode):
        _set(self, "child", child)


class _Parser:
    def __init__(self, text: str, gens: Iterable[str]):
        self.cur = Cursor(text)
        self.gens = frozenset(gens)

    def _error(self, message: str):
        kind, text, _ = self.cur.peek()
        if kind == "end":
            self.cur.fail(message + " (at end of input)")
        self.cur.fail(f"{message}, found {text!r}")

    def _expect(self, kind: str) -> None:
        if self.cur.accept(kind) is None:
            self._error(f"expected {kind}")

    def parse(self) -> ExprNode:
        node = self.expr()
        if self.cur.peek()[0] != "end":
            self._error("unexpected trailing input")
        return node

    def expr(self) -> ExprNode:
        node = self.signed()
        while True:
            if self.cur.accept("+"):
                node = Add(node, self.signed())
            elif self.cur.accept("-"):
                node = Sub(node, self.signed())
            else:
                return node

    def signed(self) -> ExprNode:
        if self.cur.accept("-"):
            return Neg(self.signed())
        return self.prod()

    def prod(self) -> ExprNode:
        node = self.pow()
        while self.cur.accept("*"):
            node = Mul(node, self.pow())
        return node

    def pow(self) -> ExprNode:
        node = self.atom()
        if self.cur.accept("^"):
            tok = self.cur.accept("nat")
            if tok is None:
                self._error("expected a nonnegative integer exponent")
            node = Pow(node, int(tok[1]))
        return node

    def atom(self) -> ExprNode:
        cur = self.cur
        if tok := cur.accept("nat"):
            return IntLit(int(tok[1]))
        if tok := cur.accept("ident"):
            name = tok[1]
            if name == "P" and cur.accept("("):
                child = self.expr()
                self._expect(")")
                return PApply(child)
            return GenVar(name) if name in self.gens else CoeffVar(name)
        if cur.accept("("):
            node = self.expr()
            self._expect(")")
            return node
        if cur.accept("["):
            factors = [read_polynomial(cur, self.gens)]
            while cur.accept("|"):
                factors.append(read_polynomial(cur, self.gens))
            self._expect("]")
            return WordLit(tuple(factors))
        self._error("expected an expression")


def parse_expr(text: str, gens: Iterable[str] = ()) -> ExprNode:
    return _Parser(text, gens).parse()


_PREC_ADD, _PREC_NEG, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# the left-associated infix nodes: symbol and precedence
_INFIX = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD), Mul: ("*", _PREC_MUL)}


def _left_spine(node: ExprNode) -> tuple[list, ExprNode]:
    """The infix nodes down the left operands from ``node``, outermost
    first, and the first left operand that is not one. A flat sum or
    product is one long spine, so walking it with a loop leaves recursion
    only to real nesting."""
    spine = []
    while type(node) in _INFIX:
        spine.append(node)
        node = node.left
    return spine, node


def _print(node: ExprNode, parent_prec: int) -> str:
    if type(node) in _INFIX:
        spine, first = _left_spine(node)
        prec = _INFIX[type(spine[-1])][1]
        parts = [_print(first, prec)]
        for op in reversed(spine):
            sym, op_prec = _INFIX[type(op)]
            if prec < op_prec:
                parts = ["(", *parts, ")"]
            parts += (f" {sym} ", _print(op.right, op_prec + 1))
            prec = op_prec
        text = "".join(parts)
    elif isinstance(node, IntLit):
        text, prec = str(node.value), _PREC_ATOM
    elif isinstance(node, (CoeffVar, GenVar)):
        text, prec = node.name, _PREC_ATOM
    elif isinstance(node, WordLit):
        text = "[" + "|".join(str(f) for f in node.factors) + "]"
        prec = _PREC_ATOM
    elif isinstance(node, PApply):
        text, prec = f"P({_print(node.child, 0)})", _PREC_ATOM
    elif isinstance(node, Neg):
        text, prec = f"-{_print(node.child, _PREC_NEG)}", _PREC_NEG
    elif isinstance(node, Pow):
        text = f"{_print(node.base, _PREC_POW + 1)}^{node.exponent}"
        prec = _PREC_POW
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")
    if prec < parent_prec:
        return f"({text})"
    return text


def print_expr(node: ExprNode) -> str:
    """Canonical text for an AST; parsing the output reproduces the AST."""
    return _print(node, 0)


def eval_expr(node: ExprNode, weight: Weight) -> ShuffleElement:
    """Evaluate an expression to a shuffle element: products use the weighted
    shuffle product, ``P`` the Baxter operator, generators one-factor words."""
    if isinstance(node, IntLit):
        return ShuffleElement.unit().scale(node.value)
    if isinstance(node, CoeffVar):
        return ShuffleElement.unit().scale(Polynomial.from_variable(coeff_var(node.name)))
    if isinstance(node, GenVar):
        return ShuffleElement.from_word(TensorWord((Monomial.of(gen_var(node.name)),)))
    if isinstance(node, WordLit):
        return ShuffleElement.from_factors(node.factors)
    if type(node) in _INFIX:
        spine, first = _left_spine(node)
        result = eval_expr(first, weight)
        for op in reversed(spine):
            right = eval_expr(op.right, weight)
            if isinstance(op, Add):
                result = result + right
            elif isinstance(op, Sub):
                result = result - right
            else:
                result = shuffle_product(result, right, weight)
        return result
    if isinstance(node, Neg):
        return -eval_expr(node.child, weight)
    if isinstance(node, Pow):
        # k products of the growing power by the base: squaring would take
        # fewer products, but each squaring multiplies two large powers, which
        # costs more in total for a base of several words
        result = ShuffleElement.unit()
        base = eval_expr(node.base, weight)
        for _ in range(node.exponent):
            result = shuffle_product(result, base, weight)
        return result
    if isinstance(node, PApply):
        return baxter_operator(eval_expr(node.child, weight))
    raise TypeError(f"unknown node type {type(node).__name__}")
