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

from dataclasses import dataclass
from typing import Iterable

from .coeffring import (
    Cursor,
    Monomial,
    Polynomial,
    Weight,
    coeff_var,
    gen_var,
    read_polynomial,
)
from .mixshuffle import baxter_operator, shuffle_product
from .words import ShuffleElement, TensorWord


class ExprNode:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntLit(ExprNode):
    value: int


@dataclass(frozen=True, slots=True)
class CoeffVar(ExprNode):
    name: str


@dataclass(frozen=True, slots=True)
class GenVar(ExprNode):
    name: str


@dataclass(frozen=True, slots=True)
class WordLit(ExprNode):
    factors: tuple[Polynomial, ...]


@dataclass(frozen=True, slots=True)
class Add(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True)
class Sub(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True)
class Mul(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True)
class Pow(ExprNode):
    base: ExprNode
    exponent: int


@dataclass(frozen=True, slots=True)
class PApply(ExprNode):
    child: ExprNode


@dataclass(frozen=True, slots=True)
class Neg(ExprNode):
    child: ExprNode


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


def _print(node: ExprNode, parent_prec: int) -> str:
    if isinstance(node, IntLit):
        text, prec = str(node.value), _PREC_ATOM
    elif isinstance(node, (CoeffVar, GenVar)):
        text, prec = node.name, _PREC_ATOM
    elif isinstance(node, WordLit):
        text = "[" + "|".join(str(f) for f in node.factors) + "]"
        prec = _PREC_ATOM
    elif isinstance(node, PApply):
        text, prec = f"P({_print(node.child, 0)})", _PREC_ATOM
    elif isinstance(node, Add):
        text = f"{_print(node.left, _PREC_ADD)} + {_print(node.right, _PREC_ADD + 1)}"
        prec = _PREC_ADD
    elif isinstance(node, Sub):
        text = f"{_print(node.left, _PREC_ADD)} - {_print(node.right, _PREC_ADD + 1)}"
        prec = _PREC_ADD
    elif isinstance(node, Neg):
        text, prec = f"-{_print(node.child, _PREC_NEG)}", _PREC_NEG
    elif isinstance(node, Mul):
        text = f"{_print(node.left, _PREC_MUL)} * {_print(node.right, _PREC_MUL + 1)}"
        prec = _PREC_MUL
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
    if isinstance(node, Add):
        return eval_expr(node.left, weight) + eval_expr(node.right, weight)
    if isinstance(node, Sub):
        return eval_expr(node.left, weight) - eval_expr(node.right, weight)
    if isinstance(node, Mul):
        return shuffle_product(eval_expr(node.left, weight), eval_expr(node.right, weight), weight)
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
