"""Expression front end for the shuffle algebra.

Grammar (whitespace insensitive, ``P`` reserved for the Baxter operator):

    expr := prod (('+'|'-') prod)*
    prod := pow ('*' pow)*
    pow  := atom ('^' nat)?
    atom := nat | ident | 'P' '(' expr ')' | '(' expr ')'
          | '[' poly ('|' poly)* ']'

where ``poly`` is the polynomial grammar of ``coeffring.parse_polynomial``.

The printer emits the canonical grammar, so printing then parsing is the
identity on parser output shapes (left-associated chains).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .coeffring import (
    Monomial,
    Polynomial,
    Weight,
    coeff_var,
    gen_var,
    parse_polynomial,
)
from .errors import ExprSyntaxError
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


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[-+*^()\[\]|])"
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    offset: int


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(0), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, gens: Iterable[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.gens = frozenset(gens)
        self.idx = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def _offset(self) -> int:
        """Offset of the next token, or the end of the last one."""
        tok = self._peek()
        if tok is not None:
            return tok.offset
        last = self.tokens[-1] if self.tokens else None
        return last.offset + len(last.text) if last else 0

    def _error(self, message: str):
        tok = self._peek()
        position = _line_col(self.text, self._offset())
        if tok is None:
            raise ExprSyntaxError(message + " (at end of input)", *position)
        raise ExprSyntaxError(f"{message}, found {tok.text!r}", *position)

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self._peek()
        if tok and tok.kind == kind and (text is None or tok.text == text):
            self.idx += 1
            return tok
        return None

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self._accept(kind, text)
        if tok is None:
            self._error(f"expected {text or kind}")
        return tok

    def parse(self) -> ExprNode:
        node = self.expr()
        if self._peek() is not None:
            self._error("unexpected trailing input")
        return node

    def expr(self) -> ExprNode:
        node = self.prod()
        while True:
            if self._accept("sym", "+"):
                node = Add(node, self.prod())
            elif self._accept("sym", "-"):
                node = Sub(node, self.prod())
            else:
                return node

    def prod(self) -> ExprNode:
        node = self.pow()
        while self._accept("sym", "*"):
            node = Mul(node, self.pow())
        return node

    def pow(self) -> ExprNode:
        node = self.atom()
        if self._accept("sym", "^"):
            tok = self._peek()
            if tok is None or tok.kind != "nat":
                self._error("expected a nonnegative integer exponent")
            self.idx += 1
            node = Pow(node, int(tok.text))
        return node

    def atom(self) -> ExprNode:
        tok = self._peek()
        if tok is None:
            self._error("expected an expression")
        if tok.kind == "nat":
            self.idx += 1
            return IntLit(int(tok.text))
        if tok.kind == "ident":
            self.idx += 1
            if tok.text == "P":
                self._expect("sym", "(")
                child = self.expr()
                self._expect("sym", ")")
                return PApply(child)
            if tok.text in self.gens:
                return GenVar(tok.text)
            return CoeffVar(tok.text)
        if tok.text == "(":
            self.idx += 1
            node = self.expr()
            self._expect("sym", ")")
            return node
        if tok.text == "[":
            self.idx += 1
            factors = [self.word_factor()]
            while self._accept("sym", "|"):
                factors.append(self.word_factor())
            self._expect("sym", "]")
            return WordLit(tuple(factors))
        self._error("expected an expression")

    def word_factor(self) -> Polynomial:
        """One factor of a word literal: the source text up to the next
        bracket, parenthesis or bar, read by ``parse_polynomial``."""
        start = self._offset()
        while (tok := self._peek()) is not None and (tok.kind != "sym" or tok.text in "-+*^"):
            self.idx += 1
        try:
            return parse_polynomial(self.text[start:self._offset()], self.gens)
        except ExprSyntaxError as exc:
            position = _line_col(self.text, start + exc.column - 1)
            raise ExprSyntaxError(exc.message, *position) from None


def parse_expr(text: str, gens: Iterable[str] = ()) -> ExprNode:
    return _Parser(text, gens).parse()


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


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
    if isinstance(node, Pow):
        result = ShuffleElement.unit()
        base = eval_expr(node.base, weight)
        for _ in range(node.exponent):
            result = shuffle_product(result, base, weight)
        return result
    if isinstance(node, PApply):
        return baxter_operator(eval_expr(node.child, weight))
    raise TypeError(f"unknown node type {type(node).__name__}")
