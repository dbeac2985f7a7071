"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Two disjoint variable namespaces share one polynomial type: coefficient
variables (the base ring, where the weight lives, e.g. ``lam``) and generator
variables (the polynomial algebra the tensor words are built from).
All arithmetic is exact; polynomials are kept in canonical form (no zero
coefficients, deterministic graded-lex term order).
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Collection, Iterable, Mapping

from .errors import DivisorZero, ExprSyntaxError, NamespaceViolation, NotDivisible


class Namespace(Enum):
    COEFFICIENT = "coefficient"
    GENERATOR = "generator"


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# sets a field of a record, past its refusing __setattr__
_set = object.__setattr__


class Record:
    """Base of the package's immutable value records. A subclass lists its
    fields in ``__slots__``, in constructor order, and sets them in
    ``__init__`` with ``_set``. Equality (same class, equal fields), the
    hash of the field tuple, ``repr``, pickling and deep copies follow the
    fields; assigning or deleting a field raises ``AttributeError``. The
    hot records keep their hash, order key and text in the slots of the base
    ``_Cached``, outside their own ``__slots__``: equality, ``repr`` and
    pickles see the fields only, and ``__reduce__`` rebuilds a record through
    ``__init__``, as string hashes are salted per process."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(type(self).__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class _Cached(Record):
    """``_hash`` is set in ``__init__``; ``_key`` and the text of ``_print``
    are computed at most once. A subclass that defines ``__eq__`` restates
    ``__hash__``, which Python would otherwise set to None."""

    __slots__ = ("_hash", "_key", "_text")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            _set(self, "_text", self._print())
            return self._text


class Variable(_Cached):
    __slots__ = ("namespace", "name")

    def __init__(self, namespace: Namespace, name: str):
        if not _IDENT_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        _set(self, "namespace", namespace)
        _set(self, "name", name)
        _set(self, "_hash", hash((namespace, name)))
        # coefficient variables sort before generator variables
        _set(self, "_key", (0 if namespace is Namespace.COEFFICIENT else 1, name))

    @property
    def sort_key(self) -> tuple[int, str]:
        return self._key

    def __str__(self) -> str:
        return self.name


def coeff_var(name: str) -> Variable:
    return Variable(Namespace.COEFFICIENT, name)


def gen_var(name: str) -> Variable:
    return Variable(Namespace.GENERATOR, name)


class Monomial(_Cached):
    """A power product of variables; the empty product is the unit monomial."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[tuple[Variable, int], ...]):
        _set(self, "exponents", exponents)
        _set(self, "_hash", hash((exponents,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exponents == other.exponents
        return NotImplemented

    __hash__ = _Cached.__hash__

    @staticmethod
    def make(exps: Mapping[Variable, int]) -> "Monomial":
        items = tuple(
            sorted(((v, e) for v, e in exps.items() if e != 0), key=lambda p: p[0]._key)
        )
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        return Monomial(items)

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT_MONOMIAL

    @staticmethod
    def of(var: Variable, exp: int = 1) -> "Monomial":
        return Monomial.make({var: exp})

    @property
    def is_unit(self) -> bool:
        return not self.exponents

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def has_namespace(self, ns: Namespace) -> bool:
        return any(v.namespace is ns for v, _ in self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exponents)
        for v, e in other.exponents:
            exps[v] = exps.get(v, 0) + e
        return Monomial.make(exps)

    def divides(self, other: "Monomial") -> bool:
        exps = dict(other.exponents)
        return all(exps.get(v, 0) >= e for v, e in self.exponents)

    def divide(self, other: "Monomial") -> "Monomial":
        """Return self / other; other must divide self."""
        exps = dict(self.exponents)
        for v, e in other.exponents:
            if exps.get(v, 0) < e:
                raise NotDivisible(f"{other} does not divide {self}")
            exps[v] -= e
        return Monomial.make(exps)

    def split(self) -> tuple["Monomial", "Monomial"]:
        """Split into (coefficient-namespace part, generator-namespace part)."""
        cpart = {v: e for v, e in self.exponents if v.namespace is Namespace.COEFFICIENT}
        gpart = {v: e for v, e in self.exponents if v.namespace is Namespace.GENERATOR}
        return Monomial.make(cpart), Monomial.make(gpart)

    def _print(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for v, e in self.exponents:
            parts.append(v.name if e == 1 else f"{v.name}^{e}")
        return "*".join(parts)


_UNIT_MONOMIAL = Monomial(())


def mono_key(m: Monomial) -> tuple:
    """Sort key of the graded-lex order, greatest first: higher total degree,
    then at the first differing variable (coefficient namespace first, then
    by name) the larger exponent. The key is one flat tuple, so that a sort
    holds little per item; at equal degree no key is a prefix of another, so
    two keys first differ at matching fields. A monomial keeps its key."""
    try:
        return m._key
    except AttributeError:
        key = [0]
    for v, e in m.exponents:
        key[0] -= e
        key += v._key
        key.append(-e)
    _set(m, "_key", tuple(key))
    return m._key


def _signed_sum(pieces: list[tuple[bool, str]]) -> str:
    """Join (negative, body) pieces as ``a + b - c``, a leading minus on a
    negative first piece."""
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


class Polynomial:
    """Canonical sparse polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        # a mapping's monomials are distinct already: only zeros are dropped
        self._terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({_UNIT_MONOMIAL: 1})

    @staticmethod
    def from_int(n: int) -> "Polynomial":
        return Polynomial({_UNIT_MONOMIAL: n})

    @staticmethod
    def from_variable(var: Variable) -> "Polynomial":
        return Polynomial({Monomial.of(var): 1})

    @staticmethod
    def from_monomial(mono: Monomial, coeff: int = 1) -> "Polynomial":
        return Polynomial({mono: coeff})

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial.from_int(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Polynomial")

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterable[tuple[Monomial, int]]:
        return self._terms.items()

    def has_namespace(self, ns: Namespace) -> bool:
        return any(m.has_namespace(ns) for m in self._terms)

    def leading_term(self) -> tuple[Monomial, int]:
        mono = min(self._terms, key=mono_key)
        return mono, self._terms[mono]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, (Polynomial, int)):
            return NotImplemented
        other = Polynomial._coerce(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-Polynomial._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.from_int(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __reduce__(self):
        return Polynomial, (self._terms,)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono in sorted(self._terms, key=mono_key):
            coeff = self._terms[mono]
            mag = abs(coeff)
            if mono.is_unit:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            pieces.append((coeff < 0, body))
        return _signed_sum(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def poly_exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact quotient q with q*d == p; raises NotDivisible when none exists."""
    if d.is_zero:
        raise DivisorZero("division by the zero polynomial")
    lead_mono, lead_coeff = d.leading_term()
    quotient: dict[Monomial, int] = {}
    remainder = p
    while not remainder.is_zero:
        mono, coeff = remainder.leading_term()
        if not lead_mono.divides(mono) or coeff % lead_coeff != 0:
            raise NotDivisible(f"({p}) is not divisible by ({d})")
        qm = mono.divide(lead_mono)
        qc = coeff // lead_coeff
        quotient[qm] = quotient.get(qm, 0) + qc
        remainder = remainder - d * Polynomial({qm: qc})
    return Polynomial(quotient)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when n < 0, k > n, or k < 0."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


class Weight(Record):
    """The weight of the Baxter structure: a coefficient-namespace polynomial."""

    __slots__ = ("value",)

    def __init__(self, value: Polynomial):
        _set(self, "value", value)

    @staticmethod
    def of(value) -> "Weight":
        poly = Polynomial._coerce(value)
        if poly.has_namespace(Namespace.GENERATOR):
            raise NamespaceViolation("weight must live in the coefficient namespace")
        return Weight(poly)

    @staticmethod
    def default() -> "Weight":
        return Weight.of(Polynomial.from_variable(coeff_var("lam")))

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def powers(self, top: int) -> list[Polynomial]:
        """The weight powers lam^0 .. lam^top, each one product from the last."""
        out = [Polynomial.one()]
        for _ in range(top):
            out.append(out[-1] * self.value)
        return out

    def __str__(self) -> str:
        return str(self.value)


# -- text reading ------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[-+*^()\[\]|,])"
)


class Cursor:
    """The one lexer of the package: the tokens of a text, read front to
    back. A token is a (kind, text, offset) triple whose kind is ``nat``,
    ``ident``, or the symbol itself; a last ``end`` token sits at the end of
    the last real one. Every text reader of the package runs on a cursor."""

    __slots__ = ("text", "tokens", "idx")

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self.idx = 0
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                self.fail(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            if kind != "ws":
                self.tokens.append((m.group() if kind == "sym" else kind, m.group(), pos))
            pos = m.end()
        last = self.tokens[-1] if self.tokens else ("end", "", 0)
        self.tokens.append(("end", "", last[2] + len(last[1])))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def accept(self, kind: str) -> tuple[str, str, int] | None:
        """Consume and return the next token if it has this kind."""
        tok = self.tokens[self.idx]
        if tok[0] != kind:
            return None
        self.idx += 1
        return tok

    def fail(self, message: str, offset: int | None = None):
        """Raise ExprSyntaxError at the line and column of ``offset``, by
        default that of the next token."""
        if offset is None:
            offset = self.tokens[self.idx][2]
        line = self.text.count("\n", 0, offset) + 1
        raise ExprSyntaxError(message, line, offset - self.text.rfind("\n", 0, offset))


# the tokens that may follow a polynomial: a bracket, bar or comma of the
# enclosing text, or the end
_AFTER_POLYNOMIAL = frozenset("()[]|,") | {"end"}


def _read_power(cur: Cursor, gens: Collection[str]) -> Monomial:
    tok = cur.accept("ident")
    if tok is None:
        cur.fail("expected a variable name")
    var = gen_var(tok[1]) if tok[1] in gens else coeff_var(tok[1])
    if not cur.accept("^"):
        return Monomial.of(var)
    tok = cur.accept("nat")
    if tok is None:
        cur.fail("expected an exponent after '^'")
    if int(tok[1]) <= 0:
        cur.fail("exponent must be positive", tok[2])
    return Monomial.of(var, int(tok[1]))


def read_polynomial(cur: Cursor, gens: Collection[str]) -> Polynomial:
    """Read the polynomial grammar from ``cur``: signed terms joined by
    ``+``/``-``, each term an optional integer with ``*``-separated variable
    powers ``v^k``. Identifiers in ``gens`` resolve to the generator
    namespace, all others to the coefficient namespace. Stops before a
    bracket, bar, comma or the end; any other token after a term fails."""
    terms: dict[Monomial, int] = {}
    sep = cur.accept("-") or cur.accept("+")
    while True:
        tok = cur.accept("nat")
        if tok is not None:
            coeff, mono = int(tok[1]), _UNIT_MONOMIAL
        elif cur.peek()[0] == "ident":
            coeff, mono = 1, _read_power(cur, gens)
        else:
            cur.fail("expected a term")
        while cur.accept("*"):
            mono = mono * _read_power(cur, gens)
        terms[mono] = terms.get(mono, 0) + (-coeff if sep and sep[0] == "-" else coeff)
        sep = cur.accept("+") or cur.accept("-")
        if sep is None:
            if cur.peek()[0] in _AFTER_POLYNOMIAL:
                return Polynomial(terms)
            cur.fail("expected '+' or '-'")


def parse_polynomial(text: str, gens: Iterable[str] = ()) -> Polynomial:
    """Parse a whole text in the polynomial grammar of ``read_polynomial``."""
    cur = Cursor(text)
    poly = read_polynomial(cur, frozenset(gens))
    if cur.peek()[0] != "end":
        cur.fail("expected '+' or '-'")
    return poly


def parse_scalar(text: str, gens: Iterable[str], what: str) -> Polynomial:
    """Parse a coefficient-namespace polynomial (a weight or a coefficient).
    A symbol that is also one of ``gens`` would print the same as that
    generator, so it is refused with ``ValueError``; ``what`` names the
    value in the message."""
    poly = parse_polynomial(text, gens)
    for mono, _ in poly.items():
        for var, _ in mono.exponents:
            if var.namespace is Namespace.GENERATOR:
                raise ValueError(f"{what} symbol {var.name!r} names a declared generator")
    return poly
