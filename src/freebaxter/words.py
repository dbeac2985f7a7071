"""Tensor words and the free modules built on them.

Two word kinds live here: ``TensorWord`` (a nonempty factor sequence; length
n+1 means filtration degree n) with its linear combinations
(``ShuffleElement``), and ``AbarWord`` (a word of the direct-limit algebra,
canonicalized by dropping trailing unit factors) with factorwise
multiplication on its linear combinations (``AbarElement``).
"""

from __future__ import annotations

from itertools import chain, zip_longest
from typing import Iterable, Mapping, Sequence

from .coeffring import (
    Monomial,
    Namespace,
    Polynomial,
    _Cached,
    _set,
    _signed_sum,
    mono_key,
    parse_polynomial,
    parse_scalar,
    poly_exact_div,
)
from .errors import KindMismatch, NamespaceViolation


def _check_factors(factors: Sequence[Monomial]) -> None:
    for f in factors:
        if f.has_namespace(Namespace.COEFFICIENT):
            raise NamespaceViolation(
                f"word factor {f} contains coefficient variables; move them to the scalar"
            )


class TensorWord(_Cached):
    """A nonempty sequence of generator-namespace monomials."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Monomial, ...]):
        if not factors:
            raise ValueError("a tensor word has at least one factor")
        _check_factors(factors)
        _set(self, "factors", factors)
        _set(self, "_hash", hash((factors,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    __hash__ = _Cached.__hash__

    @property
    def degree(self) -> int:
        """Filtration degree: number of factors minus one."""
        return len(self.factors) - 1

    def _print(self) -> str:
        return "[" + "|".join(map(str, self.factors)) + "]"


def word_key(w: TensorWord | AbarWord) -> tuple:
    """Sort key of the one word order, for both word kinds, greatest first:
    longer words, then factorwise graded-lex. The factor keys are joined
    into one flat tuple; two factor keys that differ do so before either
    ends, so the comparison never runs across a factor boundary."""
    return (-len(w.factors), *chain.from_iterable(map(mono_key, w.factors)))


class AbarWord(_Cached):
    """A direct-limit word: monomial factors with no trailing unit factor.
    The empty word is the multiplicative identity."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Monomial, ...]):
        if factors and factors[-1].is_unit:
            raise ValueError("AbarWord may not end in a unit factor; use abar_normalize")
        _check_factors(factors)
        _set(self, "factors", factors)
        _set(self, "_hash", hash((factors,)))

    __eq__, __hash__ = TensorWord.__eq__, TensorWord.__hash__

    def padded(self, length: int) -> tuple[Monomial, ...]:
        if length < len(self.factors):
            raise ValueError("cannot pad to a shorter length")
        return self.factors + (Monomial.unit(),) * (length - len(self.factors))

    def _print(self) -> str:
        if not self.factors:
            return "1"
        return "(" + "|".join(map(str, self.factors)) + ")"


def abar_normalize(factors: Sequence[Monomial]) -> AbarWord:
    """Drop trailing unit factors; all-unit input gives the identity word."""
    end = len(factors)
    while end and factors[end - 1].is_unit:
        end -= 1
    return AbarWord(tuple(factors[:end]))


def _check_scalar(c: Polynomial) -> Polynomial:
    if c.has_namespace(Namespace.GENERATOR):
        raise NamespaceViolation(f"scalar {c} contains generator variables")
    return c


def _canonical(terms: Mapping) -> dict:
    """The nonzero terms, coefficients as polynomials; a mapping's words are
    distinct already, so nothing is merged."""
    out = {}
    for word, coeff in terms.items():
        coeff = Polynomial._coerce(coeff)
        if not coeff.is_zero:
            out[word] = coeff
    return out


def json_field(obj, key: str):
    """``obj[key]`` for a JSON object; a missing field raises ``ValueError``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"JSON object has no {key!r} field")
    return obj[key]


class _LinearElement:
    """Shared free-module plumbing for word linear combinations. A subclass
    sets ``_word``, the constructor of its words from monomial factors."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        self._terms = _canonical(terms) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple]):
        """The sum of (word, coefficient) pairs: equal words merge, and words
        whose coefficients cancel are dropped."""
        terms = {}
        for word, coeff in pairs:
            prev = terms.get(word)
            terms[word] = coeff if prev is None else prev + coeff
        return cls(terms)

    @classmethod
    def from_json_obj(cls, obj: dict, gens: Iterable[str] = ()):
        """Read a ``to_json_obj`` object, expanding polynomial word factors. A
        coefficient naming one of ``gens`` is refused, as it would print as
        that generator."""
        gens = tuple(gens)
        pairs = []
        for entry in json_field(obj, "terms"):
            coeff = parse_scalar(json_field(entry, "coeff"), gens, "coefficient")
            factors = [parse_polynomial(f, gens) for f in json_field(entry, "word")]
            pairs += [(cls._word(monos), c * coeff) for c, monos in expand_word_factors(factors)]
        return cls.from_terms(pairs)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        return self._terms.items()

    @classmethod
    def _of(cls, terms: dict):
        """Wrap terms already canonical, without the constructor's pass."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def __add__(self, other):
        if type(other) is not type(self):
            raise KindMismatch(
                f"cannot add {type(self).__name__} and {type(other).__name__}"
            )
        # the copy keeps the stored word hashes: only other's words are hashed
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            prev = terms.pop(word, None)
            total = coeff if prev is None else prev + coeff
            if not total.is_zero:
                terms[word] = total
        return self._of(terms)

    def __neg__(self):
        return self._of({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "_LinearElement":
        c = _check_scalar(Polynomial._coerce(c))
        return type(self)({w: coeff * c for w, coeff in self._terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Polynomial)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __reduce__(self):
        return type(self), (self._terms,)

    def _sorted_terms(self):
        return sorted(self._terms.items(), key=lambda term: word_key(term[0]))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for word, coeff in self._sorted_terms():
            word_str, cstr = str(word), str(coeff)
            if len(coeff._terms) > 1:
                body, negative = f"({cstr})*{word_str}", False
            else:
                negative, mag = cstr.startswith("-"), cstr.lstrip("-")
                body = word_str if mag == "1" else f"{mag}*{word_str}"
            pieces.append((negative, body))
        return _signed_sum(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {
                    "coeff": str(c),
                    "word": [str(f) for f in w.factors],
                }
                for w, c in self._sorted_terms()
            ]
        }


class ShuffleElement(_LinearElement):
    """A finite linear combination of tensor words with coefficient-namespace
    polynomial scalars: an element of the graded shuffle module."""

    _word = TensorWord

    @staticmethod
    def from_word(word: TensorWord, coeff=1) -> "ShuffleElement":
        return ShuffleElement({word: Polynomial._coerce(coeff)})

    @staticmethod
    def unit() -> "ShuffleElement":
        return ShuffleElement.from_word(TensorWord((Monomial.unit(),)))

    @staticmethod
    def from_factors(factors: Sequence[Polynomial]) -> "ShuffleElement":
        """Expand polynomial word factors multilinearly into monomial words,
        pulling coefficient-namespace content into the scalar."""
        return ShuffleElement.from_terms(
            (TensorWord(monos), c) for c, monos in expand_word_factors(factors)
        )

    def homogeneous_component(self, degree: int) -> "ShuffleElement":
        return ShuffleElement(
            {w: c for w, c in self._terms.items() if w.degree == degree}
        )


class AbarElement(_LinearElement):
    """A finite linear combination of direct-limit words; multiplication pads
    the shorter word with units and multiplies factorwise."""

    _word = staticmethod(abar_normalize)

    @staticmethod
    def from_word(word: AbarWord, coeff=1) -> "AbarElement":
        return AbarElement({word: Polynomial._coerce(coeff)})

    @staticmethod
    def identity() -> "AbarElement":
        return AbarElement.from_word(AbarWord(()))

    def __mul__(self, other) -> "AbarElement":
        if isinstance(other, (int, Polynomial)):
            return self.scale(other)
        if not isinstance(other, AbarElement):
            raise KindMismatch(
                f"cannot multiply AbarElement and {type(other).__name__}"
            )
        unit = Monomial.unit()
        return AbarElement.from_terms(
            (
                abar_normalize(tuple(
                    a * b for a, b in zip_longest(wu.factors, wv.factors, fillvalue=unit)
                )),
                cu * cv,
            )
            for wu, cu in self.terms()
            for wv, cv in other.terms()
        )

    def exact_div_scalar(self, d: Polynomial) -> "AbarElement":
        """Divide every coefficient exactly by d; raises NotDivisible."""
        return AbarElement({w: poly_exact_div(c, d) for w, c in self._terms.items()})


def expand_word_factors(
    factors: Sequence[Polynomial],
) -> list[tuple[Polynomial, tuple[Monomial, ...]]]:
    """Multilinear expansion of polynomial factors over the coefficient ring:
    returns (scalar, generator-monomial factors) pairs. Coefficient-namespace
    content of every term is factored out into the scalar."""
    partial: list[tuple[Polynomial, tuple[Monomial, ...]]] = [(Polynomial.one(), ())]
    for factor in factors:
        grown = []
        for scalar, monos in partial:
            for mono, coeff in factor.items():
                cpart, gpart = mono.split()
                grown.append(
                    (scalar * Polynomial.from_monomial(cpart, coeff), monos + (gpart,))
                )
        partial = grown
    return partial
