"""Truncated completion of the shuffle algebra and the Hurwitz series ring.

An element of the completion is modeled exactly as a residue class modulo the
N-th filtration step: one homogeneous component per degree below the
truncation level. The product of residue classes is one product of the top
partial sums, cut to degrees below N; the degree bound of the word product
makes every stored component exact.
"""

from __future__ import annotations

from typing import Sequence

from .coeffring import Polynomial, Weight, binomial, parse_polynomial
from .errors import NotScalarBase, TruncMismatch, WeightNotZero
from .mixshuffle import baxter_operator, mixable_counts, shuffle_product, unit_word
from .words import ShuffleElement


class CompleteElement:
    """A residue class of the completed shuffle algebra at truncation N:
    components[k] is the homogeneous piece of degree k, 0 <= k < N."""

    __slots__ = ("trunc", "_components")

    def __init__(self, trunc: int, components: dict[int, ShuffleElement] | None = None):
        if trunc < 1:
            raise ValueError("truncation level must be >= 1")
        self.trunc = trunc
        comps = {}
        if components:
            for k, elem in components.items():
                if not 0 <= k < trunc:
                    continue
                if elem.is_zero:
                    continue
                for w, _ in elem.terms():
                    if w.degree != k:
                        raise ValueError(f"component {k} contains a degree-{w.degree} word")
                comps[k] = elem
        self._components = comps

    @staticmethod
    def from_element(u: ShuffleElement, trunc: int) -> "CompleteElement":
        """Split into homogeneous components and discard degrees >= trunc, in
        one pass over the terms."""
        groups: dict[int, dict] = {}
        for w, c in u.terms():
            if w.degree < trunc:
                groups.setdefault(w.degree, {})[w] = c
        return CompleteElement(trunc, {k: ShuffleElement(groups[k]) for k in sorted(groups)})

    @staticmethod
    def zero(trunc: int) -> "CompleteElement":
        return CompleteElement(trunc)

    @staticmethod
    def one(trunc: int) -> "CompleteElement":
        return CompleteElement.from_element(ShuffleElement.unit(), trunc)

    def component(self, k: int) -> ShuffleElement:
        return self._components.get(k, ShuffleElement.zero())

    def partial_sum(self, k: int) -> ShuffleElement:
        """The cutoff of this class at degree k: the sum of components <= k."""
        return ShuffleElement.from_terms(
            term for deg, elem in self._components.items() if deg <= k for term in elem.terms()
        )

    @property
    def is_zero(self) -> bool:
        return not self._components

    def __add__(self, other: "CompleteElement") -> "CompleteElement":
        self._check_trunc(other)
        comps = dict(self._components)
        for k, elem in other._components.items():
            comps[k] = comps.get(k, ShuffleElement.zero()) + elem
        return CompleteElement(self.trunc, {k: e for k, e in comps.items() if not e.is_zero})

    def __neg__(self) -> "CompleteElement":
        return CompleteElement(self.trunc, {k: -e for k, e in self._components.items()})

    def __sub__(self, other: "CompleteElement") -> "CompleteElement":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompleteElement):
            return NotImplemented
        return self.trunc == other.trunc and self._components == other._components

    def __hash__(self) -> int:
        return hash((self.trunc, frozenset(self._components.items())))

    def _check_trunc(self, other: "CompleteElement") -> None:
        if self.trunc != other.trunc:
            raise TruncMismatch(f"truncation levels differ: {self.trunc} vs {other.trunc}")

    def __str__(self) -> str:
        if not self._components:
            return "0"
        parts = [str(self._components[k]) for k in sorted(self._components)]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CompleteElement(trunc={self.trunc}, {self})"


# Most work units one `complete_mul` may need, predicted from closed forms.
# A word pair of degrees m and n costs its (m+1)(n+1) table cells plus the
# mixable shuffles that survive the bound, those merging k >= m + n - (N-1)
# pairs (``mixable_counts``). A unit costs 3-7 us as an empty cell and about
# 12 us on the full class of words over {1, x1} times the one over {1, x2}
# (Python 3.11, 2-vCPU VM), so the limit bounds a call to about ten
# seconds: that class runs at truncation 6 (561,960 units, 5-7 s) and is
# refused at truncation 7 (3,563,816). Over it a call raises ValueError
# before building any word, instead of running for minutes.
MAX_PRODUCT_UNITS = 1_000_000


def _check_units(x: CompleteElement, y: CompleteElement, top: int) -> None:
    units = 0
    for m, ex in x._components.items():
        for n, ey in y._components.items():
            pairs = len(ex.terms()) * len(ey.terms())
            units += pairs * (m + 1) * (n + 1)
            if units <= MAX_PRODUCT_UNITS:  # else skip the min(m, n) binomials
                units += pairs * sum(
                    c for k, c in mixable_counts(m, n).items() if k >= m + n - top
                )
            if units > MAX_PRODUCT_UNITS:
                raise ValueError(
                    f"the product at truncation {top + 1} would take at least {units:,} "
                    f"work units, over the limit of {MAX_PRODUCT_UNITS:,}"
                )


def complete_mul(x: CompleteElement, y: CompleteElement, weight: Weight) -> CompleteElement:
    """Product of residue classes from one product of the top cutoffs, cut
    to degree <= N - 1 inside the quasi-shuffle table. A word product of
    degrees i and j has degree between max(i, j) and i + j, so pairs with i
    or j above k never reach degree k: the degree-k piece of the product of
    the degree-(N-1) cutoffs is the stabilized component k. The table keeps
    a tail at cell (i, j) only while it is at most N - 1 - max(i, j) long,
    which drops exactly the words of degree >= N (see ``word_product``), so
    no word past the truncation is built. Raises ValueError when the
    predicted work passes MAX_PRODUCT_UNITS."""
    x._check_trunc(y)
    top = x.trunc - 1
    _check_units(x, y, top)
    return CompleteElement.from_element(
        shuffle_product(x.partial_sum(top), y.partial_sum(top), weight, top), x.trunc
    )


def complete_operator(x: CompleteElement) -> CompleteElement:
    """The shifted Baxter operator: component k of the result is the unit
    prefix of component k-1; the top input component falls past the
    truncation."""
    comps = {}
    for k, elem in x._components.items():
        if k + 1 < x.trunc:
            comps[k + 1] = baxter_operator(elem)
    return CompleteElement(x.trunc, comps)


class HurwitzSeries:
    """A truncated sequence over the coefficient ring with the binomial
    convolution product."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Polynomial | int]):
        if not entries:
            raise ValueError("a Hurwitz series needs at least one entry")
        self.entries = tuple(Polynomial._coerce(e) for e in entries)

    @property
    def trunc(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(trunc: int) -> "HurwitzSeries":
        return HurwitzSeries([Polynomial.zero()] * trunc)

    @staticmethod
    def basis(n: int, trunc: int) -> "HurwitzSeries":
        """The n-th basis sequence: 1 in slot n, 0 elsewhere."""
        entries = [Polynomial.zero()] * trunc
        if 0 <= n < trunc:
            entries[n] = Polynomial.one()
        return HurwitzSeries(entries)

    def __add__(self, other: "HurwitzSeries") -> "HurwitzSeries":
        self._check_trunc(other)
        return HurwitzSeries([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "HurwitzSeries") -> "HurwitzSeries":
        self._check_trunc(other)
        return HurwitzSeries([a - b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, other: "HurwitzSeries") -> "HurwitzSeries":
        self._check_trunc(other)
        out = []
        for n in range(self.trunc):
            total = Polynomial.zero()
            for k in range(n + 1):
                total = total + binomial(n, k) * self.entries[k] * other.entries[n - k]
            out.append(total)
        return HurwitzSeries(out)

    def _check_trunc(self, other: "HurwitzSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncMismatch(f"truncation levels differ: {self.trunc} vs {other.trunc}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, HurwitzSeries):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"HurwitzSeries{self}"

    @staticmethod
    def parse(text: str) -> "HurwitzSeries":
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        return HurwitzSeries([parse_polynomial(part) for part in body.split(",")])


def hurwitz_iso(x: CompleteElement, weight: Weight) -> HurwitzSeries:
    """Read a residue class over the scalar base (all-unit words, weight 0)
    as a truncated Hurwitz series: the degree-n all-unit word maps to the n-th
    basis sequence."""
    if not weight.is_zero:
        raise WeightNotZero("the Hurwitz identification requires weight 0")
    entries = [Polynomial.zero()] * x.trunc
    for k in range(x.trunc):
        for word, coeff in x.component(k).terms():
            if word != unit_word(k + 1):
                raise NotScalarBase(f"word {word} has a non-unit factor")
            entries[k] = entries[k] + coeff
    return HurwitzSeries(entries)
