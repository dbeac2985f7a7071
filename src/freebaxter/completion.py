"""Truncated completion of the shuffle algebra and the Hurwitz series ring.

An element of the completion is modeled exactly as a residue class modulo the
N-th filtration step, stored as one shuffle element: the words of degree
below the truncation level. The product of residue classes is one product of
the stored elements, cut to degrees below N; the degree bound of the word
product makes every kept word exact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from typing import Sequence

from .coeffring import Cursor, Polynomial, Weight, binomial, read_polynomial
from .errors import NotScalarBase, TruncMismatch, WeightNotZero
from .mixshuffle import baxter_operator, mixable_counts, shuffle_product
from .words import ShuffleElement


class CompleteElement:
    """A residue class of the completed shuffle algebra at truncation N,
    stored as one shuffle element: the words of degree < N of any
    representative."""

    __slots__ = ("trunc", "_element")

    def __init__(self, trunc: int, element: ShuffleElement | None = None):
        if trunc < 1:
            raise ValueError("truncation level must be >= 1")
        self.trunc = trunc
        self._element = ShuffleElement.zero() if element is None else _cut(element, trunc - 1)

    @staticmethod
    def from_element(u: ShuffleElement, trunc: int) -> "CompleteElement":
        """The class of u: its words of degree >= trunc are discarded."""
        return CompleteElement(trunc, u)

    @staticmethod
    def zero(trunc: int) -> "CompleteElement":
        return CompleteElement(trunc)

    @staticmethod
    def one(trunc: int) -> "CompleteElement":
        return CompleteElement(trunc, ShuffleElement.unit())

    def component(self, k: int) -> ShuffleElement:
        return self._element.homogeneous_component(k)

    def partial_sum(self, k: int) -> ShuffleElement:
        """The cutoff of this class at degree k: its words of degree <= k."""
        return self._element if k >= self.trunc - 1 else _cut(self._element, k)

    @property
    def is_zero(self) -> bool:
        return self._element.is_zero

    def __add__(self, other: "CompleteElement") -> "CompleteElement":
        self._check_trunc(other)
        return CompleteElement(self.trunc, self._element + other._element)

    def __neg__(self) -> "CompleteElement":
        return CompleteElement(self.trunc, -self._element)

    def __sub__(self, other: "CompleteElement") -> "CompleteElement":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompleteElement):
            return NotImplemented
        return self.trunc == other.trunc and self._element == other._element

    def __hash__(self) -> int:
        return hash((self.trunc, self._element))

    def __reduce__(self):
        return CompleteElement, (self.trunc, self._element)

    def _check_trunc(self, other: "CompleteElement") -> None:
        if self.trunc != other.trunc:
            raise TruncMismatch(f"truncation levels differ: {self.trunc} vs {other.trunc}")

    def __str__(self) -> str:
        """The nonzero components in ascending degree, joined by " + "."""
        components: dict[int, dict] = {}
        for w, c in self._element.terms():
            components.setdefault(w.degree, {})[w] = c
        return " + ".join(str(ShuffleElement(components[k])) for k in sorted(components)) or "0"

    def __repr__(self) -> str:
        return f"CompleteElement(trunc={self.trunc}, {self})"


def _cut(u: ShuffleElement, top: int) -> ShuffleElement:
    """The words of u of degree <= top."""
    return ShuffleElement({w: c for w, c in u.terms() if w.degree <= top})


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

# Most term pairs one Hurwitz series product may multiply: a pair of nonzero
# entries counts the product of their numbers of terms. Near the limit, dense
# products took 4.1 s with integer entries (truncation 774), 1.5 s with
# two-term (350) and 1.5 s with eight-term entries (95) (Python 3.11, 2-vCPU
# VM), so the limit bounds a call to seconds, as MAX_PRODUCT_UNITS does for
# complete_mul.
MAX_SERIES_PAIRS = 300_000


def _check_units(x: CompleteElement, y: CompleteElement, top: int) -> None:
    xs = sorted(Counter(w.degree for w, _ in x._element.terms()).items())
    ys = sorted(Counter(w.degree for w, _ in y._element.terms()).items())
    units = 0
    for m, xcount in xs:
        for n, ycount in ys:
            pairs = xcount * ycount
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
    """Product of residue classes: one product of the stored elements, cut
    to degree <= N - 1 inside the quasi-shuffle table. A word product of
    degrees i and j has degree between max(i, j) and i + j, so pairs with i
    or j above k never reach degree k: the degree-k piece of this product is
    the stabilized component k. The table keeps a tail at cell (i, j) only
    while it is at most N - 1 - max(i, j) long, which drops exactly the
    words of degree >= N (see ``word_product``), so no word past the
    truncation is built. Raises ValueError when the predicted work passes
    MAX_PRODUCT_UNITS."""
    x._check_trunc(y)
    top = x.trunc - 1
    _check_units(x, y, top)
    return CompleteElement(x.trunc, shuffle_product(x._element, y._element, weight, top))


def complete_operator(x: CompleteElement) -> CompleteElement:
    """The shifted Baxter operator: the unit prefix raises every word's
    degree by one, so the top degree falls past the truncation. Tests use it
    to check the paper's claim that the completion is a Baxter algebra: the
    operator commutes with the projection and satisfies the Baxter identity."""
    return CompleteElement(x.trunc, baxter_operator(x._element))


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
        """Binomial convolution over the pairs of nonzero entries whose slots
        sum below the truncation, so zero padding costs nothing. Raises
        ValueError when their term pairs number over MAX_SERIES_PAIRS."""
        self._check_trunc(other)
        trunc = self.trunc
        left = [(k, e) for k, e in enumerate(self.entries) if not e.is_zero]
        right = [(j, e) for j, e in enumerate(other.entries) if not e.is_zero]
        slots = [j for j, _ in right]
        # terms[i]: the terms of the first i nonzero entries of other
        terms = list(accumulate((len(e.items()) for _, e in right), initial=0))
        pairs = sum(len(a.items()) * terms[bisect_left(slots, trunc - k)] for k, a in left)
        if pairs > MAX_SERIES_PAIRS:
            raise ValueError(
                f"the series product at truncation {trunc} would take {pairs:,} term "
                f"pairs, over the limit of {MAX_SERIES_PAIRS:,}"
            )
        out = [Polynomial.zero()] * trunc
        for k, a in left:
            for j, b in right:
                if k + j >= trunc:
                    break
                out[k + j] = out[k + j] + binomial(k + j, k) * a * b
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

    def __reduce__(self):
        return HurwitzSeries, (self.entries,)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"HurwitzSeries{self}"

    @staticmethod
    def parse(text: str) -> "HurwitzSeries":
        """Read ``(e0, e1, ...)``, entries in the polynomial grammar; the
        parentheses may be left out."""
        cur = Cursor(text)
        opened = cur.accept("(")
        entries = [read_polynomial(cur, ())]
        while cur.accept(","):
            entries.append(read_polynomial(cur, ()))
        if opened and not cur.accept(")"):
            cur.fail("expected ',' or ')'")
        if cur.peek()[0] != "end":
            cur.fail("unexpected trailing input")
        return HurwitzSeries(entries)


def hurwitz_iso(x: CompleteElement, weight: Weight) -> HurwitzSeries:
    """Read a residue class over the scalar base (all-unit words, weight 0)
    as a truncated Hurwitz series: the degree-n all-unit word maps to the n-th
    basis sequence. Tests use it to check the paper's identification, at
    weight 0, of the completion over the scalar base with the ring of
    Hurwitz series: the map is additive and multiplicative."""
    if not weight.is_zero:
        raise WeightNotZero("the Hurwitz identification requires weight 0")
    entries = [Polynomial.zero()] * x.trunc
    for word, coeff in x._element.terms():
        if not all(f.is_unit for f in word.factors):
            raise NotScalarBase(f"word {word} has a non-unit factor")
        entries[word.degree] = coeff
    return HurwitzSeries(entries)
