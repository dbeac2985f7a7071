"""Mixable shuffles and the weighted shuffle product.

By the paper's definition the product of two tensor words sums over all
mixable (m,n)-shuffles: (m,n)-shuffles, each merging any subset of its
admissible adjacent pairs (a left-block factor immediately followed by a
right-block factor); every merge multiplies the two factors together and
contributes one power of the weight. That sum is the quasi-shuffle product

    (a.a') * (b.b') = a(a' * b.b') + b(a.a' * b') + lam.ab(a' * b'),

which ``word_product`` computes bottom-up over suffix pairs, merging equal
words as they form. The explicit enumeration of mixable shuffles, the
paper's definition, is the test oracle (``tests/helpers.py``); it is not on
the product path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .coeffring import (
    Monomial,
    Polynomial,
    Variable,
    Weight,
    binomial,
)
from .errors import WeightMismatch
from .words import ShuffleElement, TensorWord, _check_scalar


def mixable_counts(m: int, n: int) -> dict[int, int]:
    """Counts of mixable (m,n)-shuffles by number of merged pairs, in closed
    form: C(m+n-k, n) * C(n, k) mixable (m,n)-shuffles merge k pairs, for k = 0..min(m, n); k = 0 counts the
    plain shuffles."""
    if m < 0 or n < 0:
        raise ValueError("block sizes must be nonnegative")
    return {k: binomial(m + n - k, n) * binomial(n, k) for k in range(min(m, n) + 1)}


def word_product(
    x: TensorWord, y: TensorWord, weight: Weight, top: int | None = None
) -> ShuffleElement:
    """The weighted mixable-shuffle product of two basis words, cut to words
    of degree <= ``top`` when a bound is given.

    The heads multiply; the tails a = x[1:], b = y[1:] take the quasi-shuffle
    product. Row i of the table holds a[i:] * b[j:] for every j, as words of
    letter ids with integer counts; only rows i and i+1 are alive at once. A
    word of the product of a and b has merged k = m + n - len(word) pairs, so
    its coefficient is count * lam^k.

    The bound is pushed into the table. Every step from cell (0, 0) writes
    one letter and advances i, j or both by one, so whatever reaches cell
    (i, j) has at least max(i, j) letters in front of its tail: a tail longer
    than room = top - max(i, j) only ever ends in words of degree > top, and
    a tail no longer than that keeps its full count. The cut is therefore
    exact. The longest tail of cell (i, j), (m - i) + (n - j), exceeds its
    room exactly when min(i, j) < short = m + n - top, so only those cells
    are pruned; with no bound short is 0 and the table is the unbounded one.
    A pair with max(m, n) > top, that is short > min(m, n), gives zero."""
    a, b = x.factors[1:], y.factors[1:]
    m, n = len(a), len(b)
    short = 0 if top is None else m + n - top
    if short > min(m, n):
        return ShuffleElement.zero()
    ids: dict[Monomial, int] = {}
    aid = [ids.setdefault(f, len(ids)) for f in a]
    bid = [ids.setdefault(f, len(ids)) for f in b]
    abid = [[ids.setdefault(f * g, len(ids)) for g in b] for f in a]
    letters = list(ids)

    # row m: empty a-suffix; the single tail b[j:] is its cell's longest
    below = [{tuple(bid[j:]): 1} if min(m, j) >= short else {} for j in range(n + 1)]
    for i in range(m - 1, -1, -1):
        ai, merged = aid[i], abid[i]
        row = [None] * n + [{tuple(aid[i:]): 1} if min(i, n) >= short else {}]
        cut = n if i < short else short  # the cells j < cut can overflow
        for j in range(n - 1, -1, -1):
            cell = {(ai,) + w: c for w, c in below[j].items()}
            for prefix, source in ((bid[j], row[j + 1]), (merged[j], below[j + 1])):
                for w, c in source.items():
                    w = (prefix,) + w
                    cell[w] = cell.get(w, 0) + c
            if j < cut:
                room = top - max(i, j)
                cell = {w: c for w, c in cell.items() if len(w) <= room}
            row[j] = cell
        below = row

    powers = weight.powers(min(m, n))
    head = (x.factors[0] * y.factors[0],)
    return ShuffleElement({
        TensorWord(head + tuple(letters[t] for t in w)): count * powers[m + n - len(w)]
        for w, count in below[0].items()
    })


def shuffle_product(
    u: ShuffleElement, v: ShuffleElement, weight: Weight, top: int | None = None
) -> ShuffleElement:
    """Bilinear extension of the word product; commutative, associative,
    unital with identity [1]. With ``top``, each word product is cut to
    degree <= top inside its table (see ``word_product``), so the result is
    the full product cut to degree <= top."""
    def terms():
        for wu, cu in u.terms():
            for wv, cv in v.terms():
                scalar = _check_scalar(cu * cv)
                for word, coeff in word_product(wu, wv, weight, top).terms():
                    yield word, coeff * scalar

    return ShuffleElement.from_terms(terms())


def baxter_operator(u: ShuffleElement) -> ShuffleElement:
    """Prefix every word with the unit factor (the free Baxter operator)."""
    unit = Monomial.unit()
    return ShuffleElement(
        {TensorWord((unit,) + w.factors): c for w, c in u.terms()}
    )


def unit_word(length: int) -> TensorWord:
    """The all-unit word with the given number of factors."""
    if length < 1:
        raise ValueError("word length must be >= 1")
    return TensorWord((Monomial.unit(),) * length)


def unit_power_product(m: int, n: int, weight: Weight) -> ShuffleElement:
    """Closed form for the product of the all-unit words of degrees m and n."""
    powers = weight.powers(min(m, n))
    return ShuffleElement({
        unit_word(m + n + 1 - k): count * powers[k]
        for k, count in mixable_counts(m, n).items()
    })


def fil_degree(u: ShuffleElement) -> int | float:
    """Minimum word degree in the support; +inf for zero. u lies in the k-th
    filtration step exactly when fil_degree(u) >= k."""
    if u.is_zero:
        return float("inf")
    return min(w.degree for w, _ in u.terms())


def is_nonunital(u: ShuffleElement) -> bool:
    """True when no support word ends in the unit factor (the last factor of
    every word lies in the augmentation ideal). Tests use it to check the
    paper's claim that these words span a non-unital Baxter subalgebra:
    closed under the product and the operator."""
    return all(not w.factors[-1].is_unit for w, _ in u.terms())


class BaxterTarget(ABC):
    """A Baxter algebra a homomorphism can be extended into: carrier
    operations, the operator, and images of the generators."""

    def __init__(self, weight: Weight):
        self.weight = weight

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def mul(self, a, b): ...

    @abstractmethod
    def scale(self, c: Polynomial, a): ...

    @abstractmethod
    def apply_operator(self, a): ...

    @abstractmethod
    def generator_image(self, var: Variable): ...

    def monomial_image(self, mono: Monomial):
        """Image of a base-algebra monomial under the induced algebra map:
        coefficient content acts as a scalar, generator variables map to
        their declared images."""
        cpart, gpart = mono.split()
        result = self.one()
        for var, exp in gpart.exponents:
            image = self.generator_image(var)
            for _ in range(exp):
                result = self.mul(result, image)
        if not cpart.is_unit:
            result = self.scale(Polynomial.from_monomial(cpart), result)
        return result


def baxter_identity_holds(target: BaxterTarget, x, y, lam: Polynomial | None = None) -> bool:
    """Whether P(x)P(y) = P(xP(y)) + P(yP(x)) + lam*P(xy) holds in the
    target; lam defaults to the target's weight."""
    if lam is None:
        lam = target.weight.value
    op, mul = target.apply_operator, target.mul
    lhs = mul(op(x), op(y))
    rhs = op(mul(x, op(y))) + op(mul(y, op(x))) + target.scale(lam, op(mul(x, y)))
    return lhs == rhs


class ShuffleSelfTarget(BaxterTarget):
    """The shuffle algebra viewed as a target of itself; extension along the
    inclusion of generators is the identity map."""

    def zero(self):
        return ShuffleElement.zero()

    def one(self):
        return ShuffleElement.unit()

    def mul(self, a, b):
        return shuffle_product(a, b, self.weight)

    def scale(self, c, a):
        return a.scale(c)

    def apply_operator(self, a):
        return baxter_operator(a)

    def generator_image(self, var: Variable):
        return ShuffleElement.from_word(TensorWord((Monomial.of(var),)))


def extend_hom(target: BaxterTarget, u: ShuffleElement, weight: Weight):
    """The unique Baxter homomorphism extending the generator images: on a
    word it is a right fold alternating the induced algebra map with the
    target operator."""
    if target.weight.value != weight.value:
        raise WeightMismatch(
            f"target weight {target.weight} differs from requested weight {weight}"
        )
    result = target.zero()
    for word, coeff in u.terms():
        current = target.monomial_image(word.factors[-1])
        for factor in reversed(word.factors[:-1]):
            current = target.mul(
                target.monomial_image(factor), target.apply_operator(current)
            )
        result = result + target.scale(coeff, current)
    return result
