"""Mixable shuffles and the weighted shuffle product.

The product of two tensor words enumerates all (m,n)-shuffles, each optionally
merging any subset of its admissible adjacent pairs (a left-block factor
immediately followed by a right-block factor); every merge multiplies the two
factors together and contributes one power of the weight.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .coeffring import (
    Monomial,
    Namespace,
    Polynomial,
    Variable,
    Weight,
    binomial,
    gen_var,
)
from .errors import MissingGeneratorImage, NamespaceViolation, WeightMismatch
from .words import ShuffleElement, TensorWord


@dataclass(frozen=True, slots=True)
class ShufflePermutation:
    """A permutation of {1..m+n} that keeps 1..m and m+1..m+n in increasing
    order of position."""

    m: int
    n: int
    images: tuple[int, ...]

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __str__(self) -> str:
        return "(" + " ".join(str(i) for i in self.images) + ")"


@dataclass(frozen=True, slots=True)
class MixableShuffle:
    """A shuffle together with a chosen set of merged admissible pairs; the
    set stores the left index k of each merged pair (k, k+1)."""

    sigma: ShufflePermutation
    merged: tuple[int, ...]


@lru_cache(maxsize=None)
def enumerate_shuffles(m: int, n: int) -> tuple[ShufflePermutation, ...]:
    """All (m,n)-shuffles, ordered lexicographically by image sequence."""
    if m < 0 or n < 0:
        raise ValueError("block sizes must be nonnegative")
    result = []
    for left_positions in itertools.combinations(range(m + n), m):
        images = [0] * (m + n)
        left = set(left_positions)
        li, ri = 1, m + 1
        for pos in range(m + n):
            if pos in left:
                images[pos] = li
                li += 1
            else:
                images[pos] = ri
                ri += 1
        result.append(ShufflePermutation(m, n, tuple(images)))
    result.sort(key=lambda s: s.images)
    return tuple(result)


def admissible_pairs(sigma: ShufflePermutation) -> tuple[int, ...]:
    """Indices k with sigma(k) <= m < sigma(k+1), in increasing order."""
    m, total = sigma.m, sigma.m + sigma.n
    return tuple(
        k for k in range(1, total) if sigma(k) <= m < sigma(k + 1)
    )


@lru_cache(maxsize=None)
def enumerate_mixable(m: int, n: int) -> tuple[MixableShuffle, ...]:
    """All mixable (m,n)-shuffles: shuffles in lex order, merge subsets in
    binary-counter order over the sorted admissible-pair list."""
    result = []
    for sigma in enumerate_shuffles(m, n):
        pairs = admissible_pairs(sigma)
        for size in range(len(pairs) + 1):
            for merged in itertools.combinations(pairs, size):
                result.append(MixableShuffle(sigma, merged))
    return tuple(result)


def mixable_counts(m: int, n: int) -> dict[int, int]:
    """Closed form of ``mixable_histogram``: C(m+n-k, n) * C(n, k) mixable
    (m,n)-shuffles merge k pairs, for k = 0..min(m, n); k = 0 counts the
    plain shuffles."""
    if m < 0 or n < 0:
        raise ValueError("block sizes must be nonnegative")
    return {k: binomial(m + n - k, n) * binomial(n, k) for k in range(min(m, n) + 1)}


def mixable_histogram(m: int, n: int) -> dict[int, int]:
    """Counts of mixable (m,n)-shuffles by number of merged pairs."""
    hist: dict[int, int] = {}
    for ms in enumerate_mixable(m, n):
        hist[len(ms.merged)] = hist.get(len(ms.merged), 0) + 1
    return hist


@lru_cache(maxsize=None)
def _word_product_cached(x: TensorWord, y: TensorWord, lam: Polynomial) -> ShuffleElement:
    m = x.degree
    n = y.degree
    head = x.factors[0] * y.factors[0]
    # u[k] for k = 1..m+n: left block then right block
    u = (None,) + x.factors[1:] + y.factors[1:]
    terms: dict[TensorWord, Polynomial] = {}
    for ms in enumerate_mixable(m, n):
        factors = [head]
        merged = set(ms.merged)
        k = 1
        while k <= m + n:
            f = u[ms.sigma(k)]
            if k in merged:
                f = f * u[ms.sigma(k + 1)]
                k += 2
            else:
                k += 1
            factors.append(f)
        word = TensorWord(tuple(factors))
        coeff = lam ** len(ms.merged)
        prev = terms.get(word)
        terms[word] = coeff if prev is None else prev + coeff
    return ShuffleElement(terms)


def word_product(x: TensorWord, y: TensorWord, weight: Weight) -> ShuffleElement:
    """The weighted mixable-shuffle product of two basis words."""
    return _word_product_cached(x, y, weight.value)


def shuffle_product(u: ShuffleElement, v: ShuffleElement, weight: Weight) -> ShuffleElement:
    """Bilinear extension of the word product; commutative, associative,
    unital with identity [1]."""
    result = ShuffleElement()
    for wu, cu in u.terms():
        for wv, cv in v.terms():
            result = result + word_product(wu, wv, weight).scale(cu * cv)
    return result


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
    return ShuffleElement({
        unit_word(m + n + 1 - k): count * weight.value**k
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
    every word lies in the augmentation ideal)."""
    return all(not w.factors[-1].is_unit for w, _ in u.terms())


@dataclass(frozen=True, slots=True)
class APlusElement:
    """An element of the unitalization: a coefficient part and an
    augmentation-ideal part (zero constant term in the generator variables)."""

    c: Polynomial
    a: Polynomial

    def __post_init__(self):
        if self.c.has_namespace(Namespace.GENERATOR):
            raise NamespaceViolation("coefficient part contains generator variables")
        for mono, _ in self.a.items():
            _, gpart = mono.split()
            if gpart.is_unit:
                raise ValueError("augmentation-ideal part has a nonzero constant term")

    @staticmethod
    def identity() -> "APlusElement":
        return APlusElement(Polynomial.one(), Polynomial.zero())

    def __add__(self, other: "APlusElement") -> "APlusElement":
        return APlusElement(self.c + other.c, self.a + other.a)

    def __mul__(self, other: "APlusElement") -> "APlusElement":
        return APlusElement(
            self.c * other.c,
            self.c * other.a + other.c * self.a + self.a * other.a,
        )

    def __str__(self) -> str:
        return f"({self.c}, {self.a})"


class BaxterTarget(ABC):
    """A Baxter algebra a homomorphism can be extended into: carrier
    operations, the operator, and images of the generators."""

    def __init__(self, weight: Weight):
        self.weight = weight
        self.verified: bool | None = None

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def add(self, a, b): ...

    @abstractmethod
    def mul(self, a, b): ...

    @abstractmethod
    def scale(self, c: Polynomial, a): ...

    @abstractmethod
    def apply_operator(self, a): ...

    @abstractmethod
    def generator_image(self, var: Variable): ...

    def sample(self, rng: random.Random):
        """Optional random carrier element for the registration self-check."""
        return None

    def register(self, trials: int = 20, seed: int = 0) -> bool | None:
        """Probabilistic check that the operator satisfies the weight-lambda
        Baxter identity; records and returns the outcome (None if the target
        cannot sample elements)."""
        rng = random.Random(seed)
        if self.sample(rng) is None:
            self.verified = None
        else:
            self.verified = all(
                baxter_identity_holds(self, self.sample(rng), self.sample(rng))
                for _ in range(trials)
            )
        return self.verified

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
    rhs = target.add(
        target.add(op(mul(x, op(y))), op(mul(y, op(x)))),
        target.scale(lam, op(mul(x, y))),
    )
    return lhs == rhs


class ScalarBaxterTarget(BaxterTarget):
    """The base polynomial algebra with the operator a -> -weight*a, which
    satisfies the Baxter identity for its weight."""

    def __init__(self, weight: Weight, gens: Sequence[str] = ("x1", "x2")):
        super().__init__(weight)
        self._gens = frozenset(gens)

    def zero(self):
        return Polynomial.zero()

    def one(self):
        return Polynomial.one()

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def scale(self, c, a):
        return c * a

    def apply_operator(self, a):
        return -(self.weight.value * a)

    def generator_image(self, var: Variable):
        if var.name not in self._gens:
            raise MissingGeneratorImage(f"no image declared for generator {var.name}")
        return Polynomial.from_variable(var)

    def sample(self, rng: random.Random):
        gens = sorted(self._gens)
        terms = Polynomial.zero()
        for _ in range(rng.randint(1, 3)):
            mono = Monomial.unit()
            for _ in range(rng.randint(0, 2)):
                mono = mono * Monomial.of(gen_var(rng.choice(gens)))
            terms = terms + Polynomial.from_monomial(mono, rng.randint(-3, 3))
        return terms


class ShuffleSelfTarget(BaxterTarget):
    """The shuffle algebra viewed as a target of itself; extension along the
    inclusion of generators is the identity map."""

    def __init__(self, weight: Weight):
        super().__init__(weight)

    def zero(self):
        return ShuffleElement.zero()

    def one(self):
        return ShuffleElement.unit()

    def add(self, a, b):
        return a + b

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
        result = target.add(result, target.scale(coeff, current))
    return result
