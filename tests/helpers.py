"""Independent oracles and random generators shared by the test modules.

The oracles here deliberately avoid the library's own arithmetic paths so
that they can serve as cross-checks.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import freebaxter
from freebaxter import (
    AbarWord,
    BaxterTarget,
    CompleteElement,
    MissingGeneratorImage,
    Monomial,
    NotInImage,
    Polynomial,
    SequenceTarget,
    ShuffleElement,
    ShuffleSelfTarget,
    StandardElement,
    TensorWord,
    Variable,
    Weight,
    WeightZero,
    coeff_var,
    extend_hom,
    gen_var,
    poly_exact_div,
    shuffle_product,
)
from freebaxter.exprparse import (
    Add,
    CoeffVar,
    GenVar,
    IntLit,
    Mul,
    Neg,
    PApply,
    Pow,
    Sub,
    WordLit,
)

GENS = ("x1", "x2")


# -- oracles -----------------------------------------------------------------

def pascal_binomial(n: int, k: int) -> int:
    """Binomial coefficient by building Pascal's triangle row by row."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def _poly_to_counter(p: Polynomial) -> dict[tuple, int]:
    out = {}
    for mono, coeff in p.items():
        key = tuple(sorted((v.name, e) for v, e in mono.exponents))
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def schoolbook_mul(p: Polynomial, q: Polynomial) -> dict[tuple, int]:
    """Multiply via plain term-by-term expansion on name/exponent tuples,
    independent of the Polynomial internals."""
    out: dict[tuple, int] = {}
    for k1, c1 in _poly_to_counter(p).items():
        for k2, c2 in _poly_to_counter(q).items():
            merged = Counter(dict(k1))
            merged.update(dict(k2))
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def poly_fingerprint(p: Polynomial) -> dict[tuple, int]:
    return _poly_to_counter(p)


def brute_shuffles(m: int, n: int) -> set[tuple[int, ...]]:
    """All (m,n)-shuffle image sequences by filtering the full symmetric
    group on the two monotonicity chains."""
    out = set()
    for perm in itertools.permutations(range(1, m + n + 1)):
        inverse = {v: i for i, v in enumerate(perm)}
        if all(inverse[i] < inverse[i + 1] for i in range(1, m)) and all(
            inverse[i] < inverse[i + 1] for i in range(m + 1, m + n)
        ):
            out.add(perm)
    return out


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


def mixable_histogram(m: int, n: int) -> dict[int, int]:
    """Counts of mixable (m,n)-shuffles by number of merged pairs."""
    hist: dict[int, int] = {}
    for ms in enumerate_mixable(m, n):
        hist[len(ms.merged)] = hist.get(len(ms.merged), 0) + 1
    return hist


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


def mixable_word_product(x: TensorWord, y: TensorWord, weight: Weight) -> ShuffleElement:
    """The product of two words by the paper's definition: a sum over every
    mixable (m,n)-shuffle, each merged pair contributing one power of the
    weight."""
    m, n = x.degree, y.degree
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
        coeff = weight.value ** len(ms.merged)
        prev = terms.get(word)
        terms[word] = coeff if prev is None else prev + coeff
    return ShuffleElement(terms)


def baxter_identity_holds(u: ShuffleElement, v: ShuffleElement, weight: Weight) -> bool:
    return freebaxter.baxter_identity_holds(ShuffleSelfTarget(weight), u, v)


def _mono_cmp(a: Monomial, b: Monomial) -> int:
    """Graded-lex comparison: total degree first, then lexicographic with the
    variable order (coefficient namespace first, then by name)."""
    da, db = a.total_degree, b.total_degree
    if da != db:
        return 1 if da > db else -1
    ea, eb = dict(a.exponents), dict(b.exponents)
    for v in sorted(set(ea) | set(eb), key=lambda v: v.sort_key):
        xa, xb = ea.get(v, 0), eb.get(v, 0)
        if xa != xb:
            return 1 if xa > xb else -1
    return 0


def _word_cmp(a: TensorWord | AbarWord, b: TensorWord | AbarWord) -> int:
    """The one word order, for both word kinds: length, then factorwise graded-lex."""
    if len(a.factors) != len(b.factors):
        return 1 if len(a.factors) > len(b.factors) else -1
    for fa, fb in zip(a.factors, b.factors):
        c = _mono_cmp(fa, fb)
        if c:
            return c
    return 0


def stabilized_complete_mul(
    x: CompleteElement, y: CompleteElement, weight: Weight
) -> CompleteElement:
    """Degreewise product of residue classes: component k is the degree-k
    piece of the product of the degree-k cutoffs, which has stabilized."""
    pieces = (
        shuffle_product(x.partial_sum(k), y.partial_sum(k), weight).homogeneous_component(k)
        for k in range(x.trunc)
    )
    return CompleteElement(x.trunc, ShuffleElement.from_terms(
        term for piece in pieces for term in piece.terms()
    ))


def componentwise_str(x: CompleteElement) -> str:
    """The residue-class printer by components: every nonzero homogeneous
    component in ascending degree, printed as a shuffle element, joined by
    " + "; "0" when all vanish."""
    u = x.partial_sum(x.trunc - 1)
    pieces = (u.homogeneous_component(k) for k in range(x.trunc))
    return " + ".join(str(p) for p in pieces if not p.is_zero) or "0"


def cut_to_degree(u: ShuffleElement, top: int) -> ShuffleElement:
    """The words of u of degree at most top."""
    return ShuffleElement({w: c for w, c in u.terms() if w.degree <= top})


def lambda_hurwitz_mul(f: list, g: list, weight: Weight) -> list[Polynomial]:
    """Guo and Keigher's lambda-Hurwitz product of two truncated sequences:
    (fg)_n = sum over k = 0..n, j = 0..n-k of
    C(n,k) C(n-k,j) lam^k f_{n-j} g_{k+j}."""
    lam_powers = [Polynomial.one()]
    for _ in range(len(f)):
        lam_powers.append(lam_powers[-1] * weight.value)
    out = []
    for n in range(len(f)):
        total = Polynomial.zero()
        for k in range(n + 1):
            for j in range(n - k + 1):
                c = pascal_binomial(n, k) * pascal_binomial(n - k, j)
                total = total + c * lam_powers[k] * f[n - j] * g[k + j]
        out.append(total)
    return out


def universal_to_standard(u: ShuffleElement, trunc: int, weight: Weight) -> StandardElement:
    """The canonical map by the paper's universal property: the Baxter
    homomorphism into the sequence algebra extending the staircase images."""
    return extend_hom(SequenceTarget(trunc, weight), u, weight)


def peel_from_standard(s: StandardElement, weight: Weight) -> ShuffleElement:
    """Leading-term peeling that subtracts the universal-property image of each
    peeled degree from the whole remainder."""
    if weight.is_zero:
        raise WeightZero("reconstruction requires a nonzero weight")
    remainder = s
    pairs = []
    for n, lam_power in enumerate(weight.powers(s.trunc - 1)):
        for j in range(1, n + 1):
            if not remainder.entry(j).is_zero:
                raise NotInImage(
                    f"entry {j} has a nonzero residual while peeling degree {n}"
                )
        lead = remainder.entry(n + 1)
        if lead.is_zero:
            continue
        piece = []
        for word, coeff in lead.terms():
            if len(word.factors) > n + 1:
                raise NotInImage(
                    f"entry {n + 1} contains a word of length {len(word.factors)}"
                )
            recovered = TensorWord(tuple(reversed(word.padded(n + 1))))
            piece.append((recovered, poly_exact_div(coeff, lam_power)))
        pairs += piece
        remainder = remainder - universal_to_standard(
            ShuffleElement.from_terms(piece), s.trunc, weight
        )
    if not remainder.is_zero:
        raise NotInImage("nonzero residual after peeling every entry")
    return ShuffleElement.from_terms(pairs)


# -- random AST generation -----------------------------------------------------

_COEFF_NAMES = ("lam", "c1")


def _random_factor_poly(rng: random.Random) -> Polynomial:
    result = Polynomial.zero()
    for _ in range(rng.randint(1, 2)):
        mono = Monomial.unit()
        for _ in range(rng.randint(0, 2)):
            mono = mono * Monomial.of(gen_var(rng.choice(GENS)))
        if rng.random() < 0.3:
            mono = mono * Monomial.of(coeff_var(rng.choice(_COEFF_NAMES)))
        result = result + Polynomial.from_monomial(mono, rng.randint(-3, 3))
    return result


def random_ast(rng: random.Random, depth: int = 0):
    """A random expression AST in the shapes the parser produces: chains are
    left-associated, so printing and reparsing is the identity."""

    def atom(d):
        roll = rng.random()
        if d < 2 and roll < 0.15:
            return PApply(expr(d + 1))
        if d < 2 and roll < 0.25:
            return expr(d + 1)  # appears parenthesized when printed
        roll = rng.random()
        if roll < 0.3:
            return IntLit(rng.randint(0, 9))
        if roll < 0.5:
            return CoeffVar(rng.choice(_COEFF_NAMES))
        if roll < 0.7:
            return GenVar(rng.choice(GENS))
        return WordLit(tuple(_random_factor_poly(rng) for _ in range(rng.randint(1, 3))))

    def power(d):
        node = atom(d)
        if rng.random() < 0.2:
            node = Pow(node, rng.randint(0, 3))
        return node

    def prod(d):
        node = power(d)
        for _ in range(rng.randint(0, 2)):
            node = Mul(node, power(d))
        return node

    def signed(d):
        node = prod(d)
        return Neg(node) if rng.random() < 0.15 else node

    def expr(d):
        node = signed(d)
        for _ in range(rng.randint(0, 2)):
            cls = Add if rng.random() < 0.5 else Sub
            node = cls(node, signed(d))
        return node

    return expr(depth)
