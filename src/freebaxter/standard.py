"""The sequence model of the free Baxter algebra (Rota's construction, in
general form) at a finite truncation.

Elements are length-N sequences with entries in the direct-limit algebra,
multiplied entrywise; the Baxter operator is weight times the prefix sums.
The canonical homomorphism from the shuffle representation sends a generator
to its staircase sequence; its constructive inverse peels leading terms,
dividing exactly by powers of the weight.
"""

from __future__ import annotations

from typing import Sequence

from .coeffring import (
    Monomial,
    Polynomial,
    Variable,
    Weight,
    poly_exact_div,
)
from .errors import (
    DegreeTooLow,
    NotInImage,
    TruncMismatch,
    WeightZero,
)
from .mixshuffle import BaxterTarget, extend_hom
from .words import (
    AbarElement,
    ShuffleElement,
    TensorWord,
    abar_normalize,
    expand_word_factors,
    json_field,
)


class StandardElement:
    """A truncated sequence of direct-limit elements; entry indices run
    1..trunc. Ring operations are entrywise."""

    __slots__ = ("trunc", "entries")

    def __init__(self, entries: Sequence[AbarElement]):
        if not entries:
            raise ValueError("a sequence needs at least one entry")
        self.trunc = len(entries)
        self.entries = tuple(entries)

    @staticmethod
    def zero(trunc: int) -> "StandardElement":
        return StandardElement([AbarElement.zero()] * trunc)

    @staticmethod
    def identity(trunc: int) -> "StandardElement":
        return StandardElement([AbarElement.identity()] * trunc)

    def entry(self, k: int) -> AbarElement:
        """1-based entry access."""
        if not 1 <= k <= self.trunc:
            raise IndexError(f"entry index {k} out of range 1..{self.trunc}")
        return self.entries[k - 1]

    def _check_trunc(self, other: "StandardElement") -> None:
        if self.trunc != other.trunc:
            raise TruncMismatch(f"truncation levels differ: {self.trunc} vs {other.trunc}")

    def __add__(self, other: "StandardElement") -> "StandardElement":
        self._check_trunc(other)
        return StandardElement([a + b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "StandardElement":
        return StandardElement([-a for a in self.entries])

    def __sub__(self, other: "StandardElement") -> "StandardElement":
        return self + (-other)

    def __mul__(self, other: "StandardElement") -> "StandardElement":
        self._check_trunc(other)
        return StandardElement([a * b for a, b in zip(self.entries, other.entries)])

    def scale(self, c) -> "StandardElement":
        return StandardElement([a.scale(c) for a in self.entries])

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardElement):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        parts = []
        for k in range(1, self.trunc + 1):
            entry = self.entry(k)
            if entry.is_zero:
                continue
            body = str(entry)
            if len(entry.terms()) > 1:
                body = f"({body})"
            parts.append(f"{body} g{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"StandardElement(trunc={self.trunc}, {self})"

    def to_json_obj(self) -> dict:
        return {
            "trunc": self.trunc,
            "entries": [a.to_json_obj() for a in self.entries],
        }

    @staticmethod
    def from_json_obj(obj: dict, gens: Sequence[str] = ()) -> "StandardElement":
        return StandardElement(
            [AbarElement.from_json_obj(e, gens) for e in json_field(obj, "entries")]
        )


def gamma(k: int, trunc: int) -> StandardElement:
    """The basis sequence with the identity in slot k; zero if k > trunc."""
    if k < 1:
        raise ValueError("gamma index must be >= 1")
    entries = [AbarElement.zero()] * trunc
    if k <= trunc:
        entries[k - 1] = AbarElement.identity()
    return StandardElement(entries)


def generator_sequence(a: Polynomial, trunc: int) -> StandardElement:
    """The staircase sequence of a base-algebra element: entry k carries the
    element in slot k of the direct-limit word, extended linearly."""
    terms = expand_word_factors([a])
    units = (Monomial.unit(),) * trunc
    return StandardElement([
        AbarElement.from_terms((abar_normalize(units[:k] + monos), c) for c, monos in terms)
        for k in range(trunc)
    ])


def prefix_sum_operator(s: StandardElement, weight: Weight) -> StandardElement:
    """The sequence-algebra Baxter operator: entry j is the weight times the
    sum of entries before j; exact at truncation."""
    entries = []
    running = AbarElement.zero()
    for k in range(1, s.trunc + 1):
        entries.append(running.scale(weight.value))
        running = running + s.entry(k)
    return StandardElement(entries)


class SequenceTarget(BaxterTarget):
    """The truncated sequence algebra as a homomorphism target: generators go
    to their staircase sequences, the operator is the weighted prefix sum."""

    def __init__(self, trunc: int, weight: Weight):
        super().__init__(weight)
        self.trunc = trunc

    def zero(self):
        return StandardElement.zero(self.trunc)

    def one(self):
        return StandardElement.identity(self.trunc)

    def mul(self, a, b):
        return a * b

    def scale(self, c, a):
        return a.scale(c)

    def apply_operator(self, a):
        return prefix_sum_operator(a, self.weight)

    def generator_image(self, var: Variable):
        return generator_sequence(Polynomial.from_variable(var), self.trunc)


def to_standard(u: ShuffleElement, trunc: int, weight: Weight) -> StandardElement:
    """The canonical Baxter homomorphism from the shuffle representation into
    the sequence algebra, exact in every entry up to the truncation."""
    return extend_hom(SequenceTarget(trunc, weight), u, weight)


def seq_degree(s: StandardElement) -> int | float:
    """Number of leading zero entries; +inf when the whole sequence is zero."""
    for k in range(1, s.trunc + 1):
        if not s.entry(k).is_zero:
            return k - 1
    return float("inf")


def from_standard(s: StandardElement, weight: Weight) -> ShuffleElement:
    """Constructive inverse of the canonical homomorphism by leading-term
    peeling: entry n+1 of the running remainder, divided exactly by the n-th
    weight power, padded to length n+1 and reversed, recovers the degree-n
    shuffle component. Recovers components of degree < trunc."""
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
        remainder = remainder - to_standard(ShuffleElement.from_terms(piece), s.trunc, weight)
    if not remainder.is_zero:
        raise NotInImage("nonzero residual after peeling every entry")
    return ShuffleElement.from_terms(pairs)


def prefix_sum_preimage(s: StandardElement, k: int, weight: Weight) -> StandardElement:
    """Exact right inverse of the prefix-sum operator on weight-divisible
    sequences vanishing up to entry k+1: returns r with the operator applied
    to r equal to s at truncation, and r vanishing up to entry k."""
    if weight.is_zero:
        raise WeightZero("the preimage construction requires a nonzero weight")
    if s.is_zero:
        return StandardElement.zero(s.trunc)
    deg = seq_degree(s)
    if deg < k + 1:
        raise DegreeTooLow(f"sequence vanishes only up to entry {deg}, need {k + 1}")
    reduced = [entry.exact_div_scalar(weight.value) for entry in s.entries]
    trunc = s.trunc
    entries = [AbarElement.zero() for _ in range(trunc)]
    # telescoping differences: entry i of the preimage is a_{i+1} - a_i,
    # with a_i read from the weight-reduced input and a_{trunc+1} taken as 0
    for i in range(k + 1, trunc + 1):
        nxt = reduced[i] if i < trunc else AbarElement.zero()
        entries[i - 1] = nxt - reduced[i - 1]
    return StandardElement(entries)
