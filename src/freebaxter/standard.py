"""The sequence model of the free Baxter algebra (Rota's construction, in
general form) at a finite truncation.

Elements are length-N sequences with entries in the direct-limit algebra,
multiplied entrywise; the Baxter operator is weight times the prefix sums.
The canonical homomorphism from the shuffle representation sends a generator
to its staircase sequence; its constructive inverse peels leading terms,
dividing exactly by powers of the weight.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .coeffring import (
    Monomial,
    Polynomial,
    Variable,
    Weight,
    binomial,
    poly_exact_div,
)
from .errors import (
    DegreeTooLow,
    NotInImage,
    TruncMismatch,
    WeightZero,
)
from .mixshuffle import BaxterTarget
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

    def __reduce__(self):
        return StandardElement, (self.entries,)

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
        """Read a ``to_json_obj`` object; its ``trunc`` must be present and
        equal the number of entries, else ValueError."""
        entries = [AbarElement.from_json_obj(e, gens) for e in json_field(obj, "entries")]
        trunc = json_field(obj, "trunc")
        if type(trunc) is not int or trunc != len(entries):
            raise ValueError(
                f"JSON 'trunc' is {trunc!r} but 'entries' holds {len(entries)} entries"
            )
        return StandardElement(entries)


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


# Most chain terms one `to_standard` or `from_standard` may build; a word of
# degree n has C(trunc, n+1) chains below the truncation. A chain costs about
# 30 us at truncation 16 and 60 us at truncation 40 (Python 3.11, 2-vCPU
# VM), so the limit bounds a call to a few seconds. Over it a call raises
# ValueError before building any chain, instead of running for hours.
MAX_CHAINS = 100_000


def _check_chains(count: int, what: str) -> None:
    if count > MAX_CHAINS:
        raise ValueError(
            f"{what} would build {count:,} chain terms, over the limit of {MAX_CHAINS:,}"
        )


def _add_image(entries: list[dict], factors: Sequence[Monomial], coeff: Polynomial) -> None:
    """Add ``coeff`` times the chain sum of the word ``factors`` = [a0|..|an]
    to the entry dicts, in place: entry k gains, for every chain
    k > i1 > .. > in >= 1, the direct-limit word with a0 in slot k, aj in
    slot ij and units elsewhere. Words that cancel are dropped."""
    head, tail = factors[0], factors[:0:-1]
    unit = Monomial.unit()
    for k in range(len(factors), len(entries) + 1):
        acc = entries[k - 1]
        for slots in combinations(range(k - 1), len(tail)):
            slotted = [unit] * (k - 1) + [head]
            for slot, factor in zip(slots, tail):
                slotted[slot] = factor
            word = abar_normalize(slotted)
            prev = acc.get(word)
            if prev is None:
                acc[word] = coeff
            else:
                total = prev + coeff
                if total.is_zero:
                    del acc[word]
                else:
                    acc[word] = total


def to_standard(u: ShuffleElement, trunc: int, weight: Weight) -> StandardElement:
    """The canonical Baxter homomorphism from the shuffle representation into
    the sequence algebra, exact in every entry up to the truncation.

    Closed form: entry k of the image of [a0|a1|..|an] is the n-th weight
    power times the sum, over chains k > i1 > .. > in >= 1, of the
    direct-limit word with a0 in slot k, aj in slot ij and units elsewhere.
    A word of degree n has C(trunc, n+1) chains, none when n >= trunc. The
    universal property, ``extend_hom(SequenceTarget(trunc, weight), u,
    weight)``, gives the same sequence step by step and is the test oracle.
    Raises ValueError when trunc plus the chain count exceeds MAX_CHAINS."""
    words = [(word, coeff) for word, coeff in u.terms() if word.degree < trunc]
    _check_chains(
        trunc + sum(binomial(trunc, word.degree + 1) for word, _ in words),
        f"the image at truncation {trunc}",
    )
    powers = weight.powers(max((word.degree for word, _ in words), default=0))
    entries: list[dict] = [{} for _ in range(trunc)]
    for word, coeff in words:
        _add_image(entries, word.factors, coeff * powers[word.degree])
    return StandardElement([AbarElement(e) for e in entries])


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
    shuffle component. Recovers components of degree < trunc.

    Each peeled piece has its closed-form image (see ``to_standard``)
    subtracted from the remainder in place, entries n+1 on; the chain
    k = n+1 is the reversed word itself, so the peel zeroes entry n+1. Hence
    the two residual checks cannot fire; they are kept as cheap guards.
    Raises WeightZero at weight 0, NotInImage for a word longer than n+1 in
    entry n+1, NotDivisible when a leading coefficient is not divisible by
    the weight power, and ValueError when the pieces' chain count,
    C(trunc, n+1) per peeled word, exceeds MAX_CHAINS."""
    if weight.is_zero:
        raise WeightZero("reconstruction requires a nonzero weight")
    remainder = [dict(entry.terms()) for entry in s.entries]
    chains = 0
    pairs = []
    lam_power, power = Polynomial.one(), 0  # lam_power is lam^power
    for n in range(s.trunc):
        for j in range(1, n + 1):
            if remainder[j - 1]:
                raise NotInImage(
                    f"entry {j} has a nonzero residual while peeling degree {n}"
                )
        if not remainder[n]:
            continue
        while power < n:
            lam_power, power = lam_power * weight.value, power + 1
        piece = []
        for word, coeff in remainder[n].items():
            if len(word.factors) > n + 1:
                raise NotInImage(
                    f"entry {n + 1} contains a word of length {len(word.factors)}"
                )
            recovered = tuple(reversed(word.padded(n + 1)))
            pairs.append((TensorWord(recovered), poly_exact_div(coeff, lam_power)))
            piece.append((recovered, -coeff))
        chains += len(piece) * binomial(s.trunc, n + 1)
        _check_chains(chains, f"reconstruction at truncation {s.trunc}")
        for recovered, coeff in piece:
            _add_image(remainder, recovered, coeff)
    if any(remainder):
        raise NotInImage("nonzero residual after peeling every entry")
    return ShuffleElement.from_terms(pairs)


def prefix_sum_preimage(s: StandardElement, k: int, weight: Weight) -> StandardElement:
    """Exact right inverse of the prefix-sum operator on weight-divisible
    sequences vanishing up to entry k+1: returns r with the operator applied
    to r equal to s at truncation, and r vanishing up to entry k. Tests use
    it to check the paper's degree bound for the sequence algebra: such a
    sequence lies in the image of the operator, one degree lower."""
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
