"""Seeded random elements for the property-check suites.

Distribution: 1-3 words per element, word length uniform in 1..max_len,
each factor a monomial of total degree <= 2 over the configured generators,
integer coefficients uniform in [-3, 3]. The PRNG is Python's Mersenne
Twister; reproducible from the seed alone.
"""

from __future__ import annotations

import random
from typing import Sequence

from .coeffring import Monomial, gen_var
from .words import AbarElement, ShuffleElement, TensorWord, abar_normalize

RNG_ALGORITHM = "mersenne-twister"

DEFAULT_GENS = ("x1", "x2")


def random_monomial(rng: random.Random, gens: Sequence[str] = DEFAULT_GENS,
                    max_degree: int = 2) -> Monomial:
    mono = Monomial.unit()
    for _ in range(rng.randint(0, max_degree)):
        mono = mono * Monomial.of(gen_var(rng.choice(gens)))
    return mono


def random_word(rng: random.Random, gens: Sequence[str] = DEFAULT_GENS,
                max_len: int = 4, max_degree: int = 2) -> TensorWord:
    length = rng.randint(1, max_len)
    return TensorWord(tuple(random_monomial(rng, gens, max_degree) for _ in range(length)))


def random_shuffle_element(rng: random.Random, gens: Sequence[str] = DEFAULT_GENS,
                           max_len: int = 4, max_words: int = 3,
                           max_degree: int = 2) -> ShuffleElement:
    pairs = []
    for _ in range(rng.randint(1, max_words)):
        coeff = rng.randint(-3, 3)
        pairs.append((random_word(rng, gens, max_len, max_degree), coeff))
    return ShuffleElement.from_terms(pairs)


def random_abar_element(rng: random.Random, gens: Sequence[str] = DEFAULT_GENS,
                        max_len: int = 3, max_degree: int = 2) -> AbarElement:
    pairs = []
    for _ in range(rng.randint(1, 2)):
        factors = tuple(
            random_monomial(rng, gens, max_degree) for _ in range(rng.randint(0, max_len))
        )
        pairs.append((abar_normalize(factors), rng.randint(-3, 3)))
    return AbarElement.from_terms(pairs)


def random_standard_element(rng: random.Random, trunc: int,
                            gens: Sequence[str] = DEFAULT_GENS) -> "StandardElement":
    from .standard import StandardElement

    return StandardElement([random_abar_element(rng, gens) for _ in range(trunc)])
