"""The seeded generators draw in a fixed order: these are their outputs for
seeds 0-4, so any change to the order of random draws shows here."""

import random

import pytest

from freebaxter.randgen import random_abar_element, random_shuffle_element

SHUFFLE = [
    "3*[1|x2|x2|x2] + [x1*x2|1]",
    "[x1]",
    "-3*[x1]",
    "[x2|x1^2]",
    "-[x2^2]",
]

ABAR = [
    "3*(x1^2|x1)",
    "-1",
    "-3*1",
    "2*(x2)",
    "-2*(1|x2^2)",
]


@pytest.mark.parametrize("seed", range(5))
def test_random_shuffle_element_is_stable(seed):
    assert str(random_shuffle_element(random.Random(seed))) == SHUFFLE[seed]


@pytest.mark.parametrize("seed", range(5))
def test_random_abar_element_is_stable(seed):
    assert str(random_abar_element(random.Random(seed))) == ABAR[seed]
