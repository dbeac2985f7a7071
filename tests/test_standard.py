import json
import random

import pytest

from freebaxter import (
    AbarElement,
    AbarWord,
    DegreeTooLow,
    Monomial,
    NotDivisible,
    NotInImage,
    Polynomial,
    ShuffleElement,
    SequenceTarget,
    StandardElement,
    TensorWord,
    TruncMismatch,
    Weight,
    WeightZero,
    abar_normalize,
    baxter_identity_holds,
    baxter_operator,
    coeff_var,
    fil_degree,
    from_standard,
    gamma,
    gen_var,
    generator_sequence,
    parse_polynomial,
    prefix_sum_operator,
    prefix_sum_preimage,
    seq_degree,
    shuffle_product,
    to_standard,
)
from freebaxter.randgen import random_shuffle_element, random_standard_element

LAM = Weight.default()
TWO = Weight.of(2)
N = 6
X1 = Monomial.of(gen_var("x1"))
X2 = Monomial.of(gen_var("x2"))
ONE = Monomial.unit()
LAM_POLY = Polynomial.from_variable(coeff_var("lam"))


def aw(*factors):
    return AbarElement.from_word(AbarWord(tuple(factors)))


def tw(*factors):
    return TensorWord(tuple(factors))


def test_gamma_basis():
    g2 = gamma(2, 4)
    assert g2.entry(2) == AbarElement.identity()
    assert g2.entry(1).is_zero and g2.entry(3).is_zero
    assert gamma(9, 4).is_zero
    assert gamma(1, 3) * gamma(2, 3) == StandardElement.zero(3)
    assert gamma(2, 3) * gamma(2, 3) == gamma(2, 3)


def test_generator_sequence_staircase():
    t1 = generator_sequence(Polynomial.from_variable(gen_var("x1")), 3)
    assert t1.entry(1) == aw(X1)
    assert t1.entry(2) == aw(ONE, X1)
    assert t1.entry(3) == aw(ONE, ONE, X1)
    # the unit of the base algebra gives the identity sequence
    assert generator_sequence(Polynomial.one(), 3) == StandardElement.identity(3)
    mixed = generator_sequence(
        Polynomial.from_variable(gen_var("x1")) + 2 * LAM_POLY, 2
    )
    assert mixed.entry(1) == aw(X1) + AbarElement.identity().scale(2 * LAM_POLY)
    assert mixed.entry(2) == aw(ONE, X1) + AbarElement.identity().scale(2 * LAM_POLY)


def test_staircase_sequences_multiply_pointwise():
    t1 = generator_sequence(Polynomial.from_variable(gen_var("x1")), 4)
    t2 = generator_sequence(Polynomial.from_variable(gen_var("x2")), 4)
    product = t1 * t2
    assert product == generator_sequence(
        Polynomial.from_variable(gen_var("x1")) * Polynomial.from_variable(gen_var("x2")),
        4,
    )
    assert product.entry(2) == aw(ONE, X1 * X2)


def test_prefix_sum_operator_examples():
    assert prefix_sum_operator(gamma(1, 4), LAM) == (
        gamma(2, 4) + gamma(3, 4) + gamma(4, 4)
    ).scale(LAM.value)
    assert prefix_sum_operator(StandardElement.zero(3), LAM).is_zero
    s = prefix_sum_operator(gamma(2, 4), TWO)
    assert s.entry(1).is_zero and s.entry(2).is_zero
    assert s.entry(3) == AbarElement.identity().scale(2)


def test_prefix_sum_operator_baxter_identity():
    rng = random.Random(90)
    for _ in range(40):
        s = random_standard_element(rng, trunc=5)
        t = random_standard_element(rng, trunc=5)
        assert baxter_identity_holds(SequenceTarget(5, LAM), s, t)


def test_to_standard_generator_word():
    u = ShuffleElement.from_word(tw(X1, X2))
    s = to_standard(u, 3, LAM)
    assert s.entry(1).is_zero
    assert s.entry(2) == aw(X2, X1).scale(LAM.value)
    assert s.entry(3) == (aw(X2, ONE, X1) + aw(ONE, X2, X1)).scale(LAM.value)
    assert str(s) == "lam*(x2|x1) g2 + (lam*(x2|1|x1) + lam*(1|x2|x1)) g3"


def test_to_standard_is_ring_and_operator_map():
    rng = random.Random(101)
    for _ in range(30):
        u = random_shuffle_element(rng, max_len=3)
        v = random_shuffle_element(rng, max_len=3)
        su, sv = to_standard(u, N, LAM), to_standard(v, N, LAM)
        assert to_standard(shuffle_product(u, v, LAM), N, LAM) == su * sv
        assert to_standard(baxter_operator(u), N, LAM) == prefix_sum_operator(su, LAM)
    assert to_standard(ShuffleElement.unit(), 4, LAM) == StandardElement.identity(4)


def test_leading_entry_is_scaled_reversal():
    """Entry n of the image of a length-n word is the (n-1)-st weight power
    times the reversed word, with all earlier entries zero."""
    rng = random.Random(112)
    for _ in range(40):
        length = rng.randint(1, 5)
        factors = tuple(
            Monomial.of(gen_var(rng.choice(("x1", "x2")))) for _ in range(length)
        )
        u = ShuffleElement.from_word(tw(*factors))
        s = to_standard(u, N, LAM)
        for j in range(1, length):
            assert s.entry(j).is_zero
        expected = AbarElement(
            {abar_normalize(tuple(reversed(factors))): LAM.value ** (length - 1)}
        )
        assert s.entry(length) == expected


def test_seq_degree():
    assert seq_degree(gamma(3, 5)) == 2
    assert seq_degree(StandardElement.zero(4)) == float("inf")
    assert seq_degree(StandardElement.identity(4)) == 0
    rng = random.Random(123)
    for _ in range(30):
        u = random_shuffle_element(rng)
        if u.is_zero:
            continue
        assert seq_degree(to_standard(u, N, LAM)) >= fil_degree(u)


def test_from_standard_roundtrip_symbolic_weight():
    rng = random.Random(134)
    for _ in range(40):
        u = random_shuffle_element(rng, max_len=4)
        assert from_standard(to_standard(u, N, LAM), LAM) == u


def test_from_standard_roundtrip_integer_weight():
    rng = random.Random(145)
    for _ in range(40):
        u = random_shuffle_element(rng, max_len=4)
        assert from_standard(to_standard(u, N, TWO), TWO) == u


def test_from_standard_rejects_gamma2():
    # gamma_2 is not in the image: its leading entry is not divisible by
    # the weight
    with pytest.raises((NotInImage, NotDivisible)):
        from_standard(gamma(2, 4), LAM)


def test_from_standard_rejects_weight_zero():
    with pytest.raises(WeightZero):
        from_standard(StandardElement.identity(3), Weight.of(0))
    with pytest.raises(WeightZero):
        prefix_sum_preimage(StandardElement.zero(3), 0, Weight.of(0))


def test_prefix_sum_preimage_right_inverse():
    rng = random.Random(156)
    for _ in range(40):
        k = rng.randint(0, 3)
        r = random_standard_element(rng, trunc=N)
        # force vanishing below entry k, then apply the operator to get a
        # sequence in the operator image of the right degree
        forced = StandardElement(
            [AbarElement.zero() if i < k else e for i, e in enumerate(r.entries)]
        )
        s = prefix_sum_operator(forced, LAM)
        witness = prefix_sum_preimage(s, k, LAM)
        assert prefix_sum_operator(witness, LAM) == s
        assert seq_degree(witness) >= k or witness.is_zero


def test_prefix_sum_preimage_example():
    s = (gamma(3, 4) + gamma(4, 4)).scale(LAM.value)
    witness = prefix_sum_preimage(s, 1, LAM)
    assert prefix_sum_operator(witness, LAM) == s
    assert witness.entry(1).is_zero


def test_prefix_sum_preimage_degree_too_low():
    with pytest.raises(DegreeTooLow):
        prefix_sum_preimage(gamma(2, 4).scale(LAM.value), 2, LAM)


def test_standard_trunc_mismatch():
    with pytest.raises(TruncMismatch):
        StandardElement.identity(3) * StandardElement.identity(4)


def test_standard_json_roundtrip():
    rng = random.Random(167)
    for _ in range(20):
        s = random_standard_element(rng, trunc=4)
        obj = json.loads(json.dumps(s.to_json_obj()))
        assert StandardElement.from_json_obj(obj, gens=("x1", "x2")) == s


def test_generator_sequence_merges_equal_words():
    # lam*x1 and 2*x1 land on the same word in every entry
    seq = generator_sequence(parse_polynomial("lam*x1 + 2*x1", ("x1",)), 4)
    x1 = Monomial.of(gen_var("x1"))
    for k in range(1, 5):
        word = abar_normalize((Monomial.unit(),) * (k - 1) + (x1,))
        assert seq.entry(k) == AbarElement.from_word(word, LAM.value + 2)
