import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebaxter import (
    AbarElement,
    AbarWord,
    DegreeTooLow,
    FreeBaxterError,
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
from freebaxter import standard
from freebaxter.exprparse import eval_expr, parse_expr
from freebaxter.randgen import random_abar_element, random_shuffle_element, random_standard_element
from helpers import cut_to_degree, peel_from_standard, universal_to_standard

LAM = Weight.default()
TWO = Weight.of(2)
N = 6
X1 = Monomial.of(gen_var("x1"))
X2 = Monomial.of(gen_var("x2"))
ONE = Monomial.unit()
LAM_POLY = Polynomial.from_variable(coeff_var("lam"))
ZERO = Weight.of(0)
ORACLE_WEIGHTS = (LAM, TWO, Weight.of(LAM_POLY + 1), Weight.of(LAM_POLY * LAM_POLY * -3))


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
    with pytest.raises(NotDivisible):
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


# -- the closed form against the universal property ---------------------------

# all-unit words, where every chain gives the same word, and words with unit
# or repeated factors, where chains of one word or of several words merge
MERGING = (
    "[1]", "[1|1]", "2*[1|1|1] - [1|1]", "[1|1|1|1|1]", "[x1|x1|x1]",
    "[x1|1|x1] + [1|x1|x1]", "[1|x1|1|x1]", "[x1|x1] - [x1^2]", "[1|x1] + [x1|1]",
)


def _elem(text):
    return eval_expr(parse_expr(text, ("x1", "x2")), LAM)


def _differential_inputs():
    rng = random.Random(178)
    return [_elem(t) for t in MERGING] + [random_shuffle_element(rng, max_len=5) for _ in range(12)]


def _peel_outcome(fn, s, weight):
    """What ``fn(s, weight)`` returns, as text and value, or what it raises."""
    try:
        result = fn(s, weight)
    except FreeBaxterError as exc:
        return type(exc).__name__, str(exc)
    return str(result), result


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS + (ZERO,), ids=str)
def test_to_standard_matches_universal_property(weight):
    for u in _differential_inputs():
        for trunc in range(1, 8):
            got = to_standard(u, trunc, weight)
            want = universal_to_standard(u, trunc, weight)
            assert (str(got), got) == (str(want), want)


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_from_standard_matches_peeling_oracle(weight):
    """Images, and images with a scaled random entry added, which the peel
    either recovers or refuses at the same entry with the same message."""
    rng = random.Random(189)
    for u in _differential_inputs():
        for trunc in range(1, 8):
            image = to_standard(u, trunc, weight)
            j = rng.randint(1, trunc)
            bump = [AbarElement.zero()] * trunc
            bump[j - 1] = random_abar_element(rng).scale(weight.value ** (j - 1))
            for s in (image, image + StandardElement(bump)):
                assert _peel_outcome(from_standard, s, weight) == _peel_outcome(
                    peel_from_standard, s, weight
                )


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_from_standard_peels_sparse_degrees(weight):
    """Only late entries are nonempty, so the peel needs weight powers it
    skipped building: degree 3 and 5 words, and a lead coefficient that the
    weight power does not divide."""
    u = ShuffleElement.from_word(tw(X1, ONE, X2, X1), 3) + ShuffleElement.from_word(
        tw(*[X2] * 6)
    )
    for trunc in (4, 6, 9):
        image = to_standard(u, trunc, weight)
        assert from_standard(image, weight) == cut_to_degree(u, trunc - 1)
        assert _peel_outcome(from_standard, image, weight) == _peel_outcome(
            peel_from_standard, image, weight
        )
        bump = [AbarElement.zero()] * trunc
        bump[trunc - 1] = aw(X1, X2)
        s = image + StandardElement(bump)
        assert _peel_outcome(from_standard, s, weight) == _peel_outcome(
            peel_from_standard, s, weight
        )


_letters = st.sampled_from([ONE, X1, X2, X1 * X1])
_words = st.lists(_letters, min_size=1, max_size=5).map(lambda fs: tw(*fs))
_elements = st.lists(st.tuples(_words, st.integers(-3, 3)), min_size=1, max_size=3).map(
    ShuffleElement.from_terms
)
_truncs = st.integers(1, 7)
# a + b*lam for small integers: integer weights when b = 0, symbolic otherwise
_weights = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda ab: Weight.of(LAM_POLY * ab[1] + ab[0])
)
_nonzero_weights = _weights.filter(lambda w: not w.is_zero)


@settings(max_examples=100, deadline=None)
@given(_elements, _truncs, st.sampled_from(ORACLE_WEIGHTS + (ZERO,)))
def test_closed_form_matches_oracles_generated(u, trunc, weight):
    got = to_standard(u, trunc, weight)
    want = universal_to_standard(u, trunc, weight)
    assert (str(got), got) == (str(want), want)
    if not weight.is_zero:
        assert _peel_outcome(from_standard, got, weight) == _peel_outcome(
            peel_from_standard, got, weight
        )


@settings(max_examples=60, deadline=None)
@given(_elements, _elements, _truncs, _weights)
def test_to_standard_is_ring_and_operator_homomorphism(u, v, trunc, weight):
    su, sv = to_standard(u, trunc, weight), to_standard(v, trunc, weight)
    assert to_standard(u + v, trunc, weight) == su + sv
    assert to_standard(shuffle_product(u, v, weight), trunc, weight) == su * sv
    assert to_standard(baxter_operator(u), trunc, weight) == prefix_sum_operator(su, weight)
    assert to_standard(ShuffleElement.unit(), trunc, weight) == StandardElement.identity(trunc)


@settings(max_examples=100, deadline=None)
@given(_elements, _truncs, _nonzero_weights)
def test_from_standard_inverts_to_standard(u, trunc, weight):
    below = ShuffleElement.from_terms((w, c) for w, c in u.terms() if w.degree < trunc)
    assert from_standard(to_standard(u, trunc, weight), weight) == below


# -- refusals -------------------------------------------------------------------

@pytest.mark.parametrize("entries, message", [
    ((aw(X1, X2), AbarElement.zero(), AbarElement.zero()),
     "entry 1 contains a word of length 2"),
    ((AbarElement.zero(), aw(X1, X2, X1).scale(LAM_POLY), AbarElement.zero()),
     "entry 2 contains a word of length 3"),
])
def test_from_standard_long_leading_word_not_in_image(entries, message):
    with pytest.raises(NotInImage, match=f"^{message}$"):
        from_standard(StandardElement(entries), LAM)


def test_chain_budget_is_the_predicted_count(monkeypatch):
    """[x1] + [x1|x2] at truncation 6: the image predicts 6 + C(6,1) + C(6,2)
    = 27 chain terms, the peel C(6,1) + C(6,2) = 21."""
    u = ShuffleElement.from_word(tw(X1)) + ShuffleElement.from_word(tw(X1, X2))
    s = to_standard(u, 6, LAM)
    monkeypatch.setattr(standard, "MAX_CHAINS", 27)
    assert to_standard(u, 6, LAM) == s
    monkeypatch.setattr(standard, "MAX_CHAINS", 26)
    with pytest.raises(ValueError, match="would build 27 chain terms, over the limit of 26"):
        to_standard(u, 6, LAM)
    monkeypatch.setattr(standard, "MAX_CHAINS", 21)
    assert from_standard(s, LAM) == u
    monkeypatch.setattr(standard, "MAX_CHAINS", 20)
    with pytest.raises(ValueError, match="would build 21 chain terms, over the limit of 20"):
        from_standard(s, LAM)


def test_explosive_image_fails_fast():
    # a 21-factor word has C(40, 21) chains below truncation 40
    word = tw(*([X1, X2] * 10 + [X1]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="131,282,408,440 chain terms"):
        to_standard(ShuffleElement.from_word(word), 40, LAM)
    entries = [AbarElement.zero()] * 40
    entries[20] = AbarElement.from_word(AbarWord(word.factors), LAM.value ** 20)
    with pytest.raises(ValueError, match="131,282,408,400 chain terms"):
        from_standard(StandardElement(entries), LAM)
    assert time.perf_counter() - start < 1.0
