import json
import operator
import random
from functools import cmp_to_key, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freebaxter import (
    AbarElement,
    AbarWord,
    KindMismatch,
    Monomial,
    NamespaceViolation,
    Polynomial,
    ShuffleElement,
    TensorWord,
    abar_normalize,
    coeff_var,
    gen_var,
)
from freebaxter.randgen import random_abar_element, random_shuffle_element
from freebaxter.words import word_key
from helpers import _word_cmp

X1 = Monomial.of(gen_var("x1"))
X2 = Monomial.of(gen_var("x2"))
X3 = Monomial.of(gen_var("x3"))
ONE = Monomial.unit()
LAM = Polynomial.from_variable(coeff_var("lam"))


def w(*factors):
    return TensorWord(tuple(factors))


def test_element_add_cancellation():
    u = ShuffleElement.from_word(w(X1))
    assert u + (-1) * u == ShuffleElement.zero()


def test_element_add_distinct_words():
    total = ShuffleElement.from_word(w(ONE, X1)) + ShuffleElement.from_word(w(X1, ONE))
    assert len(total.terms()) == 2


def test_element_add_merges():
    u = 2 * ShuffleElement.from_word(w(X1)) + 3 * ShuffleElement.from_word(w(X1))
    assert u == 5 * ShuffleElement.from_word(w(X1))


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        ShuffleElement.from_word(w(X1)) + AbarElement.identity()


def test_scalar_mul():
    u = ShuffleElement.from_word(w(X1, X2))
    assert 0 * u == ShuffleElement.zero()
    assert LAM * ShuffleElement.from_word(w(ONE, X1)) == ShuffleElement(
        {w(ONE, X1): LAM}
    )
    assert (LAM + 1) * (2 * ShuffleElement.from_word(w(X1))) == ShuffleElement(
        {w(X1): 2 * LAM + 2}
    )


def test_scalar_namespace_violation():
    with pytest.raises(NamespaceViolation):
        ShuffleElement.from_word(w(X1)).scale(Polynomial.from_variable(gen_var("x1")))


def test_abar_normalize():
    assert abar_normalize((X1, ONE, ONE)) == AbarWord((X1,))
    assert abar_normalize((ONE, X1)) == AbarWord((ONE, X1))
    assert abar_normalize((ONE, ONE)) == AbarWord(())


def test_abar_normalize_idempotent_and_padding_invariance():
    rng = random.Random(7)
    for _ in range(50):
        u = random_abar_element(rng)
        v = random_abar_element(rng)
        # multiplying by unit-padded variants of the same words is the
        # identity operation regardless of padding length
        for pad in range(3):
            padded = AbarElement(
                {abar_normalize(word.factors + (ONE,) * pad): c for word, c in v.terms()}
            )
            assert padded == v
        assert u * v == v * u


def test_abar_mul_examples():
    u = AbarElement.from_word(AbarWord((ONE, X1)))
    v = AbarElement.from_word(AbarWord((X2,)))
    assert u * v == AbarElement.from_word(AbarWord((X2, X1)))
    assert u * AbarElement.identity() == u
    sq = AbarElement.from_word(AbarWord((X1,)))
    assert sq * sq == AbarElement.from_word(AbarWord((Monomial.of(gen_var("x1"), 2),)))


def test_abar_ring_axioms_seeded():
    rng = random.Random(2024)
    for _ in range(200):
        u = random_abar_element(rng)
        v = random_abar_element(rng)
        t = random_abar_element(rng)
        assert u * v == v * u
        assert (u * v) * t == u * (v * t)
        assert u * AbarElement.identity() == u


def test_module_axioms_seeded():
    rng = random.Random(99)
    for _ in range(200):
        u = random_shuffle_element(rng)
        v = random_shuffle_element(rng)
        c, d = rng.randint(-4, 4), rng.randint(-4, 4)
        assert (u + v).scale(c) == u.scale(c) + v.scale(c)
        assert u.scale(c + d) == u.scale(c) + u.scale(d)
        assert u.scale(c * d) == u.scale(c).scale(d)
        assert u + v == v + u


def test_word_text_forms():
    elem = 2 * ShuffleElement.from_word(w(ONE, X1, X1)) + LAM * ShuffleElement.from_word(
        w(ONE, Monomial.of(gen_var("x1"), 2))
    )
    assert str(elem) == "2*[1|x1|x1] + lam*[1|x1^2]"
    assert str(AbarWord((X2, ONE, X1))) == "(x2|1|x1)"
    assert str(AbarWord(())) == "1"


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        u = random_shuffle_element(rng)
        obj = json.loads(json.dumps(u.to_json_obj()))
        assert ShuffleElement.from_json_obj(obj, gens=("x1", "x2")) == u
        a = random_abar_element(rng)
        obj = json.loads(json.dumps(a.to_json_obj()))
        assert AbarElement.from_json_obj(obj, gens=("x1", "x2")) == a


_NAMES = ("x1", "x2", "lam", "c1")


@pytest.mark.parametrize("cls", [ShuffleElement, AbarElement])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_roundtrip_keeps_names_apart(cls, data):
    # any name may be declared a generator; the others are coefficient symbols
    gens = sorted(data.draw(st.sets(st.sampled_from(_NAMES), min_size=1)))
    coeff_vars = [coeff_var(n) for n in _NAMES if n not in gens]
    factors = st.dictionaries(st.sampled_from([gen_var(g) for g in gens]), st.integers(1, 2),
                              max_size=2).map(Monomial.make)
    words = st.lists(factors, min_size=1, max_size=3).map(lambda fs: cls._word(tuple(fs)))
    monos = (st.dictionaries(st.sampled_from(coeff_vars), st.integers(1, 2), max_size=2)
             .map(Monomial.make) if coeff_vars else st.just(ONE))
    coeffs = st.dictionaries(monos, st.integers(-3, 3), max_size=2).map(Polynomial)
    u = cls.from_terms(data.draw(st.lists(st.tuples(words, coeffs), max_size=4)))
    obj = json.loads(json.dumps(u.to_json_obj()))
    assert cls.from_json_obj(obj, gens=gens) == u


@pytest.mark.parametrize("cls", [ShuffleElement, AbarElement])
def test_json_coefficient_naming_a_generator_rejected(cls):
    obj = {"terms": [{"coeff": "x1*lam", "word": ["1", "x2"]}]}
    with pytest.raises(ValueError, match="coefficient symbol 'x1'"):
        cls.from_json_obj(obj, gens=("x1", "x2"))
    # undeclared, the same name is a coefficient symbol
    elem = cls.from_json_obj(obj, gens=("x2",))
    assert [str(c) for _, c in elem.terms()] == ["lam*x1"]


@pytest.mark.parametrize("cls", [ShuffleElement, AbarElement])
@pytest.mark.parametrize("obj", [{}, {"terms": [{"word": ["1"]}]}, {"terms": [{"coeff": "1"}]}])
def test_json_missing_field_rejected(cls, obj):
    with pytest.raises(ValueError, match="JSON object has no"):
        cls.from_json_obj(obj, gens=("x1",))


def test_trailing_unit_word_rejected():
    with pytest.raises(ValueError):
        AbarWord((X1, ONE))


def test_empty_tensor_word_rejected():
    with pytest.raises(ValueError):
        TensorWord(())


WORD_POOLS = [
    (ShuffleElement, [w(ONE), w(X1), w(X1, ONE), w(ONE, X2, X1)]),
    (AbarElement, [AbarWord(()), AbarWord((X1,)), AbarWord((ONE, X2)), AbarWord((X1, X2))]),
]

# (pool index, integer part, lam part): small ranges so words repeat and sums cancel
_picks = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-2, 2), st.integers(-1, 1)), max_size=8
)


@pytest.mark.parametrize("cls, pool", WORD_POOLS)
@settings(max_examples=100, deadline=None)
@given(picks=_picks)
@example(picks=[(0, 1, 1), (1, 2, 0), (0, -1, -1), (1, 1, -1)])  # word 0 cancels
def test_from_terms_is_the_sum_of_single_terms(cls, pool, picks):
    pairs = [(pool[i], a + b * LAM) for i, a, b in picks]
    total = cls.from_terms(pairs)
    assert total == reduce(operator.add, (cls.from_word(w, c) for w, c in pairs), cls.zero())
    assert all(not c.is_zero for _, c in total.terms())


@pytest.mark.parametrize("cls", [ShuffleElement, AbarElement])
def test_json_expanded_words_merge(cls):
    # the factor "x1 + lam*x1" expands into x1 and lam*x1: one word, two terms
    obj = {"terms": [{"coeff": "3", "word": ["x1 + lam*x1"]}]}
    word = cls._word((X1,))
    elem = cls.from_json_obj(obj, gens=("x1", "x2"))
    assert elem == cls.from_word(word, 3 + 3 * LAM)
    assert str(elem) == f"(3*lam + 3)*{word}"


@pytest.mark.parametrize("cls", [ShuffleElement, AbarElement])
def test_json_entries_cancel(cls):
    obj = {"terms": [
        {"coeff": "lam", "word": ["1", "x2"]},
        {"coeff": "-lam", "word": ["1", "x2"]},
    ]}
    assert cls.from_json_obj(obj, gens=("x1", "x2")).is_zero
    obj = {"terms": [
        {"coeff": "1", "word": ["x1 + lam*x1"]},
        {"coeff": "-1 - lam", "word": ["x1"]},
    ]}
    assert cls.from_json_obj(obj, gens=("x1", "x2")).is_zero


_factors = st.dictionaries(
    st.sampled_from([gen_var("x1"), gen_var("x2")]), st.integers(1, 3)
).map(Monomial.make)
_tensor_words = st.lists(_factors, min_size=1, max_size=4).map(lambda fs: TensorWord(tuple(fs)))
_abar_words = st.lists(_factors, max_size=4).map(abar_normalize)


@pytest.mark.parametrize("words", [_tensor_words, _abar_words], ids=["tensor", "abar"])
@settings(max_examples=200)
@given(data=st.data())
def test_word_key_matches_comparator(words, data):
    ws = data.draw(st.lists(words, max_size=8))
    assert sorted(ws, key=word_key) == sorted(ws, key=cmp_to_key(_word_cmp), reverse=True)
