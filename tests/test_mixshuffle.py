import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freebaxter
from freebaxter import (
    Monomial,
    Polynomial,
    ShuffleElement,
    ShuffleSelfTarget,
    TensorWord,
    Weight,
    WeightMismatch,
    baxter_operator,
    binomial,
    coeff_var,
    extend_hom,
    fil_degree,
    gen_var,
    is_nonunital,
    shuffle_product,
    unit_power_product,
    unit_word,
    word_product,
)
from freebaxter.randgen import random_shuffle_element
from helpers import (
    GENS,
    ScalarBaxterTarget,
    admissible_pairs,
    baxter_identity_holds,
    brute_shuffles,
    cut_to_degree,
    enumerate_mixable,
    enumerate_shuffles,
    mixable_histogram,
    mixable_word_product,
)

LAM = Weight.default()
X1 = Monomial.of(gen_var("x1"))
X2 = Monomial.of(gen_var("x2"))
X3 = Monomial.of(gen_var("x3"))
ONE = Monomial.unit()


def w(*factors):
    return TensorWord(tuple(factors))


def test_enumerate_shuffles_small():
    assert [s.images for s in enumerate_shuffles(1, 1)] == [(1, 2), (2, 1)]
    assert len(enumerate_shuffles(0, 5)) == 1
    assert enumerate_shuffles(0, 3)[0].images == (1, 2, 3)


def test_enumerate_shuffles_against_symmetric_group_filter():
    got = {s.images for s in enumerate_shuffles(2, 2)}
    assert got == brute_shuffles(2, 2)
    assert len(got) == 6


def test_shuffle_counts():
    for m in range(7):
        for n in range(7):
            assert len(enumerate_shuffles(m, n)) == binomial(m + n, n)


def test_admissible_pairs():
    ident, swap = enumerate_shuffles(1, 1)
    assert admissible_pairs(ident) == (1,)
    assert admissible_pairs(swap) == ()
    (only,) = enumerate_shuffles(0, 2)
    assert admissible_pairs(only) == ()


def test_enumerate_mixable_small():
    assert len(enumerate_mixable(1, 1)) == 3
    assert len(enumerate_mixable(0, 4)) == 1


def test_mixable_histogram_matches_binomials():
    for m in range(6):
        for n in range(6):
            hist = mixable_histogram(m, n)
            for k in range(max(m, n) + 2):
                assert hist.get(k, 0) == binomial(m + n - k, n) * binomial(n, k)


def test_word_product_left_action():
    x0, y0, y1 = X1, X2, X3
    result = word_product(w(x0), w(y0, y1), LAM)
    assert result == ShuffleElement.from_word(w(x0 * y0, y1))


def test_word_product_degree_one():
    result = word_product(w(X1, X2), w(X3, X1), LAM)
    expected = (
        ShuffleElement.from_word(w(X1 * X3, X2, X1))
        + ShuffleElement.from_word(w(X1 * X3, X1, X2))
        + ShuffleElement({w(X1 * X3, X2 * X1): LAM.value})
    )
    assert result == expected


def test_word_product_unit_case():
    result = word_product(w(ONE, ONE), w(ONE, ONE), LAM)
    expected = 2 * ShuffleElement.from_word(w(ONE, ONE, ONE)) + ShuffleElement(
        {w(ONE, ONE): LAM.value}
    )
    assert result == expected


_LAM_POLY = LAM.value
ORACLE_WEIGHTS = [
    LAM,
    Weight.of(0),
    Weight.of(2),
    Weight.of(_LAM_POLY + 1),
    Weight.of(-3 * _LAM_POLY * _LAM_POLY),
]


def _repeated_word(rng, length):
    pool = (ONE, X1, X2, X1 * X1)
    return w(*(rng.choice(pool) for _ in range(length)))


def _distinct_words(m, n):
    gens = [Monomial.of(gen_var(f"x{i}")) for i in range(1, m + n + 3)]
    return w(*gens[: m + 1]), w(*gens[m + 1 : m + n + 2])


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_word_product_matches_mixable_enumeration(weight):
    rng = random.Random(2000)
    for m in range(6):
        for n in range(6):
            repeated = (_repeated_word(rng, m + 1), _repeated_word(rng, n + 1))
            for x, y in (_distinct_words(m, n), repeated):
                assert word_product(x, y, weight) == mixable_word_product(x, y, weight), (x, y)


_letters = st.sampled_from([ONE, X1, X2, X3, X1 * X2])
_short_words = st.lists(_letters, min_size=1, max_size=4).map(lambda fs: w(*fs))


@settings(max_examples=100, deadline=None)
@given(_short_words, _short_words, st.sampled_from(ORACLE_WEIGHTS))
def test_word_product_property_against_enumeration(x, y, weight):
    assert word_product(x, y, weight) == mixable_word_product(x, y, weight)


def _assert_bounded_matches_cut(x, y, weight):
    """word_product with every bound 0..m+n equals the unbounded product cut
    to that degree, as text and as an element."""
    full = word_product(x, y, weight)
    for top in range(x.degree + y.degree + 1):
        bounded = word_product(x, y, weight, top)
        want = cut_to_degree(full, top)
        assert bounded == want, (x, y, top)
        assert str(bounded) == str(want), (x, y, top)
    assert word_product(x, y, weight, x.degree + y.degree) == full


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_bounded_word_product_matches_cut_product(weight):
    rng = random.Random(2014)
    for m in range(5):
        for n in range(5):
            repeated = (_repeated_word(rng, m + 1), _repeated_word(rng, n + 1))
            # equal factors on both sides: merged words collide with unmerged ones
            same = _repeated_word(rng, m + 1)
            for x, y in (_distinct_words(m, n), repeated, (same, same)):
                _assert_bounded_matches_cut(x, y, weight)


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_bounded_unit_product_matches_closed_form(weight):
    for m in range(7):
        for n in range(7):
            closed = unit_power_product(m, n, weight)
            for top in range(m + n + 1):
                bounded = word_product(unit_word(m + 1), unit_word(n + 1), weight, top)
                assert bounded == cut_to_degree(closed, top), (m, n, top)
                assert str(bounded) == str(cut_to_degree(closed, top))


@settings(max_examples=100, deadline=None)
@given(_short_words, _short_words, st.sampled_from(ORACLE_WEIGHTS))
def test_bounded_word_product_property(x, y, weight):
    _assert_bounded_matches_cut(x, y, weight)


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_bounded_shuffle_product_matches_cut_product(weight):
    rng = random.Random(77)
    for _ in range(20):
        u = random_shuffle_element(rng, max_len=5)
        v = random_shuffle_element(rng, max_len=5)
        full = shuffle_product(u, v, weight)
        for top in range(9):
            bounded = shuffle_product(u, v, weight, top)
            assert bounded == cut_to_degree(full, top), (u, v, top)
            assert str(bounded) == str(cut_to_degree(full, top))


def test_bounded_word_product_too_long_factor_is_zero():
    assert word_product(unit_word(4), unit_word(1), LAM, 2).is_zero
    assert word_product(w(X1), w(ONE, X2, X2, X2), LAM, 2).is_zero
    assert word_product(w(X1), w(ONE, X2, X2, X2), LAM, 3) == ShuffleElement.from_word(
        w(X1, X2, X2, X2)
    )


def test_shuffle_product_cancellation_leaves_no_zero_terms():
    a = ShuffleElement.from_word(w(ONE, X1, X2))
    b = ShuffleElement.from_word(w(ONE, X2))
    product = shuffle_product(a + b, b - a, LAM)
    assert product == shuffle_product(b, b, LAM) - shuffle_product(a, a, LAM)
    assert all(not coeff.is_zero for _, coeff in product.terms())


def test_word_product_deep_word_has_no_recursion_limit():
    product = word_product(unit_word(1500), unit_word(3), LAM)
    assert product == unit_power_product(1499, 2, LAM)


def test_shuffle_product_identity_and_degree_zero():
    rng = random.Random(11)
    for _ in range(20):
        u = random_shuffle_element(rng)
        assert shuffle_product(u, ShuffleElement.unit(), LAM) == u
    assert shuffle_product(
        ShuffleElement.from_word(w(X1)), ShuffleElement.from_word(w(X2)), LAM
    ) == ShuffleElement.from_word(w(X1 * X2))


def test_shuffle_product_square_example():
    u = ShuffleElement.from_word(w(ONE, X1))
    expected = 2 * ShuffleElement.from_word(w(ONE, X1, X1)) + ShuffleElement(
        {w(ONE, Monomial.of(gen_var("x1"), 2)): LAM.value}
    )
    assert shuffle_product(u, u, LAM) == expected


def test_baxter_operator():
    assert baxter_operator(ShuffleElement.from_word(w(X1))) == ShuffleElement.from_word(
        w(ONE, X1)
    )
    assert baxter_operator(ShuffleElement.zero()) == ShuffleElement.zero()
    u = 2 * ShuffleElement.from_word(w(X1)) + ShuffleElement.from_word(w(X2, X3))
    assert baxter_operator(u) == 2 * ShuffleElement.from_word(
        w(ONE, X1)
    ) + ShuffleElement.from_word(w(ONE, X2, X3))


def test_baxter_identity_seeded():
    rng = random.Random(42)
    for _ in range(30):
        u = random_shuffle_element(rng, GENS)
        v = random_shuffle_element(rng, GENS)
        assert baxter_identity_holds(u, v, LAM)


def test_product_commutative_associative_seeded():
    rng = random.Random(17)
    for _ in range(25):
        u = random_shuffle_element(rng, GENS, max_len=3)
        v = random_shuffle_element(rng, GENS, max_len=3)
        t = random_shuffle_element(rng, GENS, max_len=3)
        assert shuffle_product(u, v, LAM) == shuffle_product(v, u, LAM)
        assert shuffle_product(shuffle_product(u, v, LAM), t, LAM) == shuffle_product(
            u, shuffle_product(v, t, LAM), LAM
        )


def test_unit_power_product_examples():
    assert unit_power_product(1, 1, LAM) == word_product(unit_word(2), unit_word(2), LAM)
    assert unit_power_product(0, 4, LAM) == ShuffleElement.from_word(unit_word(5))
    expected_21 = 3 * ShuffleElement.from_word(unit_word(4)) + ShuffleElement(
        {unit_word(3): 2 * LAM.value}
    )
    assert unit_power_product(2, 1, LAM) == expected_21


def test_unit_power_product_brute_force_all():
    for m in range(7):
        for n in range(7):
            closed = unit_power_product(m, n, LAM)
            brute = word_product(unit_word(m + 1), unit_word(n + 1), LAM)
            assert closed == brute


def test_fil_degree():
    assert fil_degree(ShuffleElement.from_word(w(X1))) == 0
    u = ShuffleElement.from_word(w(ONE, X1)) + ShuffleElement.from_word(w(X1, X2, X3))
    assert fil_degree(u) == 1
    assert fil_degree(ShuffleElement.zero()) == float("inf")
    rng = random.Random(3)
    for _ in range(30):
        elem = random_shuffle_element(rng)
        if elem.is_zero:
            continue
        assert fil_degree(baxter_operator(elem)) == fil_degree(elem) + 1


def test_product_degree_bounds():
    rng = random.Random(8)
    for _ in range(40):
        x = w(*(Monomial.of(gen_var(rng.choice(GENS))) for _ in range(rng.randint(1, 4))))
        y = w(*(Monomial.of(gen_var(rng.choice(GENS))) for _ in range(rng.randint(1, 4))))
        m, n = x.degree, y.degree
        for word, _ in word_product(x, y, LAM).terms():
            assert max(m, n) <= word.degree <= m + n


def test_is_nonunital():
    assert is_nonunital(ShuffleElement.from_word(w(ONE, X1)))
    assert not is_nonunital(ShuffleElement.from_word(w(X1, ONE)))
    assert is_nonunital(ShuffleElement.zero())


def _random_nonunital(rng):
    elem = ShuffleElement.zero()
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 3)
        factors = [Monomial.of(gen_var(rng.choice(GENS))) for _ in range(length)]
        # last factor stays in the augmentation ideal
        elem = elem + ShuffleElement.from_word(w(*factors), rng.randint(-3, 3))
    return elem


def test_nonunital_closure_seeded():
    rng = random.Random(55)
    for _ in range(50):
        u = _random_nonunital(rng)
        v = _random_nonunital(rng)
        assert is_nonunital(shuffle_product(u, v, LAM))
        assert is_nonunital(baxter_operator(u))


def test_extend_hom_identity_on_self():
    target = ShuffleSelfTarget(LAM)
    rng = random.Random(21)
    for _ in range(20):
        u = random_shuffle_element(rng)
        assert extend_hom(target, u, LAM) == u


def test_extend_hom_scalar_target_unit_powers():
    target = ScalarBaxterTarget(LAM)
    for n in range(7):
        u = ShuffleElement.from_word(unit_word(n + 1))
        assert extend_hom(target, u, LAM) == (-LAM.value) ** n


def test_extend_hom_weight_mismatch():
    target = ScalarBaxterTarget(Weight.of(2))
    with pytest.raises(WeightMismatch):
        extend_hom(target, ShuffleElement.unit(), LAM)


def test_extend_hom_is_baxter_homomorphism():
    target = ScalarBaxterTarget(LAM)
    rng = random.Random(31)
    for _ in range(50):
        u = random_shuffle_element(rng, max_len=3)
        v = random_shuffle_element(rng, max_len=3)
        fu = extend_hom(target, u, LAM)
        fv = extend_hom(target, v, LAM)
        assert extend_hom(target, shuffle_product(u, v, LAM), LAM) == fu * fv
        assert extend_hom(target, baxter_operator(u), LAM) == target.apply_operator(fu)


def _random_gen_poly(rng):
    poly = Polynomial.zero()
    for _ in range(rng.randint(1, 3)):
        mono = ONE
        for _ in range(rng.randint(0, 2)):
            mono = mono * Monomial.of(gen_var(rng.choice(GENS)))
        poly = poly + Polynomial.from_monomial(mono, rng.randint(-3, 3))
    return poly


def test_scalar_target_self_check():
    target = ScalarBaxterTarget(LAM)
    rng = random.Random(9)
    for _ in range(20):
        x, y = _random_gen_poly(rng), _random_gen_poly(rng)
        assert freebaxter.baxter_identity_holds(target, x, y), (x, y)
