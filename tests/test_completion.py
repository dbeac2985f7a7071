import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebaxter import (
    CompleteElement,
    HurwitzSeries,
    Monomial,
    NotScalarBase,
    ShuffleElement,
    TensorWord,
    TruncMismatch,
    Weight,
    WeightNotZero,
    baxter_identity_holds,
    baxter_operator,
    binomial,
    complete_mul,
    complete_operator,
    eval_expr,
    gen_var,
    hurwitz_iso,
    parse_expr,
    shuffle_product,
    unit_word,
)
from freebaxter import completion
from freebaxter.randgen import random_shuffle_element
from helpers import (
    componentwise_str,
    cut_to_degree,
    lambda_hurwitz_mul,
    pascal_binomial,
    stabilized_complete_mul,
)

LAM = Weight.default()
ZERO = Weight.of(0)
N = 6
X1 = Monomial.of(gen_var("x1"))
X2 = Monomial.of(gen_var("x2"))
ONE = Monomial.unit()


def test_from_element_discards_high_degrees():
    u = ShuffleElement.from_word(unit_word(2)) + ShuffleElement.from_word(unit_word(9))
    x = CompleteElement.from_element(u, N)
    assert x.component(1) == ShuffleElement.from_word(unit_word(2))
    assert x.component(8) == ShuffleElement.zero()
    assert x == CompleteElement.from_element(ShuffleElement.from_word(unit_word(2)), N)


def test_partial_sums_stabilize():
    """Products of degree-k cutoffs agree in degree k for every cutoff
    level at or above k."""
    rng = random.Random(12)
    for _ in range(50):
        u = random_shuffle_element(rng)
        v = random_shuffle_element(rng)
        x = CompleteElement.from_element(u, N)
        y = CompleteElement.from_element(v, N)
        for k in range(N):
            fixed = shuffle_product(x.partial_sum(k), y.partial_sum(k), LAM)
            fixed_k = fixed.homogeneous_component(k)
            for n in range(k, N):
                later = shuffle_product(x.partial_sum(n), y.partial_sum(n), LAM)
                assert later.homogeneous_component(k) == fixed_k


def test_complete_mul_agrees_with_truncated_product():
    rng = random.Random(23)
    for _ in range(30):
        u = random_shuffle_element(rng)
        v = random_shuffle_element(rng)
        full = shuffle_product(u, v, LAM)
        lhs = complete_mul(
            CompleteElement.from_element(u, N), CompleteElement.from_element(v, N), LAM
        )
        assert lhs == CompleteElement.from_element(full, N)


ORACLE_WEIGHTS = [LAM, Weight.of(2), Weight.of(LAM.value + 1), ZERO, Weight.of(-3 * LAM.value**2)]


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_complete_mul_matches_degreewise_cutoffs(weight):
    rng = random.Random(45)
    for trunc in range(1, 8):
        for _ in range(8):
            x = CompleteElement.from_element(random_shuffle_element(rng, max_len=5), trunc)
            y = CompleteElement.from_element(random_shuffle_element(rng, max_len=5), trunc)
            assert complete_mul(x, y, weight) == stabilized_complete_mul(x, y, weight), (x, y)


def _unit_class(entries):
    """The all-unit class sum_n entries[n] * [1|..|1] (n+1 factors)."""
    return CompleteElement(len(entries), ShuffleElement.from_terms(
        (unit_word(n + 1), c) for n, c in enumerate(entries)
    ))


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=str)
def test_complete_mul_of_unit_classes_is_lambda_hurwitz_product(weight):
    rng = random.Random(88)
    for trunc in range(1, 9):
        for _ in range(4):
            f = [rng.randint(-4, 4) for _ in range(trunc)]
            g = [rng.randint(-4, 4) for _ in range(trunc)]
            want = _unit_class(lambda_hurwitz_mul(f, g, weight))
            assert complete_mul(_unit_class(f), _unit_class(g), weight) == want, (f, g)
    full = [1] * 8
    assert complete_mul(_unit_class(full), _unit_class(full), weight) == _unit_class(
        lambda_hurwitz_mul(full, full, weight)
    )


def test_lambda_hurwitz_product_at_weight_zero_is_binomial_convolution():
    rng = random.Random(89)
    for _ in range(10):
        f = [rng.randint(-4, 4) for _ in range(6)]
        g = [rng.randint(-4, 4) for _ in range(6)]
        assert HurwitzSeries(lambda_hurwitz_mul(f, g, ZERO)) == HurwitzSeries(f) * HurwitzSeries(g)


def test_from_element_matches_degreewise_split():
    rng = random.Random(90)
    for _ in range(30):
        u = random_shuffle_element(rng, max_len=6)
        for trunc in range(1, 8):
            got = CompleteElement.from_element(u, trunc)
            for k in range(trunc + 2):
                want = u.homogeneous_component(k) if k < trunc else ShuffleElement.zero()
                assert got.component(k) == want
            for k in range(trunc + 2):
                assert got.partial_sum(k) == cut_to_degree(u, min(k, trunc - 1))
            assert str(got) == componentwise_str(got)


def test_str_matches_componentwise_printer():
    rng = random.Random(91)
    for _ in range(50):
        trunc = rng.randint(1, 7)
        x = CompleteElement.from_element(random_shuffle_element(rng, max_len=6), trunc)
        assert str(x) == componentwise_str(x)
        assert str(-x) == componentwise_str(-x)
    assert str(CompleteElement.zero(N)) == componentwise_str(CompleteElement.zero(N)) == "0"
    negative = CompleteElement.from_element(
        ShuffleElement.unit() - ShuffleElement.from_word(unit_word(2)), 3
    )
    assert str(negative) == componentwise_str(negative) == "[1] + -[1|1]"


_letters = st.sampled_from([ONE, X1, X2, X1 * X2])
_words = st.lists(_letters, min_size=1, max_size=6).map(lambda fs: TensorWord(tuple(fs)))
_elements = st.lists(st.tuples(_words, st.integers(-3, 3)), max_size=8).map(
    ShuffleElement.from_terms
)


@settings(max_examples=100, deadline=None)
@given(_elements, st.integers(1, 7))
def test_str_matches_componentwise_printer_hypothesis(u, trunc):
    x = CompleteElement.from_element(u, trunc)
    assert str(x) == componentwise_str(x)


@settings(max_examples=100, deadline=None)
@given(_elements, st.integers(1, 7))
def test_class_text_reads_back(u, trunc):
    x = CompleteElement.from_element(u, trunc)
    back = eval_expr(parse_expr(str(x), ("x1", "x2")), LAM)
    assert CompleteElement.from_element(back, trunc) == x


def test_from_element_huge_truncation_is_one_pass():
    u = ShuffleElement.from_word(TensorWord((ONE, X1)), 3)
    start = time.perf_counter()
    x = CompleteElement.from_element(u, 10**7)
    assert time.perf_counter() - start < 0.5
    assert x.component(1) == u


def test_product_budget_is_the_predicted_count(monkeypatch):
    """[x1|x1] times [1|x1|x1] at truncation 3: the pair has 2 * 3 table cells
    and mixable_counts(1, 2) = {0: 3, 1: 2}; only the 2 one-merge shuffles
    stay below degree 3, so the prediction is 8 units."""
    x = CompleteElement.from_element(ShuffleElement.from_word(TensorWord((X1, X1))), 3)
    y = CompleteElement.from_element(ShuffleElement.from_word(TensorWord((ONE, X1, X1))), 3)
    product = complete_mul(x, y, LAM)
    assert product == stabilized_complete_mul(x, y, LAM)
    monkeypatch.setattr(completion, "MAX_PRODUCT_UNITS", 8)
    assert complete_mul(x, y, LAM) == product
    monkeypatch.setattr(completion, "MAX_PRODUCT_UNITS", 7)
    with pytest.raises(ValueError, match="at least 8 work units, over the limit of 7"):
        complete_mul(x, y, LAM)


def test_product_budget_counts_degrees_in_ascending_order(monkeypatch):
    """x = [x1|x1] + [x1], degree 1 stored first, times [1|x1|x1] at
    truncation 3. In ascending degree the (0, 2) pair predicts 3 cells + 1
    shuffle and the (1, 2) pair 6 cells, so a limit of 5 is passed at 10;
    counting the degree-1 word first would report 6."""
    x = CompleteElement.from_element(ShuffleElement.from_terms(
        [(TensorWord((X1, X1)), 1), (TensorWord((X1,)), 1)]
    ), 3)
    y = CompleteElement.from_element(ShuffleElement.from_word(TensorWord((ONE, X1, X1))), 3)
    monkeypatch.setattr(completion, "MAX_PRODUCT_UNITS", 5)
    with pytest.raises(ValueError, match="at least 10 work units, over the limit of 5"):
        complete_mul(x, y, LAM)


def test_series_product_pair_limit(monkeypatch):
    """(1, 0, 1) times (1, 1, 1) at truncation 3: the entry at slot 0 pairs
    with all three, the one at slot 2 with slot 0 only, so 4 entry pairs of
    one term each.
    The series limit is its own, not that of complete_mul."""
    x, y = HurwitzSeries([1, 0, 1]), HurwitzSeries([1, 1, 1])
    assert x * y == HurwitzSeries([1, 1, 2])
    monkeypatch.setattr(completion, "MAX_PRODUCT_UNITS", 0)
    monkeypatch.setattr(completion, "MAX_SERIES_PAIRS", 4)
    assert x * y == HurwitzSeries([1, 1, 2])
    monkeypatch.setattr(completion, "MAX_SERIES_PAIRS", 3)
    with pytest.raises(ValueError, match="truncation 3 would take 4 term pairs, over the limit of 3"):
        x * y


def _full_class(trunc, letter):
    """Every word over {1, letter} of every degree below trunc, coefficient 1."""
    words = [()]
    terms = []
    for _ in range(trunc):
        words = [word + (f,) for word in words for f in (ONE, letter)]
        terms += [(TensorWord(word), 1) for word in words]
    return CompleteElement.from_element(ShuffleElement.from_terms(terms), trunc)


def test_product_budget_refuses_fast_and_admits_truncation_6():
    x2 = Monomial.of(gen_var("x2"))
    x, y = _full_class(7, X1), _full_class(7, x2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the product at truncation 7 would take at least"):
        complete_mul(x, y, LAM)
    assert time.perf_counter() - start < 1.0
    # 561,960 predicted units: under the limit, so the 5-7 s product would run
    completion._check_units(_full_class(6, X1), _full_class(6, x2), 5)


def test_complete_ring_axioms():
    rng = random.Random(34)
    one = CompleteElement.one(N)
    for _ in range(25):
        x = CompleteElement.from_element(random_shuffle_element(rng), N)
        y = CompleteElement.from_element(random_shuffle_element(rng), N)
        z = CompleteElement.from_element(random_shuffle_element(rng), N)
        assert complete_mul(x, y, LAM) == complete_mul(y, x, LAM)
        assert complete_mul(complete_mul(x, y, LAM), z, LAM) == complete_mul(
            x, complete_mul(y, z, LAM), LAM
        )
        assert complete_mul(x, one, LAM) == x
        assert complete_mul(x + y, z, LAM) == complete_mul(x, z, LAM) + complete_mul(
            y, z, LAM
        )


def test_complete_operator_commutes_with_projection():
    rng = random.Random(45)
    for _ in range(40):
        u = random_shuffle_element(rng)
        assert complete_operator(CompleteElement.from_element(u, N)) == (
            CompleteElement.from_element(baxter_operator(u), N)
        )


def test_complete_operator_drops_top_component():
    top = CompleteElement.from_element(ShuffleElement.from_word(unit_word(N)), N)
    assert complete_operator(top) == CompleteElement.zero(N)


def test_complete_operator_baxter_identity():
    # the completion has no BaxterTarget; the identity needs only these four
    target = SimpleNamespace(
        weight=LAM,
        add=lambda a, b: a + b,
        mul=lambda a, b: complete_mul(a, b, LAM),
        scale=lambda c, a: CompleteElement(a.trunc, a.partial_sum(a.trunc - 1).scale(c)),
        apply_operator=complete_operator,
    )
    rng = random.Random(56)
    for _ in range(25):
        x = CompleteElement.from_element(random_shuffle_element(rng), N)
        y = CompleteElement.from_element(random_shuffle_element(rng), N)
        assert baxter_identity_holds(target, x, y)


def test_trunc_mismatch():
    with pytest.raises(TruncMismatch):
        complete_mul(CompleteElement.one(3), CompleteElement.one(4), LAM)
    with pytest.raises(TruncMismatch):
        HurwitzSeries.zero(3) * HurwitzSeries.zero(4)


def test_hurwitz_basis_products():
    for m in range(8):
        for n in range(8):
            if m + n >= 8:
                continue
            product = HurwitzSeries.basis(m, 8) * HurwitzSeries.basis(n, 8)
            expected = HurwitzSeries(
                [binomial(m + n, n) * e for e in HurwitzSeries.basis(m + n, 8).entries]
            )
            assert product == expected
            assert binomial(m + n, n) == pascal_binomial(m + n, n)


def test_hurwitz_identity_and_powers_of_two():
    one = HurwitzSeries.basis(0, 6)
    rng = random.Random(67)
    for _ in range(20):
        a = HurwitzSeries([rng.randint(-5, 5) for _ in range(6)])
        assert a * one == a
    # (1,1,1,...)^2 has entries sum_k C(n,k) = 2^n by the binomial theorem
    all_ones = HurwitzSeries([1] * 8)
    square = all_ones * all_ones
    assert square == HurwitzSeries([2**n for n in range(8)])
    assert [pascal_binomial(n, 0) for n in range(3)] == [1, 1, 1]


def test_hurwitz_parse_and_str():
    a = HurwitzSeries.parse("(0, 1, lam + 2)")
    assert a.entries[2] == LAM.value + 2
    assert str(a) == "(0, 1, lam + 2)"
    assert HurwitzSeries.parse("1, 2, 3") == HurwitzSeries([1, 2, 3])


def test_hurwitz_iso_examples():
    e1 = CompleteElement.from_element(ShuffleElement.from_word(unit_word(2)), 4)
    e2 = CompleteElement.from_element(ShuffleElement.from_word(unit_word(3)), 4)
    assert hurwitz_iso(e1, ZERO) == HurwitzSeries.basis(1, 4)
    product = complete_mul(e1, e2, ZERO)
    assert hurwitz_iso(product, ZERO) == (
        HurwitzSeries.basis(1, 4) * HurwitzSeries.basis(2, 4)
    )
    assert hurwitz_iso(product, ZERO) == HurwitzSeries((0, 0, 0, 3))


def _random_scalar_class(rng, trunc):
    terms = [(unit_word(k + 1), rng.randint(-4, 4)) for k in range(trunc)]
    return CompleteElement(trunc, ShuffleElement.from_terms(terms))


def test_hurwitz_iso_is_ring_map():
    rng = random.Random(78)
    for _ in range(40):
        x = _random_scalar_class(rng, 8)
        y = _random_scalar_class(rng, 8)
        assert hurwitz_iso(complete_mul(x, y, ZERO), ZERO) == (
            hurwitz_iso(x, ZERO) * hurwitz_iso(y, ZERO)
        )
        assert hurwitz_iso(x + y, ZERO) == hurwitz_iso(x, ZERO) + hurwitz_iso(y, ZERO)


def test_hurwitz_iso_rejections():
    scalar = CompleteElement.one(3)
    with pytest.raises(WeightNotZero):
        hurwitz_iso(scalar, LAM)
    offbase = CompleteElement.from_element(
        ShuffleElement.from_word(TensorWord((ONE, X1))), 3
    )
    with pytest.raises(NotScalarBase):
        hurwitz_iso(offbase, ZERO)
