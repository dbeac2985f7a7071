from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebaxter import (
    DivisorZero,
    ExprSyntaxError,
    Monomial,
    NotDivisible,
    Polynomial,
    Weight,
    binomial,
    coeff_var,
    gen_var,
    parse_polynomial,
    poly_exact_div,
)
from freebaxter.coeffring import mono_key
from helpers import _mono_cmp, pascal_binomial, poly_fingerprint, schoolbook_mul

LAM = Polynomial.from_variable(coeff_var("lam"))
X1 = Polynomial.from_variable(gen_var("x1"))
X2 = Polynomial.from_variable(gen_var("x2"))


def test_additive_inverse():
    assert 2 * X1 + (-2) * X1 == Polynomial.zero()


def test_difference_of_squares():
    assert (LAM + 1) * (LAM - 1) == LAM * LAM - 1


def test_schoolbook_expansion_oracle():
    product = (X1 + X2) * X1
    assert poly_fingerprint(product) == schoolbook_mul(X1 + X2, X1)
    assert product == X1**2 + X1 * X2


def test_exact_div_monomial_quotient():
    assert poly_exact_div(LAM**2 * X1, LAM) == LAM * X1


def test_exact_div_integer_content():
    assert poly_exact_div(2 * X1 + 2 * X2, Polynomial.from_int(2)) == X1 + X2


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        poly_exact_div(X1 + 1, LAM)


def test_exact_div_zero_divisor():
    with pytest.raises(DivisorZero):
        poly_exact_div(X1, Polynomial.zero())


def test_binomial_values():
    assert binomial(3, 1) == 3
    assert binomial(7, 0) == 1
    assert binomial(6, 3) == 20 == pascal_binomial(6, 3)
    assert binomial(4, 9) == 0
    for n in range(10):
        for k in range(n + 2):
            assert binomial(n, k) == pascal_binomial(n, k)


def test_weight_default_and_nzd():
    w = Weight.default()
    assert str(w) == "lam"


_vars = st.sampled_from(
    [coeff_var("lam"), coeff_var("c1"), gen_var("x1"), gen_var("x2")]
)
_monomials = st.dictionaries(_vars, st.integers(1, 3), max_size=2).map(Monomial.make)
_polys = st.dictionaries(_monomials, st.integers(-5, 5), max_size=4).map(Polynomial)


@settings(max_examples=200)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * Polynomial.one() == p
    assert p + Polynomial.zero() == p


@settings(max_examples=100)
@given(_polys, _polys)
def test_exact_div_roundtrip(p, d):
    if d.is_zero:
        return
    assert poly_exact_div(p * d, d) == p


@settings(max_examples=200)
@given(_polys)
def test_parse_print_roundtrip(p):
    assert parse_polynomial(str(p), gens=("x1", "x2")) == p


def test_print_deterministic_order():
    p = 2 * X1**2 * X2 - LAM * X1 + 3
    assert str(p) == "2*x1^2*x2 - lam*x1 + 3"
    assert parse_polynomial("2*x1^2*x2 - lam*x1 + 3", gens=("x1", "x2")) == p


_order_monomials = st.dictionaries(_vars, st.integers(1, 3)).map(Monomial.make)


@settings(max_examples=200)
@given(st.lists(_order_monomials, max_size=8))
def test_mono_key_matches_comparator(monos):
    assert sorted(monos, key=mono_key) == sorted(monos, key=cmp_to_key(_mono_cmp), reverse=True)


@settings(max_examples=200)
@given(st.dictionaries(_order_monomials, st.integers(1, 5), min_size=1, max_size=6).map(Polynomial))
def test_leading_term_is_the_comparator_max(p):
    mono = max((m for m, _ in p.items()), key=cmp_to_key(_mono_cmp))
    assert p.leading_term() == (mono, dict(p.items())[mono])


def test_print_order_pins():
    assert str(parse_polynomial("lam*c1 + c1^2 + lam^2")) == "c1^2 + c1*lam + lam^2"
    p = parse_polynomial("lam^3 + c1*x1 + x1^2*lam + 2", ["x1"])
    assert str(p) == "lam^3 + lam*x1^2 + c1*x1 + 2"


def test_parse_constant_and_zero():
    assert parse_polynomial("0") == Polynomial.zero()
    assert str(Polynomial.zero()) == "0"
    assert parse_polynomial("-5") == Polynomial.from_int(-5)


@pytest.mark.parametrize("text, column", [("lam  $", 6), ("$", 1), ("x1 +\t#", 6)])
def test_parse_error_column_points_at_the_character(text, column):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_polynomial(text)
    assert exc.value.column == column
