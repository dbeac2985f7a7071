import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebaxter import (
    ExprSyntaxError,
    HurwitzSeries,
    Monomial,
    Polynomial,
    ShuffleElement,
    TensorWord,
    Weight,
    baxter_operator,
    coeff_var,
    eval_expr,
    gen_var,
    parse_expr,
    parse_polynomial,
    print_expr,
    shuffle_product,
)
from freebaxter.exprparse import (
    Add,
    CoeffVar,
    GenVar,
    IntLit,
    Mul,
    Neg,
    PApply,
    Pow,
    Sub,
    WordLit,
)
from freebaxter.randgen import random_shuffle_element
from helpers import GENS, random_ast

LAM = Weight.default()
X1 = Monomial.of(gen_var("x1"))
X2 = Monomial.of(gen_var("x2"))
ONE = Monomial.unit()


def ev(text, weight=LAM):
    return eval_expr(parse_expr(text, GENS), weight)


def test_parse_atoms():
    assert parse_expr("3", GENS) == IntLit(3)
    assert parse_expr("x1", GENS) == GenVar("x1")
    assert parse_expr("[1|x1]", GENS) == WordLit(
        (Polynomial.one(), Polynomial.from_variable(gen_var("x1")))
    )


def test_parse_precedence_shapes():
    node = parse_expr("x1 + x2*x1", GENS)
    assert isinstance(node, Add) and isinstance(node.right, Mul)
    node = parse_expr("x1*x2^2", GENS)
    assert isinstance(node, Mul) and isinstance(node.right, Pow)
    assert node.right.exponent == 2
    node = parse_expr("(x1 + x2)^2", GENS)
    assert isinstance(node, Pow) and isinstance(node.base, Add)


def test_parse_operator_application():
    node = parse_expr("P(x1*P(x2))", GENS)
    assert isinstance(node, PApply)
    assert isinstance(node.child, Mul)
    assert isinstance(node.child.right, PApply)


def test_parse_reports_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x1 + P x2", GENS)
    assert exc.value.line == 1
    assert exc.value.column > 0
    with pytest.raises(ExprSyntaxError):
        parse_expr("[x1|", GENS)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", GENS)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 +", GENS)


@pytest.mark.parametrize("text, position", [
    ("[x1|x2 ^]", (1, 9)),
    ("[x1\n|2 x2]", (2, 4)),
])
def test_word_factor_error_position_is_absolute(text, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text, GENS)
    assert (exc.value.line, exc.value.column) == position


_vars = st.sampled_from([coeff_var("lam"), coeff_var("c1"), gen_var("x1"), gen_var("x2")])
_monomials = st.dictionaries(_vars, st.integers(1, 3), max_size=2).map(Monomial.make)
_polys = st.dictionaries(_monomials, st.integers(-5, 5), max_size=4).map(Polynomial)


@settings(max_examples=200)
@given(_polys, _polys)
def test_word_factors_use_the_polynomial_grammar(p, q):
    assert parse_expr(f"[{p}]", GENS) == WordLit((parse_polynomial(str(p), GENS),))
    assert parse_expr(f"[{p} | {q}]", GENS) == WordLit(
        (parse_polynomial(str(p), GENS), parse_polynomial(str(q), GENS))
    )


def test_unknown_variable_namespacing():
    # identifiers outside the declared generator set land in the
    # coefficient namespace, so there is no syntax error here
    elem = ev("c9*x1")
    ((word, coeff),) = elem.terms()
    assert coeff == Polynomial.from_variable(coeff_var("c9"))
    assert word == TensorWord((X1,))
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 $ x2", GENS)


def test_eval_examples():
    assert ev("x1") == ShuffleElement.from_word(TensorWord((X1,)))
    assert ev("P(x1)") == ShuffleElement.from_word(TensorWord((ONE, X1)))
    assert ev("x1*x2") == ShuffleElement.from_word(TensorWord((X1 * X2,)))
    assert ev("[1]^5") == ShuffleElement.unit()
    assert ev("2 + 3") == ShuffleElement.unit().scale(5)
    assert ev("[1|x1] - P(x1)") == ShuffleElement.zero()


def test_eval_word_literal_with_polynomial_factors():
    elem = ev("[x1 + x2|1]")
    expected = ShuffleElement.from_word(TensorWord((X1, ONE))) + ShuffleElement.from_word(
        TensorWord((X2, ONE))
    )
    assert elem == expected


def test_eval_baxter_identity_expression():
    lhs = ev("P(x1)*P(x2)")
    rhs = ev("P(x1*P(x2)) + P(x2*P(x1)) + lam*P(x1*x2)")
    assert lhs == rhs


def test_eval_respects_weight():
    two = Weight.of(2)
    u = ShuffleElement.from_word(TensorWord((ONE, X1)))
    assert ev("P(x1)*P(x1)", two) == shuffle_product(u, u, two)
    assert ev("P(x1)^2", two) == shuffle_product(u, u, two)


def test_eval_power_matches_repeated_product():
    base = ev("P(x1) + x2")
    cubed = shuffle_product(shuffle_product(base, base, LAM), base, LAM)
    assert ev("(P(x1) + x2)^3") == cubed
    assert ev("(P(x1) + x2)^0") == ShuffleElement.unit()


def test_print_parse_roundtrip_examples():
    for text in (
        "x1 + x2*x1",
        "P(x1*P(x2)) + lam*P(x1*x2)",
        "(x1 + x2)^2*[1|x1^2]",
        "2*[lam*x1 + 1|x2]",
    ):
        node = parse_expr(text, GENS)
        assert parse_expr(print_expr(node), GENS) == node


def test_print_parse_roundtrip_random():
    rng = random.Random(42)
    for _ in range(300):
        node = random_ast(rng)
        printed = print_expr(node)
        reparsed = parse_expr(printed, GENS)
        assert reparsed == node
        assert print_expr(reparsed) == printed


def test_flat_text_prints_back():
    """A flat text of 5,000 operands, parentheses only inside one: the
    parser, the printer and the evaluator take no recursion per operand."""
    rng = random.Random(8)
    operands = ["x1", "2", "lam", "[1|x1]", "P(x2)", "x1^2", "(x1 - [x2])", "-x1"]
    text = rng.choice(operands)
    for _ in range(4999):
        sep = rng.choice([" + ", " - ", " * "])
        operand = rng.choice(operands[:-1] if sep == " * " else operands)
        text += sep + operand
    node = parse_expr(text, GENS)
    assert print_expr(node) == text
    sums = " + ".join(["[x1]"] * 5000)
    assert ev(sums) == ev("[x1]").scale(5000)
    assert print_expr(parse_expr(sums, GENS)) == sums


def test_eval_random_roundtrip_shallow():
    # evaluation of deep random trees explodes combinatorially, so the
    # semantic check sticks to leaf-level atoms
    rng = random.Random(7)
    for _ in range(30):
        node = random_ast(rng, depth=2)
        reparsed = parse_expr(print_expr(node), GENS)
        assert eval_expr(reparsed, LAM) == eval_expr(node, LAM)
        assert eval_expr(PApply(node), LAM) == baxter_operator(eval_expr(node, LAM))


def test_prefix_minus_binds_looser_than_product_and_power():
    one, x1 = WordLit((Polynomial.one(),)), GenVar("x1")
    assert parse_expr("-[1]^2", GENS) == Neg(Pow(one, 2))
    assert parse_expr("-x1*[1]", GENS) == Neg(Mul(x1, one))
    assert parse_expr("[1] + -[1]", GENS) == Add(one, Neg(one))
    assert parse_expr("x1 - -x1", GENS) == Sub(x1, Neg(x1))
    assert parse_expr("--x1", GENS) == Neg(Neg(x1))
    assert parse_expr("P(-x1)", GENS) == PApply(Neg(x1))
    assert parse_expr("(-x1)^2", GENS) == Pow(Neg(x1), 2)
    assert ev("-[1]^2") == -ShuffleElement.unit()
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1*-x1", GENS)


def test_p_without_parenthesis_is_an_identifier():
    x1_word = WordLit((parse_polynomial("x1", GENS),))
    assert parse_expr("P*[x1]", GENS) == Mul(CoeffVar("P"), x1_word)
    assert parse_expr("P^2", GENS) == Pow(CoeffVar("P"), 2)
    assert parse_expr("P(x1)", GENS) == PApply(GenVar("x1"))


_coeff_monos = st.dictionaries(
    st.sampled_from([coeff_var("lam"), coeff_var("c1"), coeff_var("P")]), st.integers(1, 2),
    max_size=2,
).map(Monomial.make)
_coeffs = st.dictionaries(_coeff_monos, st.integers(-3, 3), max_size=3).map(Polynomial)
_gen_monos = st.dictionaries(
    st.sampled_from([gen_var("x1"), gen_var("x2")]), st.integers(1, 2), max_size=2
).map(Monomial.make)
_words = st.lists(_gen_monos, min_size=1, max_size=4).map(lambda fs: TensorWord(tuple(fs)))
_shuffle_elements = st.lists(st.tuples(_words, _coeffs), max_size=5).map(
    ShuffleElement.from_terms
)


@settings(max_examples=200, deadline=None)
@given(_shuffle_elements)
def test_printed_element_reads_back(u):
    assert ev(str(u)) == u


POWER_WEIGHTS = [LAM, Weight.of(0), Weight.of(2), Weight.of(LAM.value + 1),
                 Weight.of(-3 * LAM.value**2)]


@pytest.mark.parametrize("weight", POWER_WEIGHTS, ids=str)
def test_power_is_the_repeated_product(weight):
    rng = random.Random(23)
    for _ in range(3):
        base = random_shuffle_element(rng, GENS, max_len=2, max_words=2)
        product = ShuffleElement.unit()
        for k in range(6):
            assert ev(f"({base})^{k}", weight) == product
            product = shuffle_product(product, base, weight)


def _json_coeff(text):
    return ShuffleElement.from_json_obj({"terms": [{"coeff": text, "word": ["1"]}]}, GENS)


def _json_factor(text):
    return ShuffleElement.from_json_obj({"terms": [{"coeff": "1", "word": [text]}]}, GENS)


def _expr(text):
    return parse_expr(text, GENS)


def _poly(text):
    return parse_polynomial(text, GENS)


# every text reader runs on the one lexer, so each reports the line and
# column of the offending token within the whole text it was given
@pytest.mark.parametrize("read, text, line, column, message", [
    (_expr, "x1 +", 1, 5, "expected an expression (at end of input)"),
    (_expr, "x1 $ x2", 1, 4, "unexpected character '$'"),
    (_expr, "(x1", 1, 4, "expected ) (at end of input)"),
    (_expr, "x1*-x2", 1, 4, "expected an expression, found '-'"),
    (_expr, "P x2", 1, 3, "unexpected trailing input, found 'x2'"),
    (_expr, "x1^x2", 1, 4, "expected a nonnegative integer exponent, found 'x2'"),
    (_expr, "[x1, x2]", 1, 4, "expected ], found ','"),
    (_expr, "[x1|x2 ^]", 1, 9, "expected an exponent after '^'"),
    (_expr, "[x1\n|2 x2]", 2, 4, "expected '+' or '-'"),
    (_expr, "[x1 - ]", 1, 7, "expected a term"),
    (_expr, "[2^3]", 1, 3, "expected '+' or '-'"),
    (_expr, "[x1 |\n x2^0]", 2, 5, "exponent must be positive"),
    (_poly, "lam  $", 1, 6, "unexpected character '$'"),
    (_poly, "lam\n$", 2, 1, "unexpected character '$'"),
    (_poly, "x1 ^ ", 1, 5, "expected an exponent after '^'"),
    (_poly, "(lam)", 1, 1, "expected a term"),
    (_poly, "lam)", 1, 4, "expected '+' or '-'"),
    (_poly, "2*3", 1, 3, "expected a variable name"),
    (HurwitzSeries.parse, "(1, 2, 3 $)", 1, 10, "unexpected character '$'"),
    (HurwitzSeries.parse, "(1 2)", 1, 4, "expected '+' or '-'"),
    (HurwitzSeries.parse, "(1, 2", 1, 6, "expected ',' or ')'"),
    (HurwitzSeries.parse, "(1,\n,2)", 2, 1, "expected a term"),
    (HurwitzSeries.parse, "1, 2)", 1, 5, "unexpected trailing input"),
    (_json_coeff, "2 $", 1, 3, "unexpected character '$'"),
    (_json_coeff, "lam lam", 1, 5, "expected '+' or '-'"),
    (_json_factor, "x1*", 1, 4, "expected a variable name"),
])
def test_error_positions(read, text, line, column, message):
    with pytest.raises(ExprSyntaxError) as exc:
        read(text)
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)
