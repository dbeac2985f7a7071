"""The value records of the package: equality, hashing, repr, immutability,
pickling and validation of the coefficient, word and expression records."""

import copy
import pickle

import pytest

from freebaxter import (
    AbarElement,
    AbarWord,
    CompleteElement,
    HurwitzSeries,
    Monomial,
    Namespace,
    NamespaceViolation,
    Polynomial,
    ShuffleElement,
    StandardElement,
    TensorWord,
    Variable,
    Weight,
    coeff_var,
    gen_var,
    parse_polynomial,
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

X1 = gen_var("x1")
LAM = coeff_var("lam")
M = Monomial.make({X1: 2, LAM: 1})
ONE_WORD = WordLit((Polynomial.one(),))

_X1_REPR = "Variable(namespace=<Namespace.GENERATOR: 'generator'>, name='x1')"
_M_X1 = f"Monomial(exponents=(({_X1_REPR}, 1),))"

# (record, a record of the same class with another value, its repr text)
CASES = [
    (X1, gen_var("x2"), _X1_REPR),
    (
        M,
        Monomial.of(X1, 2),
        "Monomial(exponents=((Variable(namespace=<Namespace.COEFFICIENT: 'coefficient'>, "
        f"name='lam'), 1), ({_X1_REPR}, 2)))",
    ),
    (Weight.default(), Weight.of(2), "Weight(value=Polynomial(lam))"),
    (
        TensorWord((Monomial.unit(), Monomial.of(X1))),
        TensorWord((Monomial.of(X1),)),
        f"TensorWord(factors=(Monomial(exponents=()), {_M_X1}))",
    ),
    (AbarWord((Monomial.of(X1),)), AbarWord(()), f"AbarWord(factors=({_M_X1},))"),
    (IntLit(3), IntLit(4), "IntLit(value=3)"),
    (CoeffVar("c"), CoeffVar("d"), "CoeffVar(name='c')"),
    (GenVar("x1"), GenVar("x2"), "GenVar(name='x1')"),
    (ONE_WORD, WordLit((Polynomial.one(), Polynomial.one())),
     "WordLit(factors=(Polynomial(1),))"),
    (Add(IntLit(1), GenVar("x1")), Add(GenVar("x1"), IntLit(1)),
     "Add(left=IntLit(value=1), right=GenVar(name='x1'))"),
    (Sub(IntLit(1), GenVar("x1")), Sub(IntLit(1), GenVar("x2")),
     "Sub(left=IntLit(value=1), right=GenVar(name='x1'))"),
    (Mul(IntLit(1), ONE_WORD), Mul(IntLit(2), ONE_WORD),
     "Mul(left=IntLit(value=1), right=WordLit(factors=(Polynomial(1),)))"),
    (Pow(GenVar("x1"), 2), Pow(GenVar("x1"), 3), "Pow(base=GenVar(name='x1'), exponent=2)"),
    (PApply(Neg(IntLit(1))), PApply(IntLit(1)), "PApply(child=Neg(child=IntLit(value=1)))"),
    (Neg(GenVar("x1")), Neg(CoeffVar("x1")), "Neg(child=GenVar(name='x1'))"),
]
IDS = [type(record).__name__ for record, _, _ in CASES]


def _fields(record):
    return [getattr(record, name) for name in type(record).__slots__]


@pytest.mark.parametrize("record, other, text", CASES, ids=IDS)
def test_equality_and_hash(record, other, text):
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(_fields(record)))
    assert record != other
    assert record.__eq__(tuple(_fields(record))) is NotImplemented
    assert record != tuple(_fields(record))
    assert len({record, twin, other}) == 2


def test_equal_fields_of_different_classes_differ():
    assert Add(IntLit(1), IntLit(2)) != Sub(IntLit(1), IntLit(2))
    assert GenVar("x1") != CoeffVar("x1")
    assert TensorWord((Monomial.of(X1),)) != AbarWord((Monomial.of(X1),))
    assert Variable(Namespace.GENERATOR, "x1") != Variable(Namespace.COEFFICIENT, "x1")


@pytest.mark.parametrize("record, other, text", CASES, ids=IDS)
def test_repr_text(record, other, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, other, text", CASES, ids=IDS)
def test_fields_cannot_change(record, other, text):
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert repr(record) == text


@pytest.mark.parametrize("record, other, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, other, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)
    for back in (copy.deepcopy(record), copy.copy(record)):
        assert back == record and repr(back) == text


@pytest.mark.parametrize("value", [
    Polynomial.one(),
    parse_polynomial("3*lam^2*x1 - c + 2", ["x1"]),
    ShuffleElement.from_factors([parse_polynomial("x1 + lam", ["x1"]), Polynomial.one()]),
    AbarElement.from_word(AbarWord((Monomial.of(X1),)), 3),
    HurwitzSeries([1, parse_polynomial("lam"), 0]),
    CompleteElement.from_element(ShuffleElement.unit(), 2),
    StandardElement([AbarElement.identity(), AbarElement.zero()]),
], ids=["one", "polynomial", "ShuffleElement", "AbarElement", "HurwitzSeries",
        "CompleteElement", "StandardElement"])
def test_values_holding_polynomials_pickle_at_every_protocol(value):
    """The records holding polynomials (Weight, WordLit) are in CASES."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value) and str(back) == str(value)


def test_keyword_construction():
    assert Variable(namespace=Namespace.GENERATOR, name="x1") == X1
    assert Monomial(exponents=M.exponents) == M
    assert TensorWord(factors=(M.split()[1],)) == TensorWord((Monomial.of(X1, 2),))
    assert Pow(base=GenVar("x1"), exponent=2) == Pow(GenVar("x1"), 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: TensorWord(()), ValueError, "a tensor word has at least one factor"),
    (lambda: TensorWord((M,)), NamespaceViolation,
     "word factor lam*x1^2 contains coefficient variables; move them to the scalar"),
    (lambda: AbarWord((Monomial.of(X1), Monomial.unit())), ValueError,
     "AbarWord may not end in a unit factor; use abar_normalize"),
    (lambda: AbarWord((M,)), NamespaceViolation,
     "word factor lam*x1^2 contains coefficient variables; move them to the scalar"),
    (lambda: Variable(Namespace.GENERATOR, "1x"), ValueError, "invalid variable name: '1x'"),
    (lambda: coeff_var("a b"), ValueError, "invalid variable name: 'a b'"),
], ids=["tensor-empty", "tensor-coefficient", "abar-unit-end", "abar-coefficient",
        "variable-digit", "variable-space"])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
