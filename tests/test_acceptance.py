"""Acceptance gate: one test per release criterion, exact symbolic equality
throughout (no tolerances). Each test prints a single PASS line on success;
a failed assertion leaves the line unprinted.
"""

import random

import pytest

from freebaxter import (
    CompleteElement,
    HurwitzSeries,
    Monomial,
    NotDivisible,
    ShuffleElement,
    StandardElement,
    TensorWord,
    Weight,
    baxter_operator,
    binomial,
    complete_mul,
    complete_operator,
    extend_hom,
    fil_degree,
    from_standard,
    gamma,
    gen_var,
    hurwitz_iso,
    parse_expr,
    prefix_sum_operator,
    prefix_sum_preimage,
    print_expr,
    seq_degree,
    shuffle_product,
    to_standard,
    unit_power_product,
    unit_word,
    word_product,
)
from freebaxter.cli import main
from freebaxter.randgen import random_shuffle_element, random_standard_element
from helpers import (
    GENS,
    ScalarBaxterTarget,
    baxter_identity_holds,
    enumerate_shuffles,
    mixable_histogram,
    random_ast,
)

LAM = Weight.default()
ZERO = Weight.of(0)


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_acceptance_01_baxter_axiom():
    rng = random.Random(20260823)
    for _ in range(200):
        u = random_shuffle_element(rng, GENS, max_len=4)
        v = random_shuffle_element(rng, GENS, max_len=4)
        assert baxter_identity_holds(u, v, LAM)
    _report(1, "Baxter axiom, 200 seeded pairs, symbolic weight")


def test_acceptance_02_ring_axioms():
    rng = random.Random(2)
    one = ShuffleElement.unit()
    for _ in range(100):
        u = random_shuffle_element(rng, GENS, max_len=3)
        v = random_shuffle_element(rng, GENS, max_len=3)
        t = random_shuffle_element(rng, GENS, max_len=3)
        assert shuffle_product(u, v, LAM) == shuffle_product(v, u, LAM)
        assert shuffle_product(shuffle_product(u, v, LAM), t, LAM) == shuffle_product(
            u, shuffle_product(v, t, LAM), LAM
        )
        assert shuffle_product(u, one, LAM) == u
    _report(2, "product commutative, associative, unital on 100 triples")


def test_acceptance_03_unit_power_closed_form():
    for m in range(7):
        for n in range(7):
            brute = word_product(unit_word(m + 1), unit_word(n + 1), LAM)
            assert brute == unit_power_product(m, n, LAM)
            hist = mixable_histogram(m, n)
            for k in range(m + n + 2):
                assert hist.get(k, 0) == binomial(m + n - k, n) * binomial(n, k)
            assert len(enumerate_shuffles(m, n)) == binomial(m + n, n)
    _report(3, "all-unit closed form, histogram, shuffle count, m,n <= 6")


def test_acceptance_04_grading_bounds():
    for m in range(7):
        for n in range(7):
            product = word_product(unit_word(m + 1), unit_word(n + 1), LAM)
            for word, _ in product.terms():
                assert max(m, n) <= word.degree <= m + n
    rng = random.Random(4)
    for _ in range(100):
        u = random_shuffle_element(rng, GENS)
        if u.is_zero:
            continue
        assert fil_degree(baxter_operator(u)) == fil_degree(u) + 1
    _report(4, "product degree bounds and operator degree shift")


def test_acceptance_05_series_stabilization():
    N = 6
    rng = random.Random(5)
    for _ in range(50):
        x = CompleteElement.from_element(random_shuffle_element(rng, GENS), N)
        y = CompleteElement.from_element(random_shuffle_element(rng, GENS), N)
        for k in range(N):
            base = shuffle_product(x.partial_sum(k), y.partial_sum(k), LAM)
            base_k = base.homogeneous_component(k)
            for n in range(k, N):
                later = shuffle_product(x.partial_sum(n), y.partial_sum(n), LAM)
                assert later.homogeneous_component(k) == base_k
    _report(5, "degreewise product stabilization, k < 6, 50 pairs")


def test_acceptance_06_operator_projection_square():
    N = 6
    rng = random.Random(6)
    for _ in range(50):
        u = random_shuffle_element(rng, GENS)
        lhs = complete_operator(CompleteElement.from_element(u, N))
        rhs = CompleteElement.from_element(baxter_operator(u), N)
        assert lhs == rhs
    _report(6, "completion operator commutes with projection, 50 elements")


def _random_scalar_class(rng, trunc):
    terms = [(unit_word(k + 1), rng.randint(-4, 4)) for k in range(trunc)]
    return CompleteElement(trunc, ShuffleElement.from_terms(terms))


def test_acceptance_07_hurwitz():
    for m in range(8):
        for n in range(8 - m):
            lhs = HurwitzSeries.basis(m, 8) * HurwitzSeries.basis(n, 8)
            expected = HurwitzSeries(
                [binomial(m + n, n) * e for e in HurwitzSeries.basis(m + n, 8).entries]
            )
            assert lhs == expected
    rng = random.Random(7)
    for _ in range(50):
        x = _random_scalar_class(rng, 8)
        y = _random_scalar_class(rng, 8)
        assert hurwitz_iso(complete_mul(x, y, ZERO), ZERO) == (
            hurwitz_iso(x, ZERO) * hurwitz_iso(y, ZERO)
        )
        assert hurwitz_iso(x + y, ZERO) == hurwitz_iso(x, ZERO) + hurwitz_iso(y, ZERO)
    _report(7, "basis convolution products and series identification at weight 0")


def test_acceptance_08_leading_entry():
    from freebaxter import AbarElement, abar_normalize

    rng = random.Random(8)
    N = 6
    for _ in range(50):
        length = rng.randint(1, 5)
        factors = tuple(Monomial.of(gen_var(rng.choice(GENS))) for _ in range(length))
        s = to_standard(ShuffleElement.from_word(TensorWord(factors)), N, LAM)
        for j in range(1, length):
            assert s.entry(j).is_zero
        expected = AbarElement(
            {abar_normalize(tuple(reversed(factors))): LAM.value ** (length - 1)}
        )
        assert s.entry(length) == expected
    _report(8, "leading sequence entry is the weight-power times the reversed word")


def test_acceptance_09_roundtrip():
    N = 6
    for weight in (LAM, Weight.of(2)):
        rng = random.Random(9)
        for _ in range(50):
            u = random_shuffle_element(rng, GENS, max_len=5)
            assert from_standard(to_standard(u, N, weight), weight) == u
    with pytest.raises(NotDivisible):
        from_standard(gamma(2, 4), LAM)
    _report(9, "sequence round trip at symbolic and integer weights")


def test_acceptance_10_degree_and_preimage():
    N = 6
    rng = random.Random(10)
    for _ in range(50):
        u = random_shuffle_element(rng, GENS)
        if u.is_zero:
            continue
        assert seq_degree(to_standard(u, N, LAM)) >= fil_degree(u)
    from freebaxter import AbarElement

    for k in range(5):
        for trial in range(20):
            t = random_standard_element(rng, trunc=N)
            entries = [
                AbarElement.zero() if i <= k else e for i, e in enumerate(t.entries)
            ]
            s = StandardElement(entries).scale(LAM.value)
            witness = prefix_sum_preimage(s, k, LAM)
            assert prefix_sum_operator(witness, LAM) == s
    _report(10, "sequence degree bound and exact prefix-sum preimage, k <= 4")


def test_acceptance_11_universal_property():
    target = ScalarBaxterTarget(LAM)
    for n in range(7):
        u = ShuffleElement.from_word(unit_word(n + 1))
        assert extend_hom(target, u, LAM) == (-LAM.value) ** n
    rng = random.Random(11)
    for _ in range(100):
        u = random_shuffle_element(rng, GENS, max_len=3)
        v = random_shuffle_element(rng, GENS, max_len=3)
        fu = extend_hom(target, u, LAM)
        fv = extend_hom(target, v, LAM)
        assert extend_hom(target, shuffle_product(u, v, LAM), LAM) == fu * fv
        assert extend_hom(target, baxter_operator(u), LAM) == target.apply_operator(fu)
    from freebaxter import is_nonunital

    for _ in range(100):
        words = []
        for _ in range(2):
            length = rng.randint(1, 3)
            factors = tuple(
                Monomial.of(gen_var(rng.choice(GENS))) for _ in range(length)
            )
            words.append(ShuffleElement.from_word(TensorWord(factors), rng.randint(-3, 3)))
        u, v = words
        assert is_nonunital(shuffle_product(u, v, LAM))
        assert is_nonunital(baxter_operator(u))
    _report(11, "scalar extension values, homomorphism law, non-unital closure")


def test_acceptance_12_cli_and_parser(capsys):
    assert main(["unit-product", "1", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["2*[1|1|1] + lam*[1|1]", "agree: true"]
    rng = random.Random(12)
    for _ in range(500):
        node = random_ast(rng)
        assert parse_expr(print_expr(node), GENS) == node
    assert main(["baxter-check", "--trials", "0"]) == 0
    capsys.readouterr()
    assert (
        main(
            ["baxter-check", "--trials", "5", "--seed", "1",
             "--check-weight", "lam + 1"]
        )
        == 1
    )
    capsys.readouterr()
    _report(12, "golden CLI output, 500-AST parser round trip, mutation test")
