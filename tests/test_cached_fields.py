"""Cached fields of the hot records: a variable's, monomial's and word's hash,
order key and printed text equal what its fields give, however it was built
(parsing, products, normalising, copies, pickles), and never travel in a
pickle, where a string hash salted by another process would be wrong."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from freebaxter import (
    AbarElement,
    AbarWord,
    Monomial,
    Namespace,
    TensorWord,
    Variable,
    Weight,
    coeff_var,
    gen_var,
    parse_polynomial,
    word_product,
)
from freebaxter.coeffring import mono_key
from freebaxter.exprparse import eval_expr, parse_expr
from freebaxter.randgen import random_monomial, random_word
from freebaxter.words import abar_normalize, word_key

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
GENS = ("x1", "x2", "x3")
LAM = Weight.default()


# -- the values recomputed from the fields -------------------------------------

def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def _var_key(v: Variable) -> tuple:
    return (0 if v.namespace is Namespace.COEFFICIENT else 1, v.name)


def _mono_key(m: Monomial) -> tuple:
    key = [-sum(e for _, e in m.exponents)]
    for v, e in m.exponents:
        key += [*_var_key(v), -e]
    return tuple(key)


def _mono_text(m: Monomial) -> str:
    return "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in m.exponents) or "1"


def _word_key(w) -> tuple:
    return (-len(w.factors), *(x for f in w.factors for x in _mono_key(f)))


def _word_text(w) -> str:
    body = "|".join(map(_mono_text, w.factors))
    if isinstance(w, TensorWord):
        return f"[{body}]"
    return f"({body})" if w.factors else "1"


def check_record(record, text_first: bool = True) -> None:
    """Each cached value equals the one recomputed from the fields, read
    twice: filling the cache, then from it. The variables and monomials
    inside are checked too."""
    if isinstance(record, Variable):
        key, want_key, text, inner = (lambda v: v.sort_key), _var_key, (lambda v: v.name), ()
    elif isinstance(record, Monomial):
        key, want_key, text = mono_key, _mono_key, _mono_text
        inner = [v for v, _ in record.exponents]
    else:
        key, want_key, text, inner = word_key, _word_key, _word_text, record.factors
    for _ in range(2):
        assert hash(record) == hash(_fields(record))
        if text_first:
            assert str(record) == text(record)
        assert key(record) == want_key(record)
        assert str(record) == text(record)
    for part in inner:
        check_record(part, text_first)


def check_copies(record) -> None:
    """Deep and shallow copies and pickles at every protocol are equal
    records with correct cached values, filled text first or key first, and
    a pickle is the same bytes whether or not the caches were filled."""
    twin = type(record)(*_fields(record))
    before = [pickle.dumps(twin, p) for p in PROTOCOLS]
    check_record(record)
    assert [pickle.dumps(record, p) for p in PROTOCOLS] == before
    copies = [copy.deepcopy(record), copy.copy(record)]
    copies += [pickle.loads(blob) for blob in before]
    for i, back in enumerate(copies):
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)
        check_record(back, text_first=i % 2 == 0)


def _parts(word) -> list:
    """The word, its factors and their variables."""
    monos = list(word.factors)
    return [word, *monos, *(v for m in monos for v, _ in m.exponents)]


# -- seeded records built every way ---------------------------------------------

def records(seed: int) -> list:
    """Records built by parsing, Monomial.__mul__, word_product and
    abar_normalize, from seeded random inputs."""
    rng = random.Random(seed)
    words = [random_word(rng, GENS, max_len=4) for _ in range(4)]
    monos = [random_monomial(rng, GENS, 3) for _ in range(4)]
    monos += [a * b for a in monos for b in monos]
    monos += [m * parse_polynomial("lam^2*c").leading_term()[0] for m in monos[:4]]
    poly = parse_polynomial(" + ".join(map(str, monos)) + " + 3*lam*x1^2", GENS)
    out = [mono for mono, _ in poly.items()]
    text = " + ".join(map(str, words))
    for word, _ in eval_expr(parse_expr(text, GENS), LAM).terms():
        out += _parts(word)
    for word, _ in word_product(words[0], words[1], LAM).terms():
        out += _parts(word)
    for word in words:
        factors = word.factors + (Monomial.unit(),) * rng.randint(0, 2)
        out += _parts(abar_normalize(factors))
    obj = {"terms": [{"coeff": "2", "word": [str(f) for f in w.factors]} for w in words]}
    for word, _ in AbarElement.from_json_obj(obj, GENS).terms():
        out += _parts(word)
    return out + [abar_normalize((Monomial.unit(),)), gen_var("x1"), coeff_var("lam")]


def test_seeded_records_have_fresh_caches():
    for seed in range(5):
        built = records(seed)
        assert {type(r) for r in built} == {Variable, Monomial, TensorWord, AbarWord}
        for record in built:
            check_copies(record)


def test_pickles_carry_no_hash_across_processes():
    """Records pickled in a process with another hash seed load with the
    hashes of records built here, at every protocol."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    code = (
        "import pickle, sys\n"
        "from test_cached_fields import PROTOCOLS, records\n"
        "blobs = [pickle.dumps(records(3), p) for p in PROTOCOLS]\n"
        "sys.stdout.buffer.write(pickle.dumps((hash('x1'), blobs)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    their_str_hash, blobs = pickle.loads(proc.stdout)
    assert their_str_hash != hash("x1")  # the two processes salt strings apart
    fresh = records(3)
    for blob in blobs:
        loaded = pickle.loads(blob)
        assert loaded == fresh
        assert [hash(r) for r in loaded] == [hash(r) for r in fresh]
        for record in loaded:
            check_record(record)


# -- hypothesis ------------------------------------------------------------------

_VARS = st.sampled_from([gen_var("x1"), gen_var("x2"), coeff_var("lam"), coeff_var("c")])
_MONOS = st.dictionaries(_VARS, st.integers(0, 3), max_size=3).map(Monomial.make)
_GEN_MONOS = _MONOS.map(lambda m: m.split()[1])
_WORDS = st.lists(_GEN_MONOS, min_size=1, max_size=4).map(lambda fs: TensorWord(tuple(fs)))


@settings(max_examples=60, deadline=None)
@given(_MONOS, _MONOS)
def test_monomial_products_hypothesis(a, b):
    check_copies(a)
    check_copies(b)  # the factors' caches are full before they multiply
    for record in (a * b, b * a, a * b * b):
        check_copies(record)
    assert hash(a * b) == hash(b * a) and str(a * b) == str(b * a)


@settings(max_examples=40, deadline=None)
@given(_WORDS, _WORDS, st.integers(0, 2))
def test_words_hypothesis(x, y, units):
    check_copies(x)
    for word, _ in word_product(x, y, LAM).terms():
        check_copies(word)
    check_copies(abar_normalize(x.factors + (Monomial.unit(),) * units))
