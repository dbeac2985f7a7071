import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from freebaxter import (
    ShuffleElement,
    Weight,
    to_standard,
)
from freebaxter import cli
from freebaxter.cli import main
from freebaxter.exprparse import eval_expr, parse_expr
from helpers import enumerate_shuffles, mixable_histogram

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "P(x1)*P(x1)")
    assert code == 0
    assert out.strip() == "2*[1|x1|x1] + lam*[1|x1^2]"


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "--output", "json", "P(x1*P(x2)) + 3")
    assert code == 0
    obj = json.loads(out)
    elem = ShuffleElement.from_json_obj(obj, gens=("x1", "x2"))
    expected = eval_expr(parse_expr("P(x1*P(x2)) + 3", ("x1", "x2")), Weight.default())
    assert elem == expected


def test_eval_integer_weight(capsys):
    code, out, _ = run(capsys, "eval", "--weight", "2", "P(x1)*P(x1)")
    assert code == 0
    assert out.strip() == "2*[1|x1|x1] + 2*[1|x1^2]"


def test_eval_syntax_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "P x1")
    assert code == 2
    assert "syntax" in err


def test_unknown_subcommand_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_phi_golden(capsys):
    code, out, _ = run(capsys, "phi", "--trunc", "3", "[x1|x2]")
    assert code == 0
    assert out.strip() == "lam*(x2|x1) g2 + (lam*(x2|1|x1) + lam*(1|x2|x1)) g3"


def test_phi_psi_pipe_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "phi", "--output", "json", "--trunc", "6", "P(x1)*x2 + 3")
    assert code == 0
    path = tmp_path / "seq.json"
    path.write_text(out)
    code, out, _ = run(capsys, "psi", str(path))
    assert code == 0
    expected = eval_expr(parse_expr("P(x1)*x2 + 3", ("x1", "x2")), Weight.default())
    assert out.strip() == str(expected)


def test_psi_stdin(capsys, monkeypatch):
    elem = eval_expr(parse_expr("P(x1*P(x2))", ("x1", "x2")), Weight.default())
    seq = to_standard(elem, 6, Weight.default())
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(seq.to_json_obj())))
    code, out, _ = run(capsys, "psi", "-")
    assert code == 0
    assert out.strip() == str(elem)


def test_psi_not_in_image_exit_3(capsys, tmp_path):
    # the sequence with a bare identity in slot 2 is outside the image
    from freebaxter import gamma

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(gamma(2, 4).to_json_obj()))
    code, _, err = run(capsys, "psi", str(path))
    assert code == 3
    assert "error" in err


def test_psi_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "psi", str(tmp_path / "nope.json"))
    assert code == 2
    assert "config" in err


def test_count_shuffles(capsys):
    code, out, _ = run(capsys, "count-shuffles", "2", "2")
    assert code == 0
    assert out.strip() == "total: 6"
    code, out, _ = run(capsys, "count-shuffles", "--mixable", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "total: 3"
    assert lines[1] == "histogram: {0: 2, 1: 1}"


def test_count_shuffles_matches_enumeration(capsys):
    for m in range(6):
        for n in range(6):
            code, out, _ = run(capsys, "count-shuffles", str(m), str(n))
            assert (code, out) == (0, f"total: {len(enumerate_shuffles(m, n))}\n")
            hist = mixable_histogram(m, n)
            body = ", ".join(f"{k}: {hist[k]}" for k in sorted(hist))
            code, out, _ = run(capsys, "count-shuffles", "--mixable", str(m), str(n))
            assert (code, out) == (0, f"total: {sum(hist.values())}\nhistogram: {{{body}}}\n")


def test_count_shuffles_large_is_immediate(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "count-shuffles", "30", "30", "--mixable")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    # the mixable (m,n)-shuffles number the Delannoy number D(m,n)
    delannoy = sum(math.comb(30, k) ** 2 * 2**k for k in range(31))
    assert out.splitlines()[0] == f"total: {delannoy}"


@pytest.mark.parametrize("mode", [(), ("--mixable",)])
def test_count_shuffles_negative_exit_2(capsys, mode):
    code, _, err = run(capsys, "count-shuffles", *mode, "-1", "2")
    assert code == 2
    assert "nonnegative" in err


@pytest.mark.parametrize("argv, symbol", [
    (("eval", "--weight", "x1", "P(x1)*P(x1)"), "x1"),
    (("phi", "--weight", "lam + x3", "[x1]"), "x3"),
    (("baxter-check", "--trials", "1", "--check-weight", "2*x2"), "x2"),
])
def test_weight_naming_a_generator_exit_2(capsys, argv, symbol):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: config: weight symbol '{symbol}'" in err


def test_weight_may_name_an_undeclared_generator(capsys):
    code, out, _ = run(capsys, "eval", "--gens", "y", "--weight", "x1", "P(y)*P(y)")
    assert (code, out) == (0, "2*[1|y|y] + x1*[1|y^2]\n")


def test_unit_product_golden(capsys):
    code, out, _ = run(capsys, "unit-product", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2*[1|1|1] + lam*[1|1]"
    assert lines[1] == "agree: true"


def test_unit_product_large_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "unit-product", "30", "30")
    assert time.perf_counter() - start < 2.0
    assert (code, out.splitlines()[-1]) == (0, "agree: true")


def test_unit_product_over_budget_exit_2(capsys):
    # 301 * 301 * 301 = 27,270,901 predicted units
    start = time.perf_counter()
    code, out, err = run(capsys, "unit-product", "300", "300")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: config: the unit product 300 300 would take up to 27,270,901 "
                   "work units, over the limit of 1,000,000\n")


def test_hurwitz_mul(capsys):
    code, out, _ = run(capsys, "hurwitz-mul", "--trunc", "4", "(0,1,0,0)", "(0,0,1,0)")
    assert code == 0
    assert out.strip() == "(0, 0, 0, 3)"


def test_hurwitz_mul_zero_padding_is_free(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "hurwitz-mul", "--trunc", "3000", "(1)", "(1)")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "(1" + ", 0" * 2999 + ")\n")


def test_hurwitz_mul_over_budget_exit_2(capsys):
    # two dense series of one-term entries at truncation 1500: sum over k of
    # 1500 - k = 1,125,750 term pairs
    dense = "(" + ",".join(["1"] * 1500) + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, "hurwitz-mul", "--trunc", "1500", dense, dense)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == ("error: config: the series product at truncation 1500 would take "
                   "1,125,750 term pairs, over the limit of 300,000\n")


def test_complete_mul(capsys):
    code, out, _ = run(capsys, "complete-mul", "--trunc", "3", "[1|1]", "[1] + [1|1]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trunc: 3"
    assert lines[1] == "(lam + 1)*[1|1] + 2*[1|1|1]"


def test_complete_mul_huge_truncation_runs(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "complete-mul", "--trunc", "10000000", "[1|x1]", "[x2]")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "trunc: 10000000\n[x2|x1]\n")


def test_complete_mul_benchmark_shape_runs(capsys):
    # the shape of the cli benchmark's complete-mul op: degrees 0 and 2 times
    # 1 and P(degree 3)
    code, out, _ = run(
        capsys, "complete-mul", "--trunc", "5", "[x1] + [x2|x3|x4]", "[x1|x2] + P([x3|x4|x1|x2])"
    )
    assert code == 0
    assert out.startswith("trunc: 5\n")


def test_complete_mul_explosive_product_exit_2(capsys):
    # two 13-factor words with no factor in common: all D(12, 12) =
    # 251,595,969 mixable shuffles survive at truncation 25
    left = "[" + "|".join(["x1", "x2"] * 6 + ["x1"]) + "]"
    right = "[" + "|".join(["x3", "x4"] * 6 + ["x3"]) + "]"
    start = time.perf_counter()
    code, out, err = run(capsys, "complete-mul", "--trunc", "25", left, right)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: config: the product at truncation 25 would take at least")


def test_baxter_check_passes(capsys):
    code, out, _ = run(capsys, "baxter-check", "--trials", "10", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rng: mersenne-twister seed=3"
    assert lines[1] == "trials: 10"
    assert lines[2] == "failures: 0"


@pytest.mark.parametrize("argv", [
    ("complete-mul", "--output", "json", "[1]", "[1]"),
    ("baxter-check", "--output", "json", "--trials", "1"),
])
def test_output_option_refused_where_nothing_is_emitted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--output" in err


@pytest.mark.parametrize("option, value, message", [
    ("--trials", "-1", "argument --trials: must be >= 0, got -1"),
    ("--max-len", "0", "argument --max-len: must be >= 1, got 0"),
])
def test_baxter_check_option_out_of_range_exit_2(capsys, option, value, message):
    code, out, err = run(capsys, "baxter-check", option, value)
    assert (code, out) == (2, "")
    assert message in err


def test_complete_mul_negative_later_component(capsys):
    # a later component with a leading minus prints as "+ -", which the
    # prefix minus of the expression grammar reads back
    code, out, _ = run(capsys, "complete-mul", "--trunc", "3", "[1] - [1|1]", "[1]")
    assert (code, out) == (0, "trunc: 3\n[1] + -[1|1]\n")
    code, out, _ = run(capsys, "complete-mul", "--trunc", "3", "[1] + -[1|1]", "[1]")
    assert (code, out) == (0, "trunc: 3\n[1] + -[1|1]\n")


@pytest.mark.parametrize("expr, printed", [
    ("-[1]", "-[1]"),
    ("[1] + -[1|1]", "-[1|1] + [1]"),
    ("[P*x1]", "P*[x1]"),
])
def test_eval_output_reads_back(capsys, expr, printed):
    # an argument that starts with "-" follows "--"
    code, out, _ = run(capsys, "eval", "--", expr)
    assert (code, out) == (0, printed + "\n")
    code, out, _ = run(capsys, "eval", "--", printed)
    assert (code, out) == (0, printed + "\n")


@pytest.mark.parametrize(
    "expr", ["-" * 2000 + "[1]", "(" * 2000 + "x1" + ")" * 2000], ids=["minus", "parentheses"]
)
def test_deeply_nested_input_is_an_input_error(capsys, expr):
    code, out, err = run(capsys, "eval", "--", expr)
    assert (code, out) == (2, "")
    assert err == "error: input: nests deeper than the interpreter's recursion limit\n"


def test_flat_sum_and_product_are_not_nesting(capsys):
    # a flat text is one long left spine, walked by a loop, however long
    code, out, err = run(capsys, "eval", " + ".join(["[x1]"] * 5000))
    assert (code, out, err) == (0, "5000*[x1]\n", "")
    code, out, err = run(capsys, "eval", " * ".join(["2"] * 2000))
    assert (code, out, err) == (0, f"{2 ** 2000}*[1]\n", "")


def _imported_modules(*argv):
    """stdout of ``python -X importtime *argv`` run on the source tree, and
    the modules it imported beyond those a bare interpreter imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def modules(*args):
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, env=env, check=True)
        names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:") and "|" in line}
        return proc.stdout, names

    _, bare = modules("-c", "pass")
    stdout, names = modules(*argv)
    return stdout, names - bare


def test_cli_start_up_loads_only_what_the_command_uses():
    stdout, loaded = _imported_modules("-m", "freebaxter.cli", "eval", "[x1] * [x2]")
    assert stdout == "[x1*x2]\n"
    assert "freebaxter.exprparse" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "freebaxter.randgen"}
    stdout, loaded = _imported_modules(
        "-m", "freebaxter.cli", "phi", "--output", "json", "--trunc", "2", "[x1]")
    assert json.loads(stdout) == to_standard(
        eval_expr(parse_expr("[x1]", ("x1",)), Weight.default()), 2, Weight.default()
    ).to_json_obj()
    assert "json" in loaded
    assert "freebaxter.randgen" not in loaded


def test_baxter_check_products_per_trial(capsys, monkeypatch):
    """Each passing trial takes five products in the CLI: (uv)w, u(vw) and
    vu, with uv taken once for both associativity and commutativity."""
    calls, product = [], cli.shuffle_product

    def counted(u, v, weight):
        calls.append((u, v))
        return product(u, v, weight)

    monkeypatch.setattr(cli, "shuffle_product", counted)
    code, out, _ = run(capsys, "baxter-check", "--trials", "3", "--seed", "3")
    assert code == 0 and out.endswith("failures: 0\n")
    assert len(calls) == 15


def test_baxter_check_counts_a_non_commutative_product(capsys, monkeypatch):
    # u * v = u is associative, so only the commutativity check can fail
    monkeypatch.setattr(cli, "shuffle_product", lambda u, v, weight: u)
    code, out, _ = run(capsys, "baxter-check", "--trials", "4", "--seed", "3")
    assert (code, out.splitlines()[-1]) == (1, "failures: 4")


def test_baxter_check_seed_reproducible(capsys):
    first = run(capsys, "baxter-check", "--trials", "5", "--seed", "11")
    second = run(capsys, "baxter-check", "--trials", "5", "--seed", "11")
    assert first == second


def test_baxter_check_corrupted_weight_fails(capsys):
    code, out, _ = run(
        capsys, "baxter-check", "--trials", "10", "--seed", "3",
        "--check-weight", "lam + 1",
    )
    assert code == 1
    failures = int(out.strip().splitlines()[2].split(": ")[1])
    # a trial can only survive if the product term vanishes, so nearly all
    # trials must fail under a corrupted weight
    assert failures >= 9


def test_psi_weight_zero_exit_3(capsys, tmp_path):
    seq = to_standard(ShuffleElement.unit(), 4, Weight.default())
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq.to_json_obj()))
    code, _, err = run(capsys, "psi", "--weight", "0", str(path))
    assert code == 3
    assert "WeightZero" in err


def _psi_entry(coeff, word=("x1",)):
    return {"trunc": 2, "entries": [{"terms": [{"coeff": coeff, "word": list(word)}]},
                                    {"terms": []}]}


def test_psi_coefficient_naming_a_generator_exit_2(capsys, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(_psi_entry("x1*lam")))
    code, out, err = run(capsys, "psi", str(path))
    assert (code, out) == (2, "")
    assert "error: config: coefficient symbol 'x1' names a declared generator" in err


@pytest.mark.parametrize("obj, field", [
    ({"trunc": 2}, "entries"),
    ({"trunc": 1, "entries": [{}]}, "terms"),
    ({"trunc": 1, "entries": [{"terms": [{"word": ["x1"]}]}]}, "coeff"),
    ({"trunc": 1, "entries": [{"terms": [{"coeff": "lam"}]}]}, "word"),
    ({"entries": [{"terms": []}]}, "trunc"),
    ({"trunc": 3, "entries": [{"terms": []}, {"terms": []}]}, "trunc"),
    ({"trunc": True, "entries": [{"terms": []}]}, "trunc"),
])
def test_psi_malformed_json_exit_2(capsys, tmp_path, obj, field):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "psi", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: config:")
    assert repr(field) in err


WORD_21 = ["x1", "x2"] * 10 + ["x1"]


def test_phi_explosive_image_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--trunc", "40", "[" + "|".join(WORD_21) + "]")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: config: the image at truncation 40 would build")


def test_psi_explosive_reconstruction_exit_2(capsys, tmp_path):
    # entry 21 holds lam^20 times a 21-factor word: C(40, 21) chains to subtract
    entries = [{"terms": []} for _ in range(40)]
    entries[20] = {"terms": [{"coeff": "lam^20", "word": WORD_21}]}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"trunc": 40, "entries": entries}))
    start = time.perf_counter()
    code, out, err = run(capsys, "psi", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: config: reconstruction at truncation 40 would build")


def test_phi_trunc_40_short_word_runs(capsys):
    # C(40, 3) = 9,880 chains, under the limit
    code, out, _ = run(capsys, "phi", "--trunc", "40", "[x1|x2|x1]")
    assert code == 0
    assert out.startswith("lam^2*(x1|x2|x1) g3 + (lam^2*(x1|x2|1|x1) + ")
    assert out.count(" g") == 38


def test_psi_empty_trunc_400_builds_no_weight_powers(capsys, tmp_path):
    # no entry is peeled, so no weight power is built; all 400 take about a second
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"trunc": 400, "entries": [{"terms": []}] * 400}))
    start = time.perf_counter()
    code, out, err = run(capsys, "psi", "--weight", "lam + 1", str(path))
    assert time.perf_counter() - start < 0.25
    assert (code, out, err) == (0, "0\n", "")
