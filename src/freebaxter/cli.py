"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse/config error,
3 domain error (not in image, not divisible, ...).
"""

from __future__ import annotations

import argparse
import sys

from .coeffring import Weight, parse_scalar
from .completion import MAX_PRODUCT_UNITS, CompleteElement, HurwitzSeries, complete_mul
from .errors import ExprSyntaxError, FreeBaxterError
from .exprparse import eval_expr, parse_expr
from .mixshuffle import (
    ShuffleSelfTarget,
    baxter_identity_holds,
    mixable_counts,
    shuffle_product,
    unit_power_product,
    unit_word,
    word_product,
)
from .standard import StandardElement, from_standard, to_standard

DEFAULT_GENS = "x1,x2,x3,x4"


def _add_common(parser: argparse.ArgumentParser, output: bool = True) -> None:
    parser.add_argument("--weight", default="lam",
                        help="weight polynomial in the coefficient namespace, naming no "
                             "generator (default: lam)")
    parser.add_argument("--gens", default=DEFAULT_GENS,
                        help="comma-separated generator names")
    if output:
        parser.add_argument("--output", choices=("text", "json"), default="text")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freebaxter",
        description="Exact free Baxter algebra computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to a shuffle element")
    _add_common(p)
    p.add_argument("expr")

    p = sub.add_parser("phi", help="map an expression into the sequence algebra")
    _add_common(p)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("expr")

    p = sub.add_parser("psi", help="reconstruct a shuffle element from sequence JSON")
    _add_common(p)
    p.add_argument("file", help="path to StandardElement JSON, or - for stdin")

    p = sub.add_parser("count-shuffles", help="count (m,n)-shuffles or mixable shuffles")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--mixable", action="store_true")

    p = sub.add_parser("unit-product",
                       help="closed form vs the recursive product for the all-unit words")
    _add_common(p)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("hurwitz-mul", help="binomial convolution of two truncated series")
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("complete-mul", help="product of residue classes at a truncation")
    _add_common(p, output=False)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("baxter-check",
                       help="randomized Baxter-identity and associativity suite")
    _add_common(p, output=False)
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--max-len", type=_at_least(1), default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-weight", default=None,
                   help="weight used inside the identity being checked "
                        "(defaults to --weight; a different value must fail)")
    return parser


def _gens_list(args) -> list[str]:
    return [g for g in (s.strip() for s in args.gens.split(",")) if g]


def _weight(args, text: str | None = None) -> Weight:
    """The weight ``--weight`` (or ``text``) names; a symbol that is also a
    declared generator is refused."""
    text = args.weight if text is None else text
    return Weight.of(parse_scalar(text, _gens_list(args), "weight"))


def _emit_element(elem, args) -> None:
    if args.output == "json":
        import json

        print(json.dumps(elem.to_json_obj()))
    else:
        print(elem)


def _cmd_eval(args) -> int:
    elem = eval_expr(parse_expr(args.expr, _gens_list(args)), _weight(args))
    _emit_element(elem, args)
    return 0


def _cmd_phi(args) -> int:
    weight = _weight(args)
    elem = eval_expr(parse_expr(args.expr, _gens_list(args)), weight)
    seq = to_standard(elem, args.trunc, weight)
    _emit_element(seq, args)
    return 0


def _cmd_psi(args) -> int:
    import json

    if args.file == "-":
        obj = json.load(sys.stdin)
    else:
        with open(args.file) as handle:
            obj = json.load(handle)
    seq = StandardElement.from_json_obj(obj, _gens_list(args))
    elem = from_standard(seq, _weight(args))
    _emit_element(elem, args)
    return 0


def _cmd_count_shuffles(args) -> int:
    counts = mixable_counts(args.m, args.n)
    if args.mixable:
        print(f"total: {sum(counts.values())}")
        print("histogram: {" + ", ".join(f"{k}: {c}" for k, c in counts.items()) + "}")
    else:
        print(f"total: {counts[0]}")
    return 0


def _cmd_unit_product(args) -> int:
    # the check's table has (m+1)(n+1) cells of at most min(m, n)+1 words each
    m, n = args.m, args.n
    units = (m + 1) * (n + 1) * (min(m, n) + 1)
    if min(m, n) >= 0 and units > MAX_PRODUCT_UNITS:
        raise ValueError(
            f"the unit product {m} {n} would take up to {units:,} work units, "
            f"over the limit of {MAX_PRODUCT_UNITS:,}"
        )
    weight = _weight(args)
    closed = unit_power_product(m, n, weight)
    product = word_product(unit_word(m + 1), unit_word(n + 1), weight)
    _emit_element(closed, args)
    agree = closed == product
    print(f"agree: {'true' if agree else 'false'}")
    return 0 if agree else 1


def _cmd_hurwitz_mul(args) -> int:
    def load(text: str) -> HurwitzSeries:
        series = HurwitzSeries.parse(text)
        if series.trunc != args.trunc:
            entries = list(series.entries)[: args.trunc]
            entries += [0] * (args.trunc - len(entries))
            series = HurwitzSeries(entries)
        return series

    print(load(args.left) * load(args.right))
    return 0


def _cmd_complete_mul(args) -> int:
    weight = _weight(args)
    gens = _gens_list(args)
    left = CompleteElement.from_element(eval_expr(parse_expr(args.left, gens), weight), args.trunc)
    right = CompleteElement.from_element(eval_expr(parse_expr(args.right, gens), weight), args.trunc)
    product = complete_mul(left, right, weight)
    print(f"trunc: {args.trunc}")
    print(product)
    return 0


def _cmd_baxter_check(args) -> int:
    import random

    from .randgen import RNG_ALGORITHM, random_shuffle_element

    weight = _weight(args)
    check_weight = weight if args.check_weight is None else _weight(args, args.check_weight)
    gens = _gens_list(args)
    target = ShuffleSelfTarget(weight)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        u = random_shuffle_element(rng, gens, max_len=args.max_len)
        v = random_shuffle_element(rng, gens, max_len=args.max_len)
        w = random_shuffle_element(rng, gens, max_len=args.max_len)
        if not baxter_identity_holds(target, u, v, lam=check_weight.value):
            failures += 1
            continue
        uv = shuffle_product(u, v, weight)
        left = shuffle_product(uv, w, weight)
        right = shuffle_product(u, shuffle_product(v, w, weight), weight)
        if left != right or uv != shuffle_product(v, u, weight):
            failures += 1
    print(f"rng: {RNG_ALGORITHM} seed={args.seed}")
    print(f"trials: {args.trials}")
    print(f"failures: {failures}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "phi": _cmd_phi,
    "psi": _cmd_psi,
    "count-shuffles": _cmd_count_shuffles,
    "unit-product": _cmd_unit_product,
    "hurwitz-mul": _cmd_hurwitz_mul,
    "complete-mul": _cmd_complete_mul,
    "baxter-check": _cmd_baxter_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ExprSyntaxError as exc:
        print(f"error: syntax: {exc}", file=sys.stderr)
        return 2
    except FreeBaxterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input: nests deeper than the interpreter's recursion limit", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
