"""The four seeded workloads: input generation, the timed operation, checks.

Every workload is an endless, fixed, ordered list of operations made from the
seed alone. Operations come in blocks; a block holds every operation class of
the workload once, in a seeded order. Every run therefore draws the same mix
of sizes, whatever the seed, which keeps run-to-run spread small. Within one
run no operation repeats: a weight parameter grows with the block number, or
the random inputs are checked against the ones already drawn.

Inputs are built through the public text grammar (``parse_expr`` and
``eval_expr``), and outputs are read through ``terms()`` and their canonical
text, so the benchmark does not depend on how the library stores words or
monomials. Library functions are looked up on the package at call time, so a
tracer installed after construction still sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys

DEFAULT_SEED = 0
GENS = ("x1", "x2", "x3", "x4")
COEFFS = (1, -1, 2, -2, 3)
# every generator monomial of degree 1 or 2, as canonical text: the eight
# in one variable, then the six in two
SINGLE = GENS + tuple(f"{g}^2" for g in GENS)
MIXED = tuple(f"{a}*{b}" for a, b in itertools.combinations(GENS, 2))
MONOMIALS = SINGLE + MIXED
WEIGHT_SHAPES = ("lam", "int", "lam+")


def weight_text(shape: str, a: int) -> str:
    """The a-th weight of a family; a = 1 gives lam, 2 and lam + 1."""
    if shape == "lam":
        return "lam" if a == 1 else f"{a}*lam"
    if shape == "int":
        return str(a + 1)
    return f"lam + {a}"


def word_text(factors) -> str:
    return "[" + "|".join(factors) + "]"


def sum_text(rng: random.Random, words) -> str:
    """A linear combination of distinct words with nonzero coefficients; the
    grammar has binary minus only, so the first coefficient is positive."""
    parts = []
    for i, word in enumerate(words):
        c = rng.choice(COEFFS[::2] if i == 0 else COEFFS)
        if i == 0:
            parts.append(f"{c}*{word}")
        else:
            parts.append(f" {'-' if c < 0 else '+'} {abs(c)}*{word}")
    return "".join(parts)


def mono_value(text: str, values: dict[str, int]) -> int:
    value = 1
    if text == "1":
        return value
    for part in text.split("*"):
        name, _, exp = part.partition("^")
        value *= values[name] ** int(exp or 1)
    return value


def collapse(elem, values: dict[str, int]) -> dict:
    """Image of a shuffle element under the Baxter homomorphism induced by
    evaluating each generator at an integer: every word goes to the all-unit
    word of its length, times the product of its evaluated factors. Returns
    {word length: coefficient}, zero coefficients dropped."""
    out: dict = {}
    for word, coeff in elem.terms():
        factors = str(word)[1:-1].split("|")
        value = 1
        for f in factors:
            value *= mono_value(f, values)
        out[len(factors)] = out.get(len(factors), 0) + coeff * value
    return {k: c for k, c in out.items() if c != 0}


class Op:
    """One operation: ``spec`` describes it (JSON-able), ``inputs`` are the
    prepared library objects the timed call receives."""

    __slots__ = ("index", "spec", "inputs")

    def __init__(self, index: int, spec, inputs):
        self.index = index
        self.spec = spec
        self.inputs = inputs


class Workload:
    name = ""
    # operations per block; a timed run ends on a block boundary
    block_size = 0

    def __init__(self, fb, seed: int):
        self.fb = fb
        self.rng = random.Random(f"{self.name}:{seed}")
        self.check_rng = random.Random(f"{self.name}:check:{seed}")
        self._lam = fb.Weight.of(fb.parse_polynomial("lam"))

    def weight(self, text: str):
        return self.fb.Weight.of(self.fb.parse_polynomial(text))

    def element(self, text: str):
        return self.fb.eval_expr(self.fb.parse_expr(text, GENS), self._lam)

    def ops(self):
        index = 0
        for block in itertools.count():
            for op in self.block(block):
                yield Op(index, *op)
                index += 1

    def block(self, block: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def text(self, op, out) -> str:
        return str(out)

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def mutate(self, out):
        return out + self.element("[1]")

    def values(self) -> dict[str, int]:
        """Generator values for collapse(); drawn from a wide range, so that
        an input element collapses to zero (which would let any output
        pass) only with negligible probability."""
        return {g: self.check_rng.randint(2, 1000) for g in GENS}

    def expected_product(self, pairs, values, weight, keep=None) -> dict:
        """collapse() of a sum of products, computed from the closed form for
        all-unit words: pairs of (collapse(u), collapse(v))."""
        total: dict = {}
        for cu, cv in pairs:
            for lu, a in cu.items():
                for lv, b in cv.items():
                    closed = self.fb.unit_power_product(lu - 1, lv - 1, weight)
                    for length, c in collapse(closed, values).items():
                        if keep is None or length <= keep:
                            total[length] = total.get(length, 0) + a * b * c
        return {k: c for k, c in total.items() if c != 0}


class UnitWords(Workload):
    """word_product of two all-unit words; the output is tiny while every
    mixable shuffle is enumerated."""

    name = "unit_words"
    # m, n in 3..6 without m = n = 6: with it, the 90th percentile fell in
    # the gap between the (6, 5) and the (6, 6) products
    CLASSES = tuple(
        (m, n, shape)
        for m in range(3, 7) for n in range(3, 7) if m + n <= 11
        for shape in WEIGHT_SHAPES
    )
    block_size = len(CLASSES)

    def __init__(self, fb, seed):
        super().__init__(fb, seed)
        self._words = {m: next(iter(self.element(word_text(["1"] * (m + 1))).terms()))[0]
                       for m in range(3, 7)}

    def block(self, block):
        classes = list(self.CLASSES)
        self.rng.shuffle(classes)
        for m, n, shape in classes:
            w = weight_text(shape, block + 1)
            yield {"m": m, "n": n, "weight": w}, (self._words[m], self._words[n], self.weight(w))

    def run(self, op):
        return self.fb.word_product(*op.inputs)

    def check(self, op, out):
        return out == self.fb.unit_power_product(op.spec["m"], op.spec["n"], op.inputs[2])


class DistinctWords(Workload):
    """shuffle_product of elements whose word pairs have distinct factors; the
    cost is bounded by output size."""

    name = "distinct_words"
    # one block; its latencies sort as 4 cheap shapes, the median pair, two
    # above it and the 90th-percentile pair, so both quantiles fall inside a
    # shape rather than between two
    SHAPES = (
        ((3,), (3,)),
        ((3,), (4,)),
        ((3, 3, 4), (3,)),
        ((3, 4), (4,)),
        ((4,), (5,)),
        ((4,), (5,)),
        ((3, 5), (3, 4)),
        ((4, 4), (5,)),
        ((5,), (5,)),
        ((5,), (5,)),
    )
    block_size = len(SHAPES)

    def __init__(self, fb, seed):
        super().__init__(fb, seed)
        self._pairs: set = set()

    def _side(self, single, mixed, degrees):
        """Distinct words; every word of a given degree has the same number
        of two-variable factors, which keeps the cost of a shape steady."""
        words = []
        while len(words) < len(degrees):
            length = degrees[len(words)] + 1
            factors = self.rng.sample(mixed, length // 2) + self.rng.sample(single, length - length // 2)
            self.rng.shuffle(factors)
            if word_text(factors) not in words:
                words.append(word_text(factors))
        return words

    def block(self, block):
        shapes = list(self.SHAPES)
        self.rng.shuffle(shapes)
        for udeg, vdeg in shapes:
            while True:
                single, mixed = list(SINGLE), list(MIXED)
                self.rng.shuffle(single)
                self.rng.shuffle(mixed)
                # the two sides draw from disjoint halves, so every word pair
                # multiplied has distinct factors
                uw = self._side(single[:4], mixed[:3], udeg)
                vw = self._side(single[4:], mixed[3:], vdeg)
                pairs = {(a, b) for a in uw for b in vw}
                if not pairs & self._pairs:
                    break
            self._pairs |= pairs
            u, v = sum_text(self.rng, uw), sum_text(self.rng, vw)
            yield {"u": u, "v": v}, (self.element(u), self.element(v), self._lam)

    def run(self, op):
        return self.fb.shuffle_product(*op.inputs)

    def check(self, op, out):
        values = self.values()
        u, v, w = op.inputs
        expected = self.expected_product([(collapse(u, values), collapse(v, values))], values, w)
        return collapse(out, values) == expected


class Series(Workload):
    """complete_mul of two truncated classes, then to_standard and back with
    from_standard: the one workload where completion and standard work."""

    name = "series"
    # (truncation, degrees present in x, degrees present in y)
    SHAPES = (
        (4, (0, 3), (1, 3)),
        (5, (1, 4), (0, 3)),
        (5, (0, 4), (1, 4)),
        (6, (0, 5), (1, 4)),
        (6, (1, 5), (0, 5)),
    )
    WEIGHTS = ("lam", "lam + 1", "2")
    FACTORS = ("1", "x1", "x2", "x3")
    block_size = len(SHAPES) * len(WEIGHTS)

    def __init__(self, fb, seed):
        super().__init__(fb, seed)
        self._seen: set = set()

    def _class(self, trunc, degrees):
        words = [word_text(self.rng.choice(self.FACTORS) for _ in range(d + 1)) for d in degrees]
        text = sum_text(self.rng, words)
        return text, self.fb.CompleteElement.from_element(self.element(text), trunc)

    def block(self, block):
        classes = [(s, w) for s in self.SHAPES for w in self.WEIGHTS]
        self.rng.shuffle(classes)
        for (trunc, xdeg, ydeg), w in classes:
            while True:
                xt, x = self._class(trunc, xdeg)
                yt, y = self._class(trunc, ydeg)
                if (xt, yt, w) not in self._seen:
                    break
            self._seen.add((xt, yt, w))
            spec = {"trunc": trunc, "x": xt, "y": yt, "weight": w}
            yield spec, (x, y, self.weight(w))

    def run(self, op):
        x, y, w = op.inputs
        fb = self.fb
        product = fb.complete_mul(x, y, w)
        flat = product.partial_sum(product.trunc - 1)
        seq = fb.to_standard(flat, product.trunc, w)
        return product, seq, fb.from_standard(seq, w), flat

    def text(self, op, out):
        product, seq, back, _ = out
        return f"{product}\n{seq}\n{back}"

    def check(self, op, out):
        product, _, back, flat = out
        if back != flat:
            return False
        x, y, w = op.inputs
        values = self.values()
        trunc = op.spec["trunc"]
        pairs = [
            (collapse(x.component(i), values), collapse(y.component(j), values))
            for i in range(trunc) for j in range(trunc)
        ]
        return collapse(flat, values) == self.expected_product(pairs, values, w, keep=trunc)

    def mutate(self, out):
        product, seq, back, flat = out
        return product, seq, back + self.element("[1]"), flat


class Cli(Workload):
    """Subprocess invocations of the command line, one at a time."""

    name = "cli"
    # sorted by latency: the median falls between two of the three evals,
    # the 90th percentile between the two phi | psi pipelines
    KINDS = (
        "unit", "unit", "baxter", "complete", "eval", "eval", "eval", "eval_large",
        "pipe", "pipe",
    )
    block_size = len(KINDS)

    def __init__(self, fb, seed, root, inprocess=False):
        super().__init__(fb, seed)
        self.root = root
        self.inprocess = inprocess
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._seen: set = set()

    def _words(self, *degrees):
        pool = list(MONOMIALS)
        self.rng.shuffle(pool)
        words, start = [], 0
        for d in degrees:
            words.append(word_text(pool[start:start + d + 1]))
            start += d + 1
        return words

    def block(self, block):
        kinds = list(self.KINDS)
        self.rng.shuffle(kinds)
        for kind in kinds:
            while True:
                spec, steps = self._op(kind, block)
                key = tuple(map(tuple, steps))
                if key not in self._seen:
                    break
            self._seen.add(key)
            yield spec, steps

    def _op(self, kind, block):
        w = weight_text(self.rng.choice(WEIGHT_SHAPES), block + 1)
        common = ["--weight", w]
        if kind == "unit":
            m, n = self.rng.randint(1, 4), self.rng.randint(1, 4)
            steps = [["unit-product", *common, str(m), str(n)]]
            spec = {"kind": kind, "m": m, "n": n}
        elif kind == "complete":
            a, b, c, d = self._words(0, 2, 1, 3)
            left, right = f"{a} + {b}", f"{c} + P({d})"
            steps = [["complete-mul", *common, "--trunc", "5", left, right]]
            spec = {"kind": kind, "left": left, "right": right, "trunc": 5}
        elif kind in ("eval", "eval_large"):
            if kind == "eval":
                a, b, c = self._words(3, 3, 3)
                expr = f"({a} + 2*{b}) * {c}"
            else:
                a, b = self._words(3, 4)
                expr = f"P({a}) * {b}"
            steps = [["eval", *common, expr]]
            spec = {"kind": kind, "expr": expr}
        elif kind == "pipe":
            a, b = self._words(2, 1)
            expr = f"{a} * {b}"
            steps = [["phi", *common, "--output", "json", "--trunc", "4", expr],
                     ["psi", *common, "-"]]
            spec = {"kind": kind, "expr": expr}
        else:
            seed = self.rng.randrange(10**9)
            steps = [["baxter-check", *common, "--trials", "1", "--max-len", "3",
                      "--seed", str(seed)]]
            spec = {"kind": kind, "seed": seed}
        spec["weight"] = w
        return spec, steps

    def run(self, op):
        outs = []
        stdin = ""
        for argv in op.inputs:
            if self.inprocess:
                code, stdout = self._main(argv, stdin)
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "freebaxter.cli", *argv],
                    input=stdin, capture_output=True, text=True,
                    cwd=self.root, env=self.env, timeout=120,
                )
                code, stdout = proc.returncode, proc.stdout
            outs.append((code, stdout))
            stdin = stdout
        return outs

    def _main(self, argv, stdin):
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.fb.cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, buf.getvalue()

    def text(self, op, out):
        return "".join(f"exit {code}\n{stdout}" for code, stdout in out)

    def check(self, op, out):
        if any(code != 0 for code, _ in out):
            return False
        spec, fb = op.spec, self.fb
        w = self.weight(spec["weight"])
        stdout = out[-1][1]
        kind = spec["kind"]
        if kind == "unit":
            closed = fb.unit_power_product(spec["m"], spec["n"], w)
            return stdout == f"{closed}\nagree: true\n"
        if kind == "baxter":
            return stdout.endswith("trials: 1\nfailures: 0\n")
        if kind == "complete":
            left, right = (
                fb.CompleteElement.from_element(
                    fb.eval_expr(fb.parse_expr(t, GENS), w), spec["trunc"])
                for t in (spec["left"], spec["right"])
            )
            return stdout == f"trunc: {spec['trunc']}\n{fb.complete_mul(left, right, w)}\n"
        # eval, and the phi | psi round trip, must print what eval prints
        return stdout == f"{fb.eval_expr(fb.parse_expr(spec['expr'], GENS), w)}\n"

    def mutate(self, out):
        code, stdout = out[-1]
        return out[:-1] + [(code, stdout + "+ [1]\n")]


def make(name: str, fb, seed: int, root: str, inprocess: bool = False) -> Workload:
    if name == "cli":
        return Cli(fb, seed, root, inprocess)
    return {"unit_words": UnitWords, "distinct_words": DistinctWords, "series": Series}[name](fb, seed)


NAMES = ("unit_words", "distinct_words", "series", "cli")
