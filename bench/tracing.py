"""Span tracing around the library's public boundaries, installed from outside.

The tracer wraps functions and methods of the already imported ``freebaxter``
modules; the library itself is not modified. A function imported by name into
several modules (``shuffle_product`` lives in ``completion``, ``exprparse`` and
``cli`` too) is replaced in every module that binds it.

Three kinds of boundary:

- ``span``: timed; every call is kept as a span record (id, parent, name,
  start, end) and written out when the run ends.
- ``hot``: timed the same way, but only aggregated (calls and self time),
  because these run up to millions of times per run.
- ``count``: call count only (monomial multiply and hash).

A span's self time is its duration minus the time of its timed children.
Nothing is recorded unless ``active`` is set, which the worker does only
around the timed operations. A boundary that cannot be found in the library
reports its metrics as absent (``None``), not zero.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter

SPAN, HOT, COUNT = "span", "hot", "count"

# (metric prefix, kind, module, class or None, attributes)
BOUNDARIES = [
    ("coeffring.poly_mul", HOT, "coeffring", "Polynomial", ("__mul__", "__rmul__")),
    ("coeffring.poly_pow", HOT, "coeffring", "Polynomial", ("__pow__",)),
    ("coeffring.mono_mul", COUNT, "coeffring", "Monomial", ("__mul__",)),
    ("coeffring.mono_hash", COUNT, "coeffring", "Monomial", ("__hash__",)),
    ("coeffring.exact_div", HOT, "coeffring", None, ("poly_exact_div",)),
    ("coeffring.parse", HOT, "coeffring", None, ("parse_polynomial",)),
    ("words.add", HOT, "words", "ShuffleElement", ("__add__",)),
    ("words.add", HOT, "words", "AbarElement", ("__add__",)),
    ("words.abar_mul", HOT, "words", "AbarElement", ("__mul__",)),
    ("words.print", SPAN, "words", "ShuffleElement", ("__str__", "to_json_obj")),
    ("words.print", SPAN, "words", "AbarElement", ("__str__", "to_json_obj")),
    ("mixshuffle.word_product", SPAN, "mixshuffle", None, ("word_product",)),
    ("mixshuffle.shuffle_product", SPAN, "mixshuffle", None, ("shuffle_product",)),
    ("mixshuffle.extend_hom", SPAN, "mixshuffle", None, ("extend_hom",)),
    ("completion.complete_mul", SPAN, "completion", None, ("complete_mul",)),
    ("standard.to_standard", SPAN, "standard", None, ("to_standard",)),
    ("standard.from_standard", SPAN, "standard", None, ("from_standard",)),
    ("exprparse.parse_expr", SPAN, "exprparse", None, ("parse_expr",)),
    ("exprparse.eval_expr", SPAN, "exprparse", None, ("eval_expr",)),
    ("cli.main", SPAN, "cli", None, ("main",)),
]

# per-layer metric name -> unit; the order is the order printed
LAYER_METRICS = {
    "coeffring.poly_mul.calls": "count",
    "coeffring.poly_mul.self_s": "s",
    "coeffring.mono_mul.calls": "count",
    "coeffring.mono_hash.calls": "count",
    "coeffring.poly_pow.calls": "count",
    "coeffring.exact_div.calls": "count",
    "coeffring.exact_div.self_s": "s",
    "coeffring.parse.self_s": "s",
    "words.add.calls": "count",
    "words.add.self_s": "s",
    "words.add.terms_copied": "count",
    "words.abar_mul.calls": "count",
    "words.abar_mul.self_s": "s",
    "words.abar_mul.term_pairs": "count",
    "words.print.self_s": "s",
    "mixshuffle.word_product.calls": "count",
    "mixshuffle.word_product.self_s": "s",
    "mixshuffle.word_product.mixable_shuffles": "count",
    "mixshuffle.word_product.output_terms": "count",
    "mixshuffle.word_product.useful_ratio": "ratio",
    "mixshuffle.word_product.distinct_keys": "count",
    "mixshuffle.shuffle_product.calls": "count",
    "mixshuffle.shuffle_product.self_s": "s",
    "mixshuffle.extend_hom.self_s": "s",
    "completion.complete_mul.calls": "count",
    "completion.complete_mul.self_s": "s",
    "completion.complete_mul.inner_products": "count",
    "completion.complete_mul.inner_terms": "count",
    "completion.complete_mul.kept_terms": "count",
    "completion.complete_mul.kept_ratio": "ratio",
    "completion.busy_share": "ratio",
    "standard.to_standard.calls": "count",
    "standard.to_standard.self_s": "s",
    "standard.from_standard.calls": "count",
    "standard.from_standard.self_s": "s",
    "standard.from_standard.inner_to_standard_calls": "count",
    "standard.busy_share": "ratio",
    "exprparse.parse_expr.self_s": "s",
    "exprparse.eval_expr.self_s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.ops": "count",
    "trace.busy_s": "s",
    "trace.untraced_busy_s": "s",
    "trace.overhead_s": "s",
}

COUNTED = {name for name, kind, *_ in BOUNDARIES if kind == COUNT}


def mixable_count(m: int, n: int) -> int:
    """Number of mixable (m,n)-shuffles: sum over k of C(m+n-k,n)*C(n,k)."""
    return sum(math.comb(m + n - k, n) * math.comb(n, k) for k in range(min(m, n) + 1))


def _size(elem) -> int:
    return len(elem.terms())


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.layer_depth: dict[str, int] = defaultdict(int)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.word_products: list[tuple] = []
        self.busy_s = 0.0
        self._ids = 0
        # counters computed from a boundary's inputs and outputs
        self._after = {
            "words.add": self._count_add,
            "words.abar_mul": self._count_abar_mul,
            "mixshuffle.word_product": self._count_word_product,
            "mixshuffle.shuffle_product": self._count_shuffle_product,
            "completion.complete_mul": self._count_complete_mul,
        }

    # -- the timed operation ---------------------------------------------------

    def op_begin(self) -> None:
        self._ids += 1
        self.stack.append(["op", 0.0, self._ids, perf_counter()])
        self.active = True

    def op_end(self) -> None:
        end = perf_counter()
        self.active = False
        frame = self.stack.pop()
        self.spans.append((frame[2], -1, "op", frame[3], end))
        self.busy_s += end - frame[3]

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn, record: bool):
        stats = self.stats.setdefault(name, [0, 0.0])
        layer = name.split(".")[0]
        after = self._after.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            frame = [name, 0.0, 0]
            if record:
                tracer._ids += 1
                frame[2] = tracer._ids
            depth = tracer.layer_depth
            outer = depth[layer] == 0
            depth[layer] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                parent[1] += dur
                if outer:
                    tracer.layer_s[layer] += dur
                if record:
                    tracer.spans.append((frame[2], parent[2], name, start, end))
                    tracer.edges[(parent[0], name)] += 1
            if after is not None:
                after(args, result, parent[0])
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args):
            if tracer.active:
                counts[name] += 1
            return fn(*args)

        return wrapper

    # -- counters --------------------------------------------------------------

    def _count_add(self, args, result, parent):
        self.counts["words.add.terms_copied"] += _size(args[0])

    def _count_abar_mul(self, args, result, parent):
        left, right = args
        if hasattr(right, "terms"):
            self.counts["words.abar_mul.term_pairs"] += _size(left) * _size(right)

    def _count_word_product(self, args, result, parent):
        self.word_products.append((args[0], args[1], args[2], _size(result)))

    def _count_shuffle_product(self, args, result, parent):
        if parent == "completion.complete_mul":
            self.counts["completion.complete_mul.inner_terms"] += _size(result)

    def _count_complete_mul(self, args, result, parent):
        self.counts["completion.complete_mul.kept_terms"] += sum(
            _size(result.component(k)) for k in range(result.trunc)
        )

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "freebaxter") -> None:
        """Wrap every boundary in BOUNDARIES; record the ones not found."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        for name, kind, module, cls_name, attrs in BOUNDARIES:
            owner = modules.get(f"{package}.{module}")
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            originals = [getattr(owner, attr, None) for attr in attrs]
            if owner is None or any(orig is None for orig in originals):
                self.missing.add(name)
                continue
            wrapped: dict[int, object] = {}
            for attr, orig in zip(attrs, originals):
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = (
                        self._counted(name, orig) if kind == COUNT
                        else self._timed(name, orig, kind == SPAN)
                    )
                if cls_name is not None:
                    setattr(owner, attr, wrapped[id(orig)])
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped[id(orig)])

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float | int | None]:
        """Every per-layer metric this process can measure; None if absent."""
        out: dict[str, float | int | None] = {}

        def stat(name: str, field: int):
            if name in self.missing:
                return None
            return self.stats.get(name, [0, 0.0])[field]

        def count(boundary: str, key: str | None = None):
            if boundary in self.missing:
                return None
            return self.counts.get(key or boundary, 0)

        for metric in LAYER_METRICS:
            boundary, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = count(boundary) if boundary in COUNTED else stat(boundary, 0)
            elif field == "self_s":
                out[metric] = stat(boundary, 1)
        out["words.add.terms_copied"] = count("words.add", "words.add.terms_copied")
        out["words.abar_mul.term_pairs"] = count("words.abar_mul", "words.abar_mul.term_pairs")

        wp = "mixshuffle.word_product"
        if wp in self.missing:
            for key in ("mixable_shuffles", "output_terms", "useful_ratio", "distinct_keys"):
                out[f"{wp}.{key}"] = None
        else:
            shuffles = sum(
                mixable_count(str(x).count("|"), str(y).count("|"))
                for x, y, _, _ in self.word_products
            )
            terms = sum(t for _, _, _, t in self.word_products)
            out[f"{wp}.mixable_shuffles"] = shuffles
            out[f"{wp}.output_terms"] = terms
            out[f"{wp}.useful_ratio"] = terms / shuffles if shuffles else 0.0
            out[f"{wp}.distinct_keys"] = len(
                {(str(x), str(y), str(w)) for x, y, w, _ in self.word_products}
            )

        cm = "completion.complete_mul"
        if cm in self.missing:
            for key in ("inner_products", "inner_terms", "kept_terms", "kept_ratio"):
                out[f"{cm}.{key}"] = None
        else:
            inner = self.counts.get(f"{cm}.inner_terms", 0)
            kept = self.counts.get(f"{cm}.kept_terms", 0)
            out[f"{cm}.inner_products"] = self.edges.get((cm, "mixshuffle.shuffle_product"), 0)
            out[f"{cm}.inner_terms"] = inner
            out[f"{cm}.kept_terms"] = kept
            out[f"{cm}.kept_ratio"] = kept / inner if inner else 0.0

        fs = "standard.from_standard"
        out[f"{fs}.inner_to_standard_calls"] = (
            None if fs in self.missing or "standard.to_standard" in self.missing
            else self.edges.get((fs, "standard.to_standard"), 0)
        )
        for layer in ("completion", "standard"):
            out[f"{layer}.busy_share"] = (
                self.layer_s.get(layer, 0.0) / self.busy_s if self.busy_s else 0.0
            )
        return out

    def write_spans(self, path) -> None:
        """Write the span records as JSON lines, times relative to the first op."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")
