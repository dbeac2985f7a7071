"""Canonical outputs match the digests the benchmark stores.

Runs the first block of every benchmark workload at the default seed and
compares the SHA-256 of each output's text with ``bench/golden/<workload>.json``.
The digests are written only by ``python3 bench/run.py --write-golden``; this
test reads them and ``bench/workloads.py``, and changes neither.
"""

import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

import freebaxter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_block_matches_golden_digests(name):
    golden = json.loads((BENCH / "golden" / f"{name}.json").read_text())
    assert golden["seed"] == workloads.DEFAULT_SEED
    wl = workloads.make(name, freebaxter, workloads.DEFAULT_SEED, str(ROOT))
    for op in itertools.islice(wl.ops(), wl.block_size):
        text = wl.text(op, wl.run(op))
        assert hashlib.sha256(text.encode()).hexdigest() == golden["digests"][op.index], op.spec
