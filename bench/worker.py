"""One benchmark process: import the library, build a workload, run it.

Started by run.py, one fresh interpreter per run, so the library's
module-level caches start cold. Prints ``ready`` once the library is imported
and the first operation is prepared, then, unless the mode is ``setup``, one
JSON line with the results.

Modes:
  setup      exit right after ``ready`` (set-up time probes)
  run        timed operations until --seconds of busy time and --min-ops ops,
             ending on a block boundary so every run has the same mix
  trace-ref  --ops operations, untraced, digests of every output
  trace      the same operations with the tracer installed
  golden     --ops operations at the default seed; write their digests
  self-test  feed one correct and one altered output through the checks

An operation fails if it raises, or its output does not match the stored
digest (default seed) or fails the workload's independent check (any other
seed, or past the stored digests). Checks run outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"
# stop a run that has not finished after this much wall time, so that the
# process exits well inside the 180 s a run may take
WALL_CAP_S = 110.0


def load_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import freebaxter
    import freebaxter.cli  # noqa: F401  (the traced cli workload calls cli.main)

    if Path(freebaxter.__file__).resolve().parent != (src / "freebaxter").resolve():
        raise SystemExit(f"freebaxter imported from {freebaxter.__file__}, not from {src}")
    return freebaxter


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(workload: str, seed: int, default_seed: int):
    path = GOLDEN / f"{workload}.json"
    if seed != default_seed or not path.is_file():
        return None
    return json.loads(path.read_text())["digests"]


def verify(wl, op, out, golden, want_digest):
    """(passed, digest or None, reason)."""
    digest = sha(wl.text(op, out)) if want_digest or golden is not None else None
    if golden is not None and op.index < len(golden):
        return digest == golden[op.index], digest, "digest mismatch"
    return bool(wl.check(op, out)), digest, "check failed"


def self_test(wl, op, golden) -> dict:
    """Run one operation, then count failures over its real and an altered
    output, by digest (when stored) and by the independent check."""
    out = wl.run(op)
    report = {}
    paths = {"check": None} if golden is None else {"digest": golden, "check": None}
    for path, gold in paths.items():
        failed = 0
        for candidate in (out, wl.mutate(out)):
            passed, _, _ = verify(wl, op, candidate, gold, False)
            failed += not passed
        report[path] = failed
    return {"self_test": report, "ok": all(v == 1 for v in report.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace-ref", "trace", "golden", "self-test"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--ops", type=int, default=0, help="fixed operation count (0: timed)")
    args = parser.parse_args(argv)

    fb = load_library()
    import tracing
    import workloads

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    inprocess = args.mode in ("trace", "trace-ref")
    wl = workloads.make(args.workload, fb, args.seed, str(ROOT), inprocess)
    ops = wl.ops()
    op = next(ops)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    golden = load_golden(args.workload, args.seed, workloads.DEFAULT_SEED)
    if args.mode == "golden":
        golden = None
    if args.mode == "self-test":
        print(json.dumps(self_test(wl, op, golden)))
        return 0

    want_digest = args.mode != "run"
    children = args.workload == "cli" and not inprocess
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    # peak memory is read after a fixed number of whole blocks, so that it
    # does not grow with the number of operations a fast run completes
    rss_ops = -(-max(args.min_ops, 1) // wl.block_size) * wl.block_size
    maxrss_kb = None
    latencies, digests, failures = [], [], []
    stdout_bytes = 0
    busy = 0.0
    wall0 = perf_counter()
    while True:
        if tracer:
            tracer.op_begin()
        start = perf_counter()
        try:
            out = wl.run(op)
            error = None
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        if tracer:
            tracer.op_end()
        latencies.append(elapsed)
        busy += elapsed
        if error is None:
            try:
                passed, digest, reason = verify(wl, op, out, golden, want_digest)
            except Exception:
                passed, digest, reason = False, None, traceback.format_exc(limit=3)
            if args.workload == "cli":
                stdout_bytes += sum(len(stdout.encode()) for _, stdout in out)
        else:
            passed, digest, reason = False, None, error
        digests.append(digest)
        if not passed:
            failures.append({"index": op.index, "spec": op.spec, "reason": reason})
        out = None
        done = len(latencies)
        if done == rss_ops:
            maxrss_kb = resource.getrusage(who).ru_maxrss
        if args.ops:
            if done >= args.ops:
                break
        elif busy >= args.seconds and done >= args.min_ops and done % wl.block_size == 0:
            break
        if not args.ops and perf_counter() - wall0 > WALL_CAP_S:
            break
        op = next(ops)

    result = {
        "latencies_s": latencies,
        "busy_s": busy,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "failed_indices": [f["index"] for f in failures],
        "maxrss_kb": maxrss_kb or resource.getrusage(who).ru_maxrss,
    }
    if want_digest:
        result["digests"] = digests
    if tracer:
        layers = tracer.metrics()
        layers["cli.stdout_bytes"] = stdout_bytes
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    if args.mode == "golden":
        if failures:
            raise SystemExit(f"not writing digests: {len(failures)} operations failed")
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / f"{args.workload}.json").write_text(json.dumps(
            {"seed": args.seed, "ops": len(digests), "digests": digests}, indent=0) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
