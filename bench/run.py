"""Benchmark for freebaxter: four seeded workloads against the library and CLI.

Run from the repository root:

  python3 bench/run.py --workload unit_words --seed 1 --seconds 25 --trace 0
  python3 bench/run.py --workload series --seed 1 --seconds 25 --trace 1
  python3 bench/run.py --smoke          # every workload, tiny, under a minute
  python3 bench/run.py --write-golden   # digests for the default seed

Load model: a closed loop with one client. One process, one thread, each
operation issued after the previous one returns. Every run starts fresh
interpreters (bench/worker.py), so the library's caches start cold.

``--trace 0`` prints the end-to-end metrics. A run ends on a whole block of
operations (see workloads.py) once it has --seconds of busy time and at least 100
operations.

On a shared host the CPU speed drifts by a tenth or more over seconds to
minutes, and one operation often runs either fast or about half again slower,
so every timing pools the whole run. ops_per_s is the run's operations per
second of busy time. The latency quantiles are Harrell-Davis estimates over
every operation of the run: a weighted mean of all the sorted latencies, the
weights a beta density centred on the quantile. A plain sample quantile
picks one latency and jumps between operation sizes and between the fast and
the slow time from run to run. Set-up time is measured from process launch to
the first operation being ready, over several launches, and reported as their
median. Peak memory is read after the first 100 operations, rounded up to
whole blocks, so that it does not grow with the number a faster run
completes.

``--trace 1`` runs a fixed number of operations twice, untraced and traced,
in fresh processes, and prints the per-layer metrics of the traced one;
tracing overhead is the difference of their busy times, and the two must
produce digest-identical outputs.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Failed operations count
in ``failed``; the failed_ops_ratio line shows them as a share. It is left
out of the JSON metrics because it is 0 on a correct run. Every run also
writes a full record, with the interpreter version, nproc and commit, to
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, NAMES  # noqa: E402

SETUP_PROBES = 9
# at least ten samples beyond the 90th percentile
MIN_OPS = 100
STARTUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
# digests stored for the default seed: at least one and a half times the
# operations one 25 s run completes at the commit that defined the benchmark
GOLDEN_OPS = {"unit_words": 540, "distinct_words": 300, "series": 330, "cli": 220}
# operations of a traced run, whole blocks; the untraced and the traced pass
# together take under 25 s at the commit that defined the benchmark
TRACE_OPS = {"unit_words": 90, "distinct_words": 30, "series": 45, "cli": 60}

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, **opts) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from launch to ready, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} for {workload} failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def startup_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing the CLI
    minus that."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def median_ms(code: str) -> float:
        times = []
        for _ in range(STARTUP_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append((perf_counter() - start) * 1000)
        return statistics.median(times)

    interp = median_ms("pass")
    return interp, median_ms("import freebaxter.cli") - interp


def environment() -> dict:
    # a checkout that is not a repository reports "unknown"; the ceiling keeps
    # git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "freebaxter").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def harrell_davis(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the sorted values
    weighted by the Beta(p(n+1), (1-p)(n+1)) density, integrated over each
    value's 1/n slice of [0, 1] by the midpoint rule."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    ts = [(i + (j + 0.5) / steps) / n for i in range(n) for j in range(steps)]
    logs = [a * math.log(t) + b * math.log1p(-t) for t in ts]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def measure(workload: str, seed: int, seconds: float, probes: int = SETUP_PROBES,
            min_ops: int = MIN_OPS, max_ops: int = 0):
    setups = [spawn(workload, seed, "setup")[0] for _ in range(probes)]
    opts = {"ops": max_ops} if max_ops else {"seconds": seconds, "min_ops": min_ops}
    ready, res = spawn(workload, seed, "run", **opts)
    setups.append(ready)
    lat_ms = [t * 1000 for t in res["latencies_s"]]
    metrics = {
        "ops_per_s": res["attempted"] / res["busy_s"],
        "latency_p50_ms": harrell_davis(lat_ms, 0.5),
        "latency_p90_ms": harrell_davis(lat_ms, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    lines = [f"{name} {value:.6g} {E2E_UNITS[name]}" for name, value in metrics.items()]
    lines.append(f"failed_ops_ratio {res['failed'] / res['attempted']:.6g} ratio")
    if workload == "cli":
        interp, imp = startup_ms()
        lines.append(f"cli startup: interp {interp:.1f} ms + import {imp:.1f} ms = "
                     f"{interp + imp:.1f} ms of latency_p50_ms {metrics['latency_p50_ms']:.1f} ms")
    summary = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    record = {"busy_s": res["busy_s"], "setups_s": setups, "latencies_ms": lat_ms,
              "failures": res["failures"]}
    return res["attempted"], res["failed"], summary, lines, record


def measure_traced(workload: str, seed: int, ops: int):
    _, ref = spawn(workload, seed, "trace-ref", ops=ops)
    _, res = spawn(workload, seed, "trace", ops=ops)
    mismatched = {i for i, (a, b) in enumerate(zip(ref["digests"], res["digests"])) if a != b}
    failed = len(set(ref["failed_indices"]) | set(res["failed_indices"]) | mismatched)
    layers = dict(res["layers"])
    layers["cli.interp_ms"], layers["cli.import_ms"] = startup_ms()
    layers["trace.ops"] = res["attempted"]
    layers["trace.busy_s"] = res["busy_s"]
    layers["trace.untraced_busy_s"] = ref["busy_s"]
    layers["trace.overhead_s"] = res["busy_s"] - ref["busy_s"]
    lines = []
    for name, unit in LAYER_METRICS.items():
        value = layers.get(name)
        lines.append(f"{name} {'absent' if value is None else format(value, '.6g')} {unit}")
    lines.append(f"tracing overhead {layers['trace.overhead_s']:.3f} s over "
                 f"{ref['busy_s']:.3f} s untraced busy time; "
                 f"{len(mismatched)} of {len(res['digests'])} traced outputs differ from untraced")
    summary = {name: {"value": layers.get(name), "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    record = {"failures": ref["failures"] + res["failures"], "mismatched": sorted(mismatched)}
    return res["attempted"], failed, summary, lines, record


def benchmark(workload: str, seed: int, seconds: float, trace: bool, **sizes) -> tuple[list, dict]:
    """Run one workload; return the lines to print and the result object.
    ``sizes`` shrinks the run for the smoke mode."""
    if trace:
        attempted, failed, metrics, lines, record = measure_traced(
            workload, seed, sizes.get("trace_ops", TRACE_OPS[workload]))
    else:
        attempted, failed, metrics, lines, record = measure(workload, seed, seconds, **sizes)
    env = environment()
    head = [f"env: python {env['python']} nproc {env['nproc']} commit {env['commit']} "
            f"source_sha256 {env['source_sha256'][:16]}",
            f"workload {workload} seed {seed} trace {int(trace)}: "
            f"{attempted} operations, {failed} failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"env": env, "workload": workload, "seed": seed, "trace": trace, **result,
         **record}, indent=1))
    return head + lines, result


def smoke() -> int:
    """Every workload at a tiny operation count: every metric printed with
    its unit, no failures, and the altered-output self-test counts a failure."""
    problems = []
    for workload in NAMES:
        lines, result = benchmark(workload, DEFAULT_SEED, 0, False,
                                  probes=1, min_ops=0, max_ops=3)
        traced, tresult = benchmark(workload, DEFAULT_SEED, 0, True, trace_ops=2)
        for line in lines + traced:
            print(line)
        wanted = [(f"{n} ", f" {u}") for n, u in (*E2E_UNITS.items(), *LAYER_METRICS.items())]
        wanted.append(("failed_ops_ratio 0 ", " ratio"))
        for prefix, suffix in wanted:
            if not any(line.startswith(prefix) and line.endswith(suffix) for line in lines + traced):
                problems.append(f"{workload}: no line '{prefix}...{suffix}'")
        for res in (result, tresult):
            if not res["correct"]:
                problems.append(f"{workload}: {res['failed']} failed operations")
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
            _, report = spawn(workload, seed, "self-test")
            print(f"self-test {workload} seed {seed}: {report['self_test']}")
            if not report["ok"]:
                problems.append(f"{workload}: altered output not counted as failed at seed {seed}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freebaxter" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'freebaxter'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.write_golden:
            for workload in [args.workload] if args.workload else NAMES:
                spawn(workload, DEFAULT_SEED, "golden", ops=GOLDEN_OPS[workload])
                print(f"wrote {GOLDEN_OPS[workload]} digests for {workload}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        lines, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
