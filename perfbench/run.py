"""The jacobitrees benchmark: seeded workloads through ``jacobitrees.cli.main``.

    python3 perfbench/run.py --workload rank7|table6|queries --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Every operation's output is checked (see
workloads.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (tracer.py) with
``--trace 1``.  A readable table goes to stderr, and the full record of the
run (with the Python and numpy versions, nproc and the seed) to
``perfbench/out/``.

Closed loop, one client: the next operation starts when the previous one
has returned.  The operations run one at a time in ``worker.py``, which
forks a fresh copy of an interpreter that has just imported the CLI for
each of them.  The child environment is fixed: no result cache, one
BLAS/OpenMP thread, PYTHONHASHSEED=0, bytecode cached in ``__pycache__``.

A run has a fixed set of units, made from the seed: one operation for rank7
and table6, QUERY_ROUNDS rounds of ROUND_MIX queries for queries.  It runs
them in passes, every unit once per pass, and checks every execution.  The
number of passes depends on --seconds alone: seconds / PASS_S rounded, at
least MIN_PASSES, where PASS_S is how long a pass takes on a 2-core x86-64
virtual machine.  So every run of a workload takes the same number of
samples, however fast a shared host happens to be.  The latency of an
operation is the median of its executions, which lie a pass apart.

End-to-end metrics (tracing off):

* ``setup_s``       median over SETUP_SAMPLES fresh interpreters, half
                    started before the operations and half after them, of
                    the time from spawn to ``jacobitrees.cli`` imported;
* ``wall_s``        median over units of the sum of their operations'
                    latencies;
* ``op_p50_ms``, ``op_p90_ms``  percentiles of the operations' latencies;
* ``queries_per_s`` operations per second of the operations' latencies;
* ``peak_rss_mb``   median over units of the largest peak RSS of an
                    operation's process.

The latency percentiles are meant for queries, where they range over
QUERY_ROUNDS x 35 = 105 distinct queries, so p90 has 11 samples beyond it.
rank7 and table6 have one operation, whose latency all four timings
restate: op_p50_ms and op_p90_ms are wall_s in ms, queries_per_s its
inverse.  Peak RSS at n = 8 (two 5040 x 5040 int64 matrices) is not
measured.

``fail_ratio`` (failed / attempted operations) is 0 on a correct program,
so it is reported among the per-layer metrics, beside the ``attempted``
and ``failed`` counts every run reports.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("rank7", "table6", "queries")
SETUP_SAMPLES = 20
MIN_PASSES = 2  # a traced run's first pass is untraced
PASS_S = {"rank7": 12, "table6": 9, "queries": 16}
QUERY_ROUNDS = 3
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**tracer.LAYER_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s",
             "fail_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("JACOBITREES_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from bytecode, as once installed
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_worker(job: dict, timeout: float) -> list[dict]:
    """Runs worker.py on the job; its JSON lines, setup line first."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), repr(time.monotonic())],
        cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any operation it forked
        out, err = proc.communicate()
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # the last line of a worker that was killed
            break
    if not lines or "setup_s" not in lines[0]:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return lines


def measure_setup(samples: int) -> list[float]:
    job = {"units": [], "passes": 0, "trace_from": None, "spans_path": ""}
    return [spawn_worker(job, 60)[0]["setup_s"] for _ in range(samples)]


def make_units(workload: str, seed: int) -> tuple[list[list[list[str]]], list[list[dict]] | None]:
    if workload == "queries":
        rounds = workloads.make_rounds(seed, QUERY_ROUNDS)
        return [[q["argv"] for q in r] for r in rounds], rounds
    argv = workloads.RANK7_ARGV if workload == "rank7" else workloads.TABLE6_ARGV
    return [[argv]], None


def check_unit(workload: str, ops: list[dict], queries: list[dict] | None) -> list[bool]:
    if queries is None:
        return [workloads.check_fixed(workload, r) for r in ops]
    return workloads.check_round(queries, ops)


def check_trace(workload: str, op: dict) -> bool:
    """Self times partition the root span; on rank7 both primes agree."""
    layers = op["layers"]
    total = sum(v for k, v in layers.items() if k.endswith(".s") or k == "cli.main.self_s")
    if abs(total - op["root_s"]) > 1e-6 * max(1.0, op["root_s"]):
        return False
    if workload == "rank7":
        calls = layers["intlinalg.rank_modp_rows_dense.calls"]
        return calls > 0 and layers["intlinalg.rank_modp_rows_dense.primes_agree"] == calls
    return True


def unit_layers(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one unit: sums over its operations."""
    out = {}
    for key in tracer.LAYER_METRICS:
        values = [op["layers"][key] for op in ops]
        out[key] = max(values) if key.endswith("max_entry_bits_in") else sum(values)
    calls = out["braidlie.doubling_image.calls"]
    nonzero = sum(op["layers"]["braidlie.doubling_image.nonzero_ratio"]
                  * op["layers"]["braidlie.doubling_image.calls"] for op in ops)
    out["braidlie.doubling_image.nonzero_ratio"] = nonzero / calls if calls else 0.0
    return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive; a single value is every percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(lines: list[dict], units: list[list[list[str]]]) -> dict[str, list[float]]:
    """Operation latencies, unit walls and unit peak RSS from the untraced
    unit runs."""
    samples: dict[tuple[int, int], list[float]] = defaultdict(list)
    rss: dict[int, float] = {}
    for line in lines:
        u = line["unit"]
        for j, op in enumerate(line["ops"]):
            samples[u, j].append(op["latency_s"])
        rss[u] = max(rss.get(u, 0.0), *(op["peak_rss_mb"] for op in line["ops"]))
    latency = {key: statistics.median(xs) for key, xs in samples.items()}
    walls = [sum(latency[u, j] for j in range(len(units[u]))) for u in sorted(rss)]
    return {"latencies": list(latency.values()), "unit_walls": walls,
            "unit_rss": [rss[u] for u in sorted(rss)]}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "jacobitrees" / "cli.py").is_file():
        raise BenchError(f"no jacobitrees sources under {ROOT / 'src'}")
    units, rounds = make_units(workload, seed)
    passes = max(MIN_PASSES, round(seconds / PASS_S[workload]))
    started = time.monotonic()
    setup = [] if trace else measure_setup(1 + SETUP_SAMPLES // 2)[1:]  # first: writes bytecode
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        spans_path.write_text("")
    # traced: pass 0 untraced, the later passes traced; the difference is the overhead
    job = {"units": units, "passes": passes, "trace_from": 1 if trace else None,
           "spans_path": str(spans_path)}
    lines = spawn_worker(job, RUN_TIMEOUT_S - 10 - (time.monotonic() - started))[1:]
    if not trace:
        setup += measure_setup(SETUP_SAMPLES // 2)

    attempted = failed = 0
    untraced, traced_walls, layer_units = [], [], []
    first_walls: dict[tuple[bool, int], float] = {}  # (traced, unit) -> wall of its first run
    for line in lines:
        ops = line["ops"]
        queries = rounds[line["unit"]] if rounds is not None else None
        ok = check_unit(workload, ops, queries)
        if line["traced"]:
            ok = [good and check_trace(workload, op) for good, op in zip(ok, ops)]
        attempted += len(ops)
        failed += ok.count(False)
        wall = sum(op["latency_s"] for op in ops)
        first_walls.setdefault((line["traced"], line["unit"]), wall)
        if line["traced"]:
            traced_walls.append(wall)
            layer_units.append(unit_layers(ops))
        else:
            untraced.append(line)
    # unit runs the worker did not reach count as failed
    for k in range(len(lines), passes * len(units)):
        attempted += len(units[k % len(units)])
        failed += len(units[k % len(units)])
    if not untraced or (trace and not layer_units):
        raise BenchError(f"no unit completed within {RUN_TIMEOUT_S} s")

    if trace:
        metrics = {k: statistics.median(u[k] for u in layer_units) for k in tracer.LAYER_METRICS}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = statistics.median(
            first_walls[True, u] - first_walls[False, u] for u in range(len(units))
            if (True, u) in first_walls)
        metrics["fail_ratio"] = failed / attempted
        units_of = PER_LAYER
        latencies = []
    else:
        t = timings(untraced, units)
        latencies = t["latencies"]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(t["unit_walls"]),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * percentile(latencies, 90),
            "queries_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": statistics.median(t["unit_rss"]),
        }
        units_of = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy_version(),
        "nproc": os.cpu_count(), "passes": passes, "unit_runs": len(lines), "operations": attempted,
        "distinct_operations": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if 1000 * x > metrics.get("op_p90_ms", 0)),
        "unit_run_walls_s": [sum(op["latency_s"] for op in line["ops"]) for line in untraced],
        "traced_unit_walls_s": traced_walls,
        "result": result,
    }
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    result = record["result"]
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload}: {result['attempted']} attempted, {result['failed']} failed, "
          f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
          f"seed {args.seed}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
