"""Record a point of the benchmark trajectory as perfbench/BENCH_<label>.json.

    python3 perfbench/record.py --label baseline

Runs run.py on every workload of BENCHMARK.json for run_seconds, once per
seed of SEEDS with tracing off, then once with tracing on, one run at a
time.  For each end-to-end metric it keeps every value with its median and
quartiles, and the spread (q3 - q1) / median; the traced run gives the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import numpy_version  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = tuple(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]
    out = {"label": args.label, "seconds": seconds, "seeds": list(SEEDS),
           "python": platform.python_version(), "numpy": numpy_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced = bench(workload, SEEDS[0], seconds, 1)
        metrics = {name: {"unit": m["unit"],
                          **summary([r["metrics"][name]["value"] for r in runs])}
                   for name, m in runs[0]["metrics"].items()}
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
        for name, m in metrics.items():
            print(f"{workload:8s} {name:14s} median {m['median']:12.6g} {m['unit']:5s} "
                  f"spread {m['spread']:.4f}", file=sys.stderr, flush=True)
    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
