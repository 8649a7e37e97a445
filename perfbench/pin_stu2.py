"""Pin the stu2 pool of the queries workload: perfbench/stu2_pool.json.

    python3 perfbench/pin_stu2.py

For every (degree, parity) the queries workload reduces modulo stu2, makes
POOL_SIZE seeded random vectors and stores each with the Lyndon coordinates,
the residue and the SHA-256 of the stdout that ``reduce`` prints for it with
the library of the current checkout.  The benchmark then requires the same
output, so a change to the stu2 lattice or to its reduction shows as a
failed query.  Only vectors whose residue differs from their coordinates are
kept: their difference is the nonzero lattice element a stu2 "zero" query
is built from.  Re-pin only when the expected output has been shown right.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from jacobitrees import cli  # noqa: E402

POOL_SIZE = 16


def pin(n: int, parity: str, rng: random.Random) -> dict:
    while True:
        terms = workloads.random_combination(rng, n)
        argv = ["reduce", f"--expr={workloads.vector_text(terms)}",
                "--relations", "as,ihx,stu2", "--parity", parity]
        out = io.StringIO()
        with redirect_stdout(out):
            if cli.main(argv) != 0:
                raise SystemExit(f"reduce failed: {argv}")
        stdout = out.getvalue()
        coords = [int(x) for x in re.search(r"^lyndon coordinates: \[(.*)\]$", stdout, re.M)
                  .group(1).split(",")]
        if not workloads.coordinates_ok(coords, terms, n):
            raise SystemExit(f"wrong coordinates: {argv}")
        m = re.search(r": residue (\{.*\})$", stdout, re.M)
        residue = ast.literal_eval(m.group(1)) if m else {}
        if any(c != residue.get(j, 0) for j, c in enumerate(coords)):
            return {"terms": terms, "coords": coords,
                    "residue": {str(j): c for j, c in sorted(residue.items())},
                    "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def main() -> int:
    pool = {}
    for n, parity in workloads.POOL_KEYS:
        rng = random.Random(f"stu2-pool-{n}-{parity}")
        pool[f"{n}-{parity}"] = [pin(n, parity, rng) for _ in range(POOL_SIZE)]
    workloads.POOL_PATH.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    print(workloads.POOL_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
