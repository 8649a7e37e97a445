#!/usr/bin/env python3
"""Regenerate the Jacobi-tree rank tables and compare with the expected rows.

    python scripts/rank_tables.py --max-n 6
    python scripts/rank_tables.py --max-n 6 --with-n7
    python scripts/rank_tables.py --with-n8        # about 1.5 minutes

The n = 7 and n = 8 columns are probabilistic over Q (two primes near 2^20,
taken by the blocked engine intlinalg.rank_modp_rows_dense); everything up
to n = 6 is exact over Z.  At n = 8 most of the time goes into generating
the relation rows, whose progress goes to stderr.
"""

import argparse
import math
import sys
import time

from jacobitrees.cli import compute_quotient, pick_method, stu2_lyndon_rows
from jacobitrees.intlinalg import rank_modp_rows_dense

EXPECTED_ODD = {1: 0, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 12}
EXPECTED_EVEN = {1: 0, 2: 1, 3: 1, 4: 0, 5: 2, 6: 1}


def modular_quotient_rank(n: int, parity: str) -> dict[int, int]:
    def rows():
        t0 = time.time()
        for i, row in enumerate(stu2_lyndon_rows(n, parity)):
            yield row
            if i and i % 2000 == 0:
                print(f"  ... {i} rows, {time.time()-t0:.0f}s", file=sys.stderr, flush=True)

    cols = math.factorial(n - 1)
    ranks = rank_modp_rows_dense(rows(), cols)
    return {p: cols - r for p, r in ranks.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--with-n7", action="store_true")
    ap.add_argument("--with-n8", action="store_true")
    args = ap.parse_args()

    print("n  lie  odd  even  torsion_odd  torsion_even  check")
    for n in range(1, args.max_n + 1):
        method = pick_method(n, "auto")
        lie = compute_quotient(n, ("as", "ihx"), None, method)
        odd = compute_quotient(n, ("as", "ihx", "stu2"), "odd", method)
        even = compute_quotient(n, ("as", "ihx", "stu2"), "even", method)
        check = (
            "ok"
            if odd.free_rank == EXPECTED_ODD[n] and even.free_rank == EXPECTED_EVEN[n]
            else "MISMATCH"
        )
        print(
            f"{n}  {lie.free_rank}  {odd.free_rank}  {even.free_rank}  "
            f"{odd.torsion or '-'}  {even.torsion or '-'}  {check}"
        )

    for n, flag in ((7, args.with_n7), (8, args.with_n8)):
        if not flag:
            continue
        t0 = time.time()
        q = modular_quotient_rank(n, "odd")
        agree = len(set(q.values())) == 1
        value = next(iter(q.values()))
        check = "ok" if agree and value == EXPECTED_ODD[n] else "MISMATCH"
        print(
            f"{n}  -  {value} (probabilistic over Q, primes agree: {agree})  -  "
            f"-  -  {check}  [{time.time()-t0:.0f}s]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
