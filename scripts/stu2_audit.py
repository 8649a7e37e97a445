#!/usr/bin/env python3
"""Print every quadratic relation instance for small degrees, both parities.

The output is the audit trail for the relation transcription: each line is
one source word (the doubled spoke is the repeated letter) with the emitted
integer tree vector.  Degree 3 shows the minimal four-term instances; the
quotient summary at the end reproduces the expected table rows.
"""

import argparse
import sys

from jacobitrees import braidlie
from jacobitrees.cli import compute_quotient
from jacobitrees.words import read_integer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=read_integer, default=4)
    args = ap.parse_args()

    for n in range(3, args.max_n + 1):
        for parity in ("odd", "even"):
            print(f"== degree {n}, {parity}")
            for w in braidlie.source_words(n):
                v = braidlie.doubling_image(w, n, parity == "odd")
                print(f"  {w}: {v.serialize() if not v.is_zero else '0'}")
            res = compute_quotient(n, ("as", "ihx", "stu2"), parity, "lyndon")
            print(
                f"  quotient: rank {res.free_rank}, "
                f"torsion {res.torsion or 'none'}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
