"""Acceptance suite: the nine exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
assertion is exact (integer equality), no tolerances anywhere.
"""

import math
import os
import random
import time

import pytest

from jacobitrees.cli import compute_quotient, lyndon_rows
from jacobitrees.intlinalg import IntLattice, cokernel, rank_modp_rows_dense, snf_from_rows
from jacobitrees.lie import expand, to_lyndon_coordinates
from jacobitrees.magnus import magnus_agreement
from jacobitrees.relations import (
    as_relations,
    ihx_relations,
    relation_union,
    stu2_relations,
)
from jacobitrees.trees import (
    enumerate_trees,
    tree_count,
    tree_list,
)
from jacobitrees.words import parse_word

from conftest import brute_force_trees, decorated_rank, expansion_coordinates

ODD_RANKS = [0, 1, 1, 2, 3, 5]     # n = 1..6
EVEN_RANKS = [0, 1, 1, 0, 2, 1]    # n = 1..6
ODD_RANK_N7 = 8


def report(num: int, text: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_tree_counts():
    ok = len(list(enumerate_trees(2))) == 2 and len(list(enumerate_trees(3))) == 12
    for n in range(1, 7):
        expected = math.factorial(2 * n - 2) // math.factorial(n - 1)
        ok = ok and tree_count(n) == expected
        ok = ok and len(brute_force_trees(range(1, n + 1))) == expected
        if n <= 5:
            ok = ok and len(set(enumerate_trees(n))) == expected
    t0 = time.time()
    for n in range(1, 6):
        for _ in enumerate_trees(n):
            pass
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(1, f"tree counts n<=6 vs brute force, n<=5 in {elapsed:.2f}s", ok)


def test_criterion_2_lie_ranks():
    ok = True
    for n in range(2, 6):
        res = cokernel(
            relation_union([as_relations(n), ihx_relations(n)]), tree_list(n)
        )
        ok = ok and res.free_rank == math.factorial(n - 1) and not res.torsion
        if n == 2:
            ok = ok and res.free_rank == 1
        if n == 3:
            ok = ok and res.free_rank == 2
    # n = 6 via the Lyndon pipeline: the expansion solve kills the lattice
    # and agrees with the AS/IHX straightening on every tree, so the
    # quotient is free on the (n-1)! Lyndon classes
    n = 6
    coords = {}
    for t in enumerate_trees(n):
        coords[t] = expansion_coordinates(t, n)
        if to_lyndon_coordinates(t, n) != coords[t]:
            ok = False
            break

    def coordinate_sum(v):
        # expansion_coordinates is linear, so a vector's coordinates are the
        # sum of its trees' memoised ones
        total = [0] * math.factorial(n - 1)
        for t, c in v.terms:
            if t not in coords:
                coords[t] = expansion_coordinates(t, n)
            total = [s + c * x for s, x in zip(total, coords[t])]
        return total

    # every vector is checked through the memo, and about 1% of them, a
    # seeded sample, also directly
    pick = random.Random(6)
    killed = all(
        not any(coordinate_sum(v))
        and (pick.random() >= 0.01 or not any(expansion_coordinates(v, n)))
        for rs in (as_relations(n), ihx_relations(n))
        for v in rs.vectors()
    )
    ok = ok and killed
    report(2, "cokernel(AS+IHX) free of rank (n-1)! for n = 2..6", ok)


def test_criterion_3_jacobi_tables_odd():
    ranks = []
    torsion_free = True
    for n in range(1, 7):
        if n == 1:
            ranks.append(0)  # degree-1 classes die definitionally
            continue
        if n <= 5:
            res = cokernel(
                relation_union(
                    [as_relations(n), ihx_relations(n), stu2_relations(n, "odd")]
                ),
                tree_list(n),
            )
        else:
            res = compute_quotient(n, ("as", "ihx", "stu2"), "odd", "lyndon")
        ranks.append(res.free_rank)
        torsion_free = torsion_free and not res.torsion
    ok = ranks == ODD_RANKS and torsion_free
    # n = 7: the rank modulo two primes near 2^20, and exactly over Z
    rows7 = list(lyndon_rows(7, ("as", "ihx", "stu2"), "odd"))
    mod_ranks = rank_modp_rows_dense(rows7, math.factorial(6))
    quotient7 = {p: math.factorial(6) - r for p, r in mod_ranks.items()}
    exact7 = snf_from_rows(rows7, math.factorial(6))
    ok = ok and set(quotient7.values()) == {ODD_RANK_N7}
    ok = ok and exact7.rank == 712 and exact7.free_rank == ODD_RANK_N7
    ok = ok and not exact7.torsion
    report(
        3,
        f"A^T,odd ranks n=1..6 = {ranks} torsion-free, n=7 -> {quotient7} mod p, "
        f"{exact7.free_rank} torsion-free over Z",
        ok,
    )


@pytest.mark.skipif(
    not os.environ.get("JACOBITREES_ACCEPT_N8"),
    reason="optional n=8 and exact even n=7 checks take ~1 min; set JACOBITREES_ACCEPT_N8=1",
)
def test_criterion_3_optional_degree8():
    cols = math.factorial(7)
    ranks = rank_modp_rows_dense(lyndon_rows(8, ("as", "ihx", "stu2"), "odd"), cols)
    quotient = {p: cols - r for p, r in ranks.items()}
    ok = set(quotient.values()) == {12}
    report(3, f"optional: A^T,odd_8 -> {quotient} (probabilistic)", ok)
    # exact over Z: the even quotient at n = 7 has 2-torsion
    even7 = snf_from_rows(lyndon_rows(7, ("as", "ihx", "stu2"), "even"), math.factorial(6))
    ok = even7.free_rank == 2 and even7.torsion == [2] * 6
    report(4, f"optional: A^T,even_7 = Z^{even7.free_rank} + torsion {even7.torsion}", ok)


def test_criterion_4_jacobi_tables_even():
    ranks = []
    for n in range(1, 7):
        if n == 1:
            ranks.append(0)
            continue
        if n <= 5:
            res = cokernel(
                relation_union(
                    [as_relations(n), ihx_relations(n), stu2_relations(n, "even")]
                ),
                tree_list(n),
            )
        else:
            res = compute_quotient(n, ("as", "ihx", "stu2"), "even", "lyndon")
        ranks.append(res.free_rank)
    ok = ranks == EVEN_RANKS
    report(4, f"A^T,even ranks n=1..6 = {ranks}", ok)


def test_criterion_5_oracle_equivalence():
    ok = True
    for n in range(2, 6):
        for parity in (None, "odd", "even"):
            kinds = ("as", "ihx", "stu2") if parity else ("as", "ihx")
            sets = [as_relations(n), ihx_relations(n)]
            if parity:
                sets.append(stu2_relations(n, parity))
            full = cokernel(relation_union(sets), tree_list(n))
            lyndon = compute_quotient(n, kinds, parity, "lyndon")
            same = (
                full.free_rank == lyndon.free_rank
                and full.torsion == lyndon.torsion
            )
            ok = ok and same
    report(5, "tree-space SNF and Lyndon routes agree for n = 2..5", ok)


def test_criterion_6_expansion_annihilation():
    checked = 0
    failures = 0
    for n in range(1, 6):
        for rs in (as_relations(n), ihx_relations(n)):
            for v in rs.vectors():
                checked += 1
                if expand(v):
                    failures += 1
    ok = failures == 0 and checked > 10_000
    report(6, f"expansion annihilation on {checked} AS/IHX vectors, n<=5", ok)


def test_criterion_7_magnus_agreement(magnus_expansions):
    t0 = time.time()
    checked = 0
    failures = 0
    # every tree through degree 5, and a fixed sample of 24 of degree 6, on
    # the expansions of their words that the fixture built once; their
    # building counts in the time
    for t, _, full in magnus_expansions.cases:
        checked += 1
        if not magnus_agreement(t, full):
            failures += 1
    elapsed = magnus_expansions.seconds + time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    report(
        7,
        f"magnus/lie leading terms on {checked} trees, n<=5 and 24 of n=6, "
        f"{elapsed:.1f}s",
        ok,
    )


def test_criterion_8_graded_rank_stability():
    ok = True
    for n in range(2, 6):
        for odd in (True, False):
            words = {}
            lat = IntLattice(math.factorial(n))
            for t in enumerate_trees(n):
                poly = expand(t, odd=odd)
                row = {}
                for w, c in poly.items():
                    j = words.setdefault(w, len(words))
                    row[j] = c
                lat.add(row)
            ok = ok and len(lat.pivot_rows) == math.factorial(n - 1)
    report(8, "graded expansion span has rank (n-1)! for both parities, n<=5", ok)


def test_criterion_9_decorated_tensor_law(rng):
    ok = True
    for n in range(1, 5):
        for _ in range(2):
            k = rng.randint(1, 4)
            tuples = []
            while len(tuples) < k:
                tup = tuple(
                    parse_word(
                        " ".join(
                            f"{rng.choice('ab')}^{rng.choice((1, -1))}"
                            for _ in range(rng.randint(0, 4))
                        )
                    )
                    for _ in range(n)
                )
                if tup not in tuples:
                    tuples.append(tup)
            res = decorated_rank(n, tuples)
            expected = math.factorial(n - 1) * len(tuples)
            ok = ok and res.free_rank == expected and not res.torsion
    report(9, "decorated rank = (n-1)! * |tuples| over 2-generator group, n<=4", ok)
