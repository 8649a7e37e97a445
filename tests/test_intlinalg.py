import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobitrees import intlinalg
from jacobitrees.cli import lyndon_rows
from jacobitrees.intlinalg import (
    DENSE_PRIMES,
    IntLattice,
    LinalgError,
    SnfResult,
    cokernel,
    rank_modp_rows_dense,
    snf_from_rows,
    vector_to_row,
)
from jacobitrees.relations import as_relations, ihx_relations, relation_union
from jacobitrees.trees import TreeVector, parse_tree, parse_tree_vector, tree_list

from conftest import STU2_POOL, CopyingLattice, lyndon_basis


def fraction_rank(rows, cols):
    """Independent rank oracle by rational Gaussian elimination."""
    mat = [[Fraction(r.get(j, 0)) for j in range(cols)] for r in rows]
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_snf_diag():
    res = snf_from_rows([{0: 2}, {1: 4}], 2)
    assert res.invariant_factors == [2, 4]
    assert res.free_rank == 0 and res.torsion == [2, 4]


def test_snf_as2_matrix():
    res = snf_from_rows([{0: 1, 1: 1}], 2)
    assert res.rank == 1
    assert res.free_rank == 1
    assert not res.torsion  # cokernel Z


def test_snf_zero_matrix():
    res = snf_from_rows([{}, {}, {}], 3)
    assert res.rank == 0
    assert res.free_rank == 3


def test_snf_torsion_mix():
    # rows (2,0),(0,3): factors 1,6 after chain fix?  gcd(2,3)=1, lcm=6
    res = snf_from_rows([{0: 2}, {1: 3}], 2)
    assert res.invariant_factors == [1, 6]


def test_divisibility_chain_property():
    res = snf_from_rows([{0: 4}, {1: 6}, {2: 10}], 3)
    for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
        assert b % a == 0
    # determinant invariance: product of factors = |det|
    prod = 1
    for d in res.invariant_factors:
        prod *= d
    assert prod == 4 * 6 * 10
    # with many unit factors, against the pairwise chain over every entry
    rng = random.Random(5)
    for _ in range(40):
        diagonal = [1] * rng.randint(0, 60) + [
            rng.choice([0, 2, 3, 4, 6, 9, 10, 12, 15]) for _ in range(rng.randint(0, 6))
        ]
        rng.shuffle(diagonal)
        assert intlinalg._divisibility_chain(diagonal) == _pairwise_chain(diagonal)


def _pairwise_chain(diagonal):
    """The divisibility chain by gcd/lcm swaps over all pairs, ones included."""
    ds = [d for d in diagonal if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = math.gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
    return sorted(ds)


def _row_dicts(entries, rows):
    out = [{} for _ in range(rows)]
    for (i, j), v in entries.items():
        if v:
            out[i][j] = v
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_snf_permutation_invariance(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    entries = {
        (i, j): rng.randint(-4, 4)
        for i in range(rows)
        for j in range(cols)
        if rng.random() < 0.6
    }
    res = snf_from_rows(_row_dicts(entries, rows), cols)
    rp = list(range(rows))
    cp = list(range(cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    perm = {(rp[i], cp[j]): v for (i, j), v in entries.items()}
    res2 = snf_from_rows(_row_dicts(perm, rows), cols)
    assert res.invariant_factors == res2.invariant_factors


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_rank_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    rows = [
        {j: rng.randint(-5, 5) for j in range(4) if rng.random() < 0.7}
        for _ in range(rng.randint(1, 6))
    ]
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    res = snf_from_rows(rows, 4)
    assert res.rank == fraction_rank(rows, 4)
    # exact, not probabilistic: every minor is at most 4! * 5^4 < p in size
    ranks = rank_modp_rows_dense(rows, 4)
    assert ranks == {p: fraction_rank(rows, 4) for p in DENSE_PRIMES}


def bareiss_det(mat):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def determinantal_factors(mat):
    """Invariant factors from determinantal divisors: d_k is the gcd of the
    k x k minors, and factor k is d_k / d_(k-1), while d_k is not 0."""
    factors, prev = [], 1
    for k in range(1, min(len(mat), len(mat[0])) + 1):
        d = 0
        for rs in itertools.combinations(range(len(mat)), k):
            for cs in itertools.combinations(range(len(mat[0])), k):
                d = math.gcd(d, bareiss_det([[mat[i][j] for j in cs] for i in rs]))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return factors


@st.composite
def small_matrices(draw, entries, max_rows=5):
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, 5))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def with_a_unit(draw):
    mat = draw(small_matrices(st.integers(-4, 4)))
    mat[draw(st.integers(0, len(mat) - 1))][draw(st.integers(0, len(mat[0]) - 1))] = draw(
        st.sampled_from((1, -1))
    )
    return mat


@st.composite
def with_duplicate_rows(draw):
    mat = draw(small_matrices(st.integers(-4, 4), max_rows=3))
    extra = draw(st.lists(st.sampled_from(mat), min_size=1, max_size=5 - len(mat)))
    return draw(st.permutations(mat + extra))


@given(
    st.one_of(
        with_a_unit(),
        # no +-1 entry: every pivot is found among the residue
        small_matrices(st.sampled_from((-4, -3, -2, 2, 3, 4))),
        with_duplicate_rows(),
    )
)
@settings(max_examples=150, deadline=None)
def test_invariant_factors_match_determinantal_divisors(mat):
    rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
    assert snf_from_rows(rows, len(mat[0])).invariant_factors == determinantal_factors(mat)


def test_cokernel_as_ihx_degree3():
    basis = tree_list(3)
    res = cokernel(
        relation_union([as_relations(3), ihx_relations(3)]), basis
    )
    assert res.free_rank == 2  # Lie(3) = Z^2
    assert not res.torsion


def test_cokernel_empty_stream():
    basis = tree_list(2)
    res = cokernel(iter(()), basis)
    assert res.free_rank == 2
    assert res.rank == 0


def test_cokernel_unknown_basis_element():
    basis = tree_list(2)
    bad = TreeVector.from_dict({parse_tree("[[1,2],3]"): 1})
    with pytest.raises(LinalgError):
        cokernel(iter([bad]), basis)


def test_rank_modp_as_ihx_degree4(monkeypatch):
    # 120 - 3! independent relation rows; spec quotes quotient rank 6
    basis = tree_list(4)
    index = {t: i for i, t in enumerate(basis)}
    rels = list(relation_union([as_relations(4), ihx_relations(4)]))
    monkeypatch.setattr(intlinalg, "DENSE_PRIMES", (10007, 65537))
    ranks = rank_modp_rows_dense((vector_to_row(v, index) for v in rels), len(basis))
    assert ranks == {10007: 114, 65537: 114}
    exact = cokernel(iter(rels), basis)
    assert exact.rank == 114 and exact.free_rank == 6


def test_rank_modp_agrees_with_exact_all_kinds():
    from jacobitrees.relations import stu2_relations

    for n in (3, 4):
        for parity in (None, "odd", "even"):
            sets = [as_relations(n), ihx_relations(n)]
            if parity:
                sets.append(stu2_relations(n, parity))
            rels = list(relation_union(sets))
            basis = tree_list(n)
            index = {t: i for i, t in enumerate(basis)}
            exact = cokernel(iter(rels), basis)
            ranks = rank_modp_rows_dense(
                (vector_to_row(v, index) for v in rels), len(basis)
            )
            assert set(ranks.values()) == {exact.rank}


def test_rank_modp_zero_stream():
    assert rank_modp_rows_dense(iter(()), 5) == {p: 0 for p in DENSE_PRIMES}


def test_rank_modp_prime_validation():
    # the engine's primes: two distinct odd primes, exact in float64 up to
    # 8191 columns
    assert len(set(DENSE_PRIMES)) == len(DENSE_PRIMES) == 2
    for p in DENSE_PRIMES:
        assert p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1)), p
        assert p * p * 8191 < 2**53


def test_rank_modp_float64_prime_bound(monkeypatch):
    # block products are float64 sums of up to cols terms below p^2, exact
    # only while p^2 * cols < 2^53
    p = DENSE_PRIMES[1]
    assert p * p * 8191 < 2**53 <= p * p * 8192
    monkeypatch.setattr(intlinalg, "DENSE_PRIMES", (p,))
    assert rank_modp_rows_dense(iter(()), 8191) == {p: 0}
    with pytest.raises(LinalgError, match="unsafe"):
        rank_modp_rows_dense(iter(()), 8192)
    # 2^22 - 3 passes the int64 bound p^2 * cols < 2^62, not this one
    monkeypatch.setattr(intlinalg, "DENSE_PRIMES", (4194301,))
    with pytest.raises(LinalgError, match="unsafe"):
        rank_modp_rows_dense(iter(()), 720)


def test_rank_modp_coordinate_out_of_range():
    with pytest.raises(LinalgError, match="out of range"):
        rank_modp_rows_dense(iter([{0: 1}, {3: 1}]), 3)
    with pytest.raises(LinalgError, match="out of range"):
        rank_modp_rows_dense(iter([{-1: 1}]), 3)


def _engine_rows(data, cols, count):
    """count rows over cols columns, with zero and duplicate rows mixed in."""
    rows = []
    for _ in range(count):
        kind = data.draw(st.sampled_from(("random", "random", "zero", "duplicate")))
        if kind == "zero":
            rows.append({})
        elif kind == "duplicate" and rows:
            rows.append(dict(data.draw(st.sampled_from(rows))))
        else:
            entries = data.draw(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols))
            rows.append({j: v for j, v in enumerate(entries) if v})
    return rows


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_modp_engine_matches_fraction_oracle(data):
    # small blocks, so that the row counts around a block boundary, and
    # the folding of new pivots into old ones, stay cheap to check
    block = data.draw(st.sampled_from((1, 2, 3, 5)))
    cols = data.draw(st.integers(1, 8))
    count = data.draw(st.sampled_from((block - 1, block, block + 1, 2 * block + 1)))
    rows = _engine_rows(data, cols, count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "MODP_BLOCK_ROWS", block)
        ranks = rank_modp_rows_dense(iter(rows), cols)
    # exact: every minor is at most 8! * 5^8 < p in size
    assert ranks == {p: fraction_rank(rows, cols) for p in DENSE_PRIMES}


def test_modp_engine_full_column_rank():
    # the identity plus more rows than columns, across block boundaries
    cols = 5
    rows = [{j: 1} for j in range(cols)] + [{0: 2, 4: -3}, {}, {1: 1, 2: 1}]
    for block in (1, 2, 4, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intlinalg, "MODP_BLOCK_ROWS", block)
            assert rank_modp_rows_dense(iter(rows), cols) == {
                p: cols for p in DENSE_PRIMES
            }


def test_modp_engine_default_block_boundaries():
    # rank below cols at the real block size: up to 2 * block + 1 rows, each
    # a random combination of two of 24 random rows
    rng = random.Random(7)
    block = intlinalg.MODP_BLOCK_ROWS
    cols = 32
    base = [
        {j: rng.randint(-3, 3) for j in rng.sample(range(cols), 6)} for _ in range(24)
    ]
    rows = []
    for _ in range(2 * block + 1):
        row = {}
        for b in rng.sample(base, 2):
            c = rng.randint(-2, 2)
            for j, v in b.items():
                row[j] = row.get(j, 0) + c * v
        rows.append({j: v for j, v in row.items() if v})
    for count in (block - 1, block, block + 1, 2 * block + 1):
        exact = fraction_rank(rows[:count], cols)
        assert rank_modp_rows_dense(iter(rows[:count]), cols) == {
            p: exact for p in DENSE_PRIMES
        }
    assert 0 < exact < cols


def normal_form(v, relations, basis):
    """Canonical representative of v modulo the relation lattice."""
    index = {t: i for i, t in enumerate(basis)}
    lat = IntLattice(len(basis))
    lat.add_many(vector_to_row(r, index) for r in relations)
    lat.normalize()
    reduced = lat.reduce(vector_to_row(v, index))
    if not reduced:
        return TreeVector.zero(v.degree, v.decorated)
    return TreeVector.from_dict({basis[j]: c for j, c in reduced.items()})


def test_residue_does_not_depend_on_insertion_order():
    # xgcd of the pivot 4 with -6 gives -2; a negative pivot left the
    # remainder of 1 at -1 in one order and at 1 in the other
    residues = []
    for rows in ([{0: 4, 1: 1}, {0: -6}], [{0: -6}, {0: 4, 1: 1}]):
        lat = IntLattice(2)
        lat.add_many(rows)
        lat.normalize()
        residues.append(lat.reduce({0: 1}))
    assert residues == [{0: 1}, {0: 1}]


def pivot_items(lat):
    """The pivot rows in their order, each with its items in their order."""
    return [(j, list(row.items())) for j, row in lat.pivot_rows.items()]


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_the_in_place_lattice_replays_the_copying_one(parity):
    # the same pivot rows with the same key order, after add_many and after
    # normalize, and the same residue in the same key order for the
    # coordinates of every vector of the benchmark's stu2 pool: reduce
    # prints that residue in its key order
    pool = json.loads(STU2_POOL.read_text())
    checked = 0
    for n in range(3, 7):
        rows = list(lyndon_rows(n, ("as", "ihx", "stu2"), parity))
        lattices = IntLattice(math.factorial(n - 1)), CopyingLattice(math.factorial(n - 1))
        for lat in lattices:
            lat.add_many(rows)
        ours, theirs = map(pivot_items, lattices)
        assert ours == theirs, n
        for lat in lattices:
            lat.normalize()
        ours, theirs = map(pivot_items, lattices)
        assert ours == theirs, n
        for entry in pool.get(f"{n}-{parity}", ()):
            coords = {j: c for j, c in enumerate(entry["coords"]) if c}
            ours, theirs = (lat.reduce(coords) for lat in lattices)
            assert list(ours.items()) == list(theirs.items()), (n, entry["terms"])
            checked += 1
    assert checked == sum(len(v) for k, v in pool.items() if k.endswith(parity))


_small_rows = st.lists(st.dictionaries(st.integers(0, 5), st.integers(-9, 9)), max_size=10)


@given(_small_rows, st.dictionaries(st.integers(0, 5), st.integers(-30, 30)))
@settings(max_examples=300, deadline=None)
def test_the_in_place_lattice_replays_the_copying_one_on_small_rows(rows, vec):
    # small entries make the gcd steps common, which the stu2 rows seldom take
    lattices = IntLattice(6), CopyingLattice(6)
    for lat in lattices:
        lat.add_many(rows)
    assert pivot_items(lattices[0]) == pivot_items(lattices[1])
    for lat in lattices:
        lat.normalize()
    assert pivot_items(lattices[0]) == pivot_items(lattices[1])
    ours, theirs = (lat.reduce(vec) for lat in lattices)
    assert list(ours.items()) == list(theirs.items())


@given(st.lists(st.dictionaries(st.integers(0, 3), st.integers(-9, 9)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_pivots_stay_positive(rows):
    lat = IntLattice(4)
    for row in rows:
        lat.add(row)
        assert all(r[j] > 0 for j, r in lat.pivot_rows.items())
        assert all(min(r) == j for j, r in lat.pivot_rows.items())


def test_normal_form_lattice_member():
    basis = tree_list(2)
    rels = list(as_relations(2).vectors())
    v = rels[0]
    nf = normal_form(v, iter(rels), basis)
    assert nf.is_zero


def test_normal_form_degree2_representatives():
    basis = tree_list(2)
    rels = list(as_relations(2).vectors())
    a = TreeVector.from_dict({parse_tree("[1,2]"): 1})
    b = TreeVector.from_dict({parse_tree("[2,1]"): 1})
    nfa = normal_form(a, iter(rels), basis)
    nfb = normal_form(b, iter(rels), basis)
    assert not nfa.is_zero
    assert normal_form(parse_tree_vector("[1,2] [2,1]"), iter(rels), basis).is_zero
    # b = -a modulo the lattice, so their representatives differ
    nf_sum = parse_tree_vector(f"{nfa} {nfb}")
    assert nf_sum.is_zero or normal_form(nf_sum, iter(rels), basis).is_zero


def test_normal_form_idempotent(rng):
    basis = tree_list(3)
    rels = list(relation_union([as_relations(3), ihx_relations(3)]))
    for _ in range(10):
        terms = {
            t: rng.randint(-3, 3) for t in rng.sample(list(basis), 4)
        }
        terms = {t: c for t, c in terms.items() if c}
        if not terms:
            continue
        v = TreeVector.from_dict(terms)
        nf = normal_form(v, iter(rels), basis)
        if nf.is_zero:
            continue
        assert normal_form(nf, iter(rels), basis) == nf


def test_normal_form_saturated_double():
    # AS+IHX at n=3 is saturated; twice a Lyndon basis tree stays nonzero
    basis = tree_list(3)
    rels = list(relation_union([as_relations(3), ihx_relations(3)]))
    w, t = lyndon_basis(3)[0]
    v = TreeVector.from_dict({t: 2})
    assert not normal_form(v, iter(rels), basis).is_zero


def test_snf_result_json_roundtrip():
    res = SnfResult(invariant_factors=[1, 2, 6], rank=3, cols=5)
    assert res.to_json_obj() == {
        "invariant_factors": [1, 2, 6],
        "rank": 3,
        "cols": 5,
        "free_rank": 2,
        "torsion": [2, 6],
        "probabilistic": False,
    }


@pytest.mark.parametrize(
    "factors, rank, cols",
    [([0, 1], 2, 3), (["1"], 1, 3), ([1], 1, 0), ([1, 1], 1, 3), ([2, 3], 2, 3)],
    ids=["zero factor", "string factor", "rank above cols", "rank not factors", "no chain"],
)
def test_snf_result_refuses_invalid_structure(factors, rank, cols):
    # every result an engine builds and every rank JSON line passes here
    with pytest.raises(LinalgError):
        SnfResult(invariant_factors=factors, rank=rank, cols=cols)
