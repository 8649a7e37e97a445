import math

import pytest
from hypothesis import given, settings, strategies as st

from jacobitrees.intlinalg import IntLattice
from jacobitrees.lie import (
    GradedConfig,
    LieError,
    NcPoly,
    expand,
    is_lyndon,
    lyndon_basis,
    standard_bracketing,
    straighten,
    straighten_vector,
    to_lyndon_coordinates,
)
from jacobitrees.relations import as_relations, ihx_relations
from jacobitrees.trees import (
    TreeVector,
    enumerate_trees,
    parse_tree,
    parse_tree_vector,
    tree_list,
)

from conftest import random_tree


def oracle_expand(t):
    """Independent commutator expansion on plain dicts, for cross-checking."""
    if t.is_leaf:
        return {(t.label,): 1}
    a, b = oracle_expand(t.left), oracle_expand(t.right)
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def test_expand_commutator():
    p = expand(parse_tree("[1,2]"))
    assert p.copy_terms() == {(1, 2): 1, (2, 1): -1}


def test_expand_left_comb_degree3():
    # derived by hand / brute force: X1X2X3 - X2X1X3 - X3X1X2 + X3X2X1
    p = expand(parse_tree("[[1,2],3]"))
    assert p.copy_terms() == {
        (1, 2, 3): 1,
        (2, 1, 3): -1,
        (3, 1, 2): -1,
        (3, 2, 1): 1,
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expand_matches_oracle(n):
    for t in enumerate_trees(n):
        assert expand(t).copy_terms() == oracle_expand(t)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expand_multilinear(n):
    for t in enumerate_trees(n):
        for w in expand(t).copy_terms():
            assert sorted(w) == list(range(1, n + 1))


def test_as_ihx_expand_to_zero_small():
    for n in (2, 3, 4):
        for rs in (as_relations(n), ihx_relations(n)):
            for v in rs.vectors():
                assert expand(v).is_zero


def test_graded_expand_even_matches_expand():
    cfg = GradedConfig(generator_degree=2)
    for n in (2, 3, 4):
        for t in enumerate_trees(n):
            assert expand(t, cfg=cfg) == expand(t)


def test_graded_expand_odd_degree2():
    cfg = GradedConfig(generator_degree=1)
    p = expand(parse_tree("[1,2]"), cfg=cfg)
    assert p.copy_terms() == {(1, 2): 1, (2, 1): 1}


def _span_rank(polys, n):
    words = sorted({w for p in polys for w in p.copy_terms()})
    index = {w: i for i, w in enumerate(words)}
    lat = IntLattice(len(words))
    for p in polys:
        lat.add({index[w]: c for w, c in p.copy_terms().items()})
    return lat.rank


@pytest.mark.parametrize("m", [1, 2])
def test_graded_span_rank_degree3(m):
    cfg = GradedConfig(generator_degree=m)
    polys = [expand(t, cfg=cfg) for t in enumerate_trees(3)]
    assert _span_rank(polys, 3) == 2


def test_lyndon_basis_counts():
    assert len(lyndon_basis(2)) == 1
    assert [w for w, _ in lyndon_basis(3)] == [(1, 2, 3), (1, 3, 2)]
    assert len(lyndon_basis(5)) == 24
    for n in (2, 3, 4, 5):
        assert len(lyndon_basis(n)) == math.factorial(n - 1)


def test_lyndon_words_are_lyndon():
    for n in (2, 3, 4, 5):
        for w, t in lyndon_basis(n):
            assert is_lyndon(w)
            assert t.degree == n


def test_lyndon_expansion_unitriangular():
    for n in (2, 3, 4, 5):
        for w, t in lyndon_basis(n):
            terms = expand(t).copy_terms()
            assert terms[w] == 1
            assert min(terms) == w


def test_coordinates_unit_on_basis():
    for n in (2, 3, 4):
        for i, (w, t) in enumerate(lyndon_basis(n)):
            coords = to_lyndon_coordinates(t, n)
            expected = [0] * len(lyndon_basis(n))
            expected[i] = 1
            assert coords == expected


def test_coordinates_kill_as_generators():
    for n in (2, 3, 4):
        for v in as_relations(n).vectors():
            assert not any(to_lyndon_coordinates(v, n))


def test_coordinates_of_right_comb():
    # [3,[1,2]] = -[[1,2],3]; derived from the unitriangular solve
    assert to_lyndon_coordinates(parse_tree("[[1,2],3]")) == [1, 1]
    assert to_lyndon_coordinates(parse_tree("[3,[1,2]]")) == [-1, -1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_straighten_agrees_with_expansion(n):
    basis = lyndon_basis(n)
    for t in tree_list(n):
        coords = to_lyndon_coordinates(t, n)
        s = straighten(t)
        assert [s.get(w, 0) for w, _ in basis] == coords


def test_straighten_vector_linear(rng):
    n = 4
    t1 = random_tree(rng, [1, 2, 3, 4])
    t2 = random_tree(rng, [1, 2, 3, 4])
    v = parse_tree_vector(f"2*{t1} -3*{t2}")
    if v.is_zero:
        return
    s = straighten_vector(v)
    basis = lyndon_basis(n)
    assert [s.get(w, 0) for w, _ in basis] == to_lyndon_coordinates(v, n)


def test_straighten_vector_memo_matches_fresh(rng):
    # one memo shared over a stream of vectors of mixed degrees, with trees
    # repeating across vectors: every result equals the one without a
    # memo and the sum of the terms' own straightenings
    def summed(v):
        acc = {}
        for t, c in v.terms:
            for w, cc in straighten(t).items():
                acc[w] = acc.get(w, 0) + c * cc
        return {w: c for w, c in acc.items() if c}

    memo = {}
    pool = [random_tree(rng, list(range(1, n + 1))) for n in (2, 3, 4, 5, 6) for _ in range(4)]
    for _ in range(60):
        n = rng.randint(2, 6)
        trees = [t for t in pool if t.degree == n]
        picked = rng.sample(trees, rng.randint(1, len(trees)))
        v = TreeVector.from_dict({t: rng.choice((-2, -1, 1, 3)) for t in picked})
        assert straighten_vector(v, memo) == straighten_vector(v) == summed(v)
    assert all(isinstance(k, str) and isinstance(entry, tuple) for k, entry in memo.items())
    assert set(memo) <= {t.serialize() for t in pool}


@given(st.integers(0, 50_000))
@settings(max_examples=40, deadline=None)
def test_coordinates_additive(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(2, 5)
    t1 = random_tree(rng, list(range(1, n + 1)))
    t2 = random_tree(rng, list(range(1, n + 1)))
    c1 = to_lyndon_coordinates(t1, n)
    c2 = to_lyndon_coordinates(t2, n)
    v = parse_tree_vector(f"{t1} {t2}")
    if v.is_zero:
        return
    assert to_lyndon_coordinates(v, n) == [a + b for a, b in zip(c1, c2)]


def test_ncpoly_truncation():
    x1 = NcPoly.letter(1, 2, 2)
    x2 = NcPoly.letter(2, 2, 2)
    p = (x1 * x2) * x1
    assert p.is_zero  # degree 3 beyond bound 2
    assert (x1 * x2).copy_terms() == {(1, 2): 1}


def test_expand_rejects_decorated():
    v = TreeVector.from_dict({parse_tree("[1{a},2]"): 1})
    with pytest.raises(LieError):
        expand(v)


def test_lyndon_tree_and_dynkin_bases_agree_over_z():
    # the straightening of every tree lies in the Z-span of the Lyndon
    # bracketings with unimodular change of basis on the basis trees
    for n in (3, 4):
        basis = lyndon_basis(n)
        mat = []
        for _, t in basis:
            coords = to_lyndon_coordinates(t, n)
            mat.append(coords)
        # identity by construction
        for i, row in enumerate(mat):
            assert row[i] == 1 and sum(map(abs, row)) == 1
