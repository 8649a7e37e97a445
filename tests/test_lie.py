import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import itertools

from jacobitrees import lie
from jacobitrees.intlinalg import IntLattice
from jacobitrees.lie import (
    LieError,
    expand,
    is_lyndon,
    lyndon_words,
    straighten,
    straighten_vector,
    to_lyndon_coordinates,
)
from jacobitrees.relations import as_relations, ihx_relations
from jacobitrees.trees import (
    Tree,
    TreeVector,
    enumerate_trees,
    leaf,
    parse_tree,
    parse_tree_vector,
    tree_list,
)

import conftest
from conftest import expansion_coordinates, lyndon_basis, ncpoly_expand, random_tree


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
    assert expand(parse_tree("[1,2]")) == {(1, 2): 1, (2, 1): -1}


def test_expand_left_comb_degree3():
    # derived by hand / brute force: X1X2X3 - X2X1X3 - X3X1X2 + X3X2X1
    assert expand(parse_tree("[[1,2],3]")) == {
        (1, 2, 3): 1,
        (2, 1, 3): -1,
        (3, 1, 2): -1,
        (3, 2, 1): 1,
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expand_matches_oracle(n):
    for t in enumerate_trees(n):
        assert expand(t) == oracle_expand(t)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expand_multilinear(n):
    for t in enumerate_trees(n):
        for w in expand(t):
            assert sorted(w) == list(range(1, n + 1))


def test_as_ihx_expand_to_zero_small():
    for n in (2, 3, 4):
        for rs in (as_relations(n), ihx_relations(n)):
            for v in rs.vectors():
                assert expand(v) == {}


def test_graded_expand_even_matches_expand():
    for n in (2, 3, 4):
        for t in enumerate_trees(n):
            assert expand(t, odd=False) == expand(t)


def test_graded_expand_odd_degree2():
    assert expand(parse_tree("[1,2]"), odd=True) == {(1, 2): 1, (2, 1): 1}


def _span_rank(polys, n):
    words = sorted({w for p in polys for w in p})
    index = {w: i for i, w in enumerate(words)}
    lat = IntLattice(len(words))
    for p in polys:
        lat.add({index[w]: c for w, c in p.items()})
    return len(lat.pivot_rows)


@pytest.mark.parametrize("m", [1, 2])
def test_graded_span_rank_degree3(m):
    # generators of degree m: only the parity of m reaches the signs
    polys = [expand(t, odd=m % 2 == 1) for t in enumerate_trees(3)]
    assert _span_rank(polys, 3) == 2


def test_lyndon_basis_counts():
    assert len(lyndon_basis(2)) == 1
    assert [w for w, _ in lyndon_basis(3)] == [(1, 2, 3), (1, 3, 2)]
    assert len(lyndon_basis(5)) == 24
    for n in (2, 3, 4, 5):
        assert len(lyndon_basis(n)) == math.factorial(n - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_lyndon_words_are_the_sorted_multilinear_lyndon_words(n):
    # the column order of every Lyndon row and coordinate vector, and of
    # the basis the tests pair with bracketings
    words = [w for w in itertools.permutations(range(1, n + 1)) if is_lyndon(w)]
    assert list(lyndon_words(n)) == sorted(words)
    assert [w for w, _ in lyndon_basis(n)] == list(lyndon_words(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expand_equals_the_ncpoly_recursion(n):
    # every tree, plain and odd graded; and a vector as the sum of its
    # terms' expansions
    for t in enumerate_trees(n):
        assert expand(t) == ncpoly_expand(t, n)
        assert expand(t, odd=True) == ncpoly_expand(t, n, odd=True)
    trees = list(enumerate_trees(n))[:7]
    v = TreeVector.from_dict({t: i - 3 for i, t in enumerate(trees)})
    want = {}
    for t, c in v.terms:
        for w, cc in ncpoly_expand(t, n).items():
            want[w] = want.get(w, 0) + c * cc
    assert expand(v) == {w: c for w, c in want.items() if c}


def test_coordinates_match_straightening_on_a_sample_at_degree_6(rng):
    for _ in range(300):
        t = random_tree(rng, list(range(1, 7)))
        assert to_lyndon_coordinates(t, 6) == expansion_coordinates(t, 6)


def test_coordinates_refuse_a_word_outside_the_lyndon_span():
    # a degree-3 tree has no coordinates in the degree-2 or degree-4 basis
    for n in (2, 4):
        with pytest.raises(LieError, match=f"degree-3 vector .* degree {n}"):
            to_lyndon_coordinates(parse_tree("[[1,2],3]"), n)


def test_coordinates_refuse_leaves_other_than_1_to_n():
    # a tree built off the parser on leaves 2, 3 straightens to words
    # outside lyndon_words(2); the least is named
    with pytest.raises(LieError, match=r"word \(2, 3\)"):
        to_lyndon_coordinates(Tree(None, leaf(2), leaf(3)))


def test_coordinates_refuse_a_decorated_vector():
    v = parse_tree_vector("1*[1{a},2] 2*[2,1{b}]")
    with pytest.raises(LieError, match="undecorated"):
        to_lyndon_coordinates(v, 2)


@pytest.mark.parametrize("n, count", [(7, 20), (8, 5)])
def test_coordinates_match_the_expansion_above_degree_6(n, count):
    # plain reduce takes n = 7 and 8: seeded vectors of one to four random
    # trees, compared with the expansion solve
    rng = random.Random(7000 + n)
    for _ in range(count):
        trees = [random_tree(rng, list(range(1, n + 1))) for _ in range(rng.randint(1, 4))]
        v = TreeVector.from_dict({t: rng.choice((-3, -1, 1, 2)) for t in trees})
        assert to_lyndon_coordinates(v, n) == expansion_coordinates(v, n)


def test_the_expansion_oracle_never_straightens(monkeypatch, rng):
    # the agreement tests compare two algorithms only while the oracle stays
    # off the straightening: run it cold with the straightening disabled
    def refuse(*args):
        raise AssertionError("the expansion oracle straightened")

    vectors = [lyndon_basis(4)[1][1], parse_tree_vector("2*[[1,2],3] -1*[3,[2,1]]")]
    for n in (5, 6):
        trees = [random_tree(rng, list(range(1, n + 1))) for _ in range(3)]
        vectors += [trees[0], TreeVector.from_dict({t: i + 1 for i, t in enumerate(trees)})]
    for name in ("straighten", "_lyndon_product", "straighten_vector"):
        monkeypatch.setattr(lie, name, refuse)
    conftest._bracketing_expansion.cache_clear()
    oracle = [expansion_coordinates(v, v.degree) for v in vectors]
    monkeypatch.undo()
    assert oracle == [to_lyndon_coordinates(v) for v in vectors]


def test_lyndon_words_are_lyndon():
    for n in (2, 3, 4, 5):
        for w, t in lyndon_basis(n):
            assert is_lyndon(w)
            assert t.degree == n


def test_lyndon_expansion_unitriangular():
    for n in (2, 3, 4, 5):
        for w, t in lyndon_basis(n):
            terms = expand(t)
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
        coords = expansion_coordinates(t, n)
        s = straighten(t)
        assert [s.get(w, 0) for w, _ in basis] == coords


def test_straighten_vector_linear(rng):
    n = 4
    t1 = random_tree(rng, [1, 2, 3, 4])
    t2 = random_tree(rng, [1, 2, 3, 4])
    v = parse_tree_vector(f"2*{t1} -3*{t2}")
    if v.is_zero:
        return
    s = straighten_vector(v, {})
    basis = lyndon_basis(n)
    assert [s.get(w, 0) for w, _ in basis] == expansion_coordinates(v, n)


def test_straighten_vector_memo_matches_fresh(rng):
    # one memo shared over a stream of vectors of mixed degrees, with trees
    # repeating across vectors: every result equals the one with a fresh
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
        assert straighten_vector(v, memo) == straighten_vector(v, {}) == summed(v)
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
