
import pytest
from hypothesis import given, settings, strategies as st

from jacobitrees.lie import expand
from jacobitrees.magnus import (
    MagnusError,
    magnus_agreement,
    magnus_expand,
    tree_to_word,
)
from jacobitrees.trees import enumerate_trees, leaf, parse_tree
from jacobitrees.words import parse_word

from conftest import random_tree, truncated_product


def test_tree_to_word_leaf():
    assert str(tree_to_word(leaf(1))) == "x1"


def test_tree_to_word_commutator():
    assert str(tree_to_word(parse_tree("[1,2]"))) == "x1 x2 x1^-1 x2^-1"


def test_tree_to_word_degree3():
    # one inductive step plus free reduction
    w = tree_to_word(parse_tree("[[1,2],3]"))
    assert str(w) == "x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exponent_sums_vanish(n):
    # the coefficient of Xi in the Magnus expansion is the exponent sum of xi
    alphabet = [f"x{i}" for i in range(1, n + 1)]
    for t in enumerate_trees(n):
        assert magnus_expand(tree_to_word(t), 1, alphabet) == {(): 1}


def test_magnus_single_generator():
    assert magnus_expand(parse_word("x1"), 3, ["x1"]) == {(): 1, (1,): 1}


def test_magnus_identity_word():
    assert magnus_expand(parse_word("x1 x1^-1"), 4, ["x1"]) == {(): 1}


def test_magnus_commutator_truncated():
    assert magnus_expand(parse_word("x1 x2 x1^-1 x2^-1"), 2, ["x1", "x2"]) == {(): 1, (1, 2): 1, (2, 1): -1}


def test_magnus_inverse_series():
    assert magnus_expand(parse_word("x1^-1"), 3, ["x1"]) == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}


def test_truncation_error():
    with pytest.raises(MagnusError):
        magnus_expand(parse_word("x1"), 0, ["x1"])
    with pytest.raises(MagnusError):
        magnus_expand(parse_word("x2"), 2, ["x1"])


def test_leading_term_routes_agree_degree3():
    t = parse_tree("[[1,2],3]")
    full = magnus_expand(tree_to_word(t), 3, ["x1", "x2", "x3"])
    assert {w: c for w, c in full.items() if len(w) == 3} == expand(t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_agreement_exhaustive(n):
    alphabet = [f"x{i}" for i in range(1, n + 1)]
    for t in enumerate_trees(n):
        assert magnus_agreement(t, magnus_expand(tree_to_word(t), n, alphabet))


def test_intermediate_degrees_vanish():
    t = parse_tree("[[1,2],[3,4]]")
    full = magnus_expand(tree_to_word(t), 4, [f"x{i}" for i in range(1, 5)])
    assert full.pop(()) == 1
    assert all(len(w) == 4 for w in full)
    assert full == expand(t)


_rand_words = st.lists(
    st.sampled_from(("x1", "x2", "x3", "x1^-1", "x2^-1", "x3^-1")), max_size=8
).map(" ".join).map(parse_word)


@given(_rand_words, _rand_words)
@settings(max_examples=60, deadline=None)
def test_magnus_multiplicative(u, v):
    alphabet = ["x1", "x2", "x3"]
    pu = magnus_expand(u, 4, alphabet)
    pv = magnus_expand(v, 4, alphabet)
    assert magnus_expand(u * v, 4, alphabet) == truncated_product(pu, pv, 4)


def test_random_trees_agree(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        t = random_tree(rng, list(range(1, n + 1)))
        alphabet = [f"x{i}" for i in range(1, n + 1)]
        assert magnus_agreement(t, magnus_expand(tree_to_word(t), n, alphabet))


def test_agreement_on_the_callers_expansion(magnus_expansions):
    # the magnus command hands over its own expansion, truncated at
    # --truncate >= the degree.  On every tree through degree 5 and on
    # criterion 7's 24 trees of degree 6 it gives True, truncated one degree
    # higher too (below degree 5, where a second expansion is cheap), and
    # one more word of degree n - 1 or n turns it
    for t, word, full in magnus_expansions.cases:
        n = t.degree
        assert magnus_agreement(t, full) is True
        if n < 5:
            alphabet = [f"x{i}" for i in range(1, n + 1)]
            assert magnus_agreement(t, magnus_expand(word, n + 1, alphabet))
        for d in {max(n - 1, 1), n}:
            w = (1,) * d
            assert not magnus_agreement(t, {**full, w: full.get(w, 0) + 1}), (t, d)
