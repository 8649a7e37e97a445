import math

import pytest

from jacobitrees.decorations import (
    DecorationError,
    DecoratedVector,
    GroupSpec,
    decorated_normal_form,
)
from jacobitrees.lie import to_lyndon_coordinates
from jacobitrees.trees import TreeVector, decorate, leaf, parse_tree
from jacobitrees.words import Word, parse_word

from conftest import decorated_rank, is_zero_decorated

G2 = GroupSpec(("a", "b"))


def test_group_spec_validation():
    with pytest.raises(DecorationError):
        GroupSpec(())
    with pytest.raises(DecorationError):
        GroupSpec(("a", "a"))
    for bad in ("1bad", "é", "a-b"):
        with pytest.raises(DecorationError):
            GroupSpec((bad,))
    v = TreeVector.from_dict({parse_tree("[1{a b^-1},2]"): 1})
    assert DecoratedVector(vector=v, group=G2).group == G2


def test_decorated_vector_checks_group():
    v = TreeVector.from_dict({parse_tree("[1{c},2]"): 1})
    with pytest.raises(DecorationError):
        DecoratedVector(vector=v, group=G2)


def test_degree1_two_distinct_chords():
    g = parse_word("a")
    h = parse_word("b")
    chord_g = decorate(leaf(1), {1: g})
    chord_h = decorate(leaf(1), {1: h})
    v = TreeVector.from_dict({chord_g: 1, chord_h: -1})
    dv = DecoratedVector(vector=v, group=G2)
    blocks = decorated_normal_form(dv)
    assert blocks[(g,)] == [1]
    assert blocks[(h,)] == [-1]
    assert not is_zero_decorated(dv)


def test_degree2_as_pair_cancels():
    g1, g2 = parse_word("a"), parse_word("b")
    t = decorate(parse_tree("[1,2]"), {1: g1, 2: g2})
    # swapping the tree relabels leaves, so the same tuple decorates both
    t_swapped = decorate(parse_tree("[2,1]"), {1: g1, 2: g2})
    v = TreeVector.from_dict({t: 1, t_swapped: 1})
    dv = DecoratedVector(vector=v, group=G2)
    assert is_zero_decorated(dv)


def test_identity_decorations_match_undecorated():
    ident = Word.identity()
    tree = parse_tree("[[1,2],3]")
    v = TreeVector.from_dict({decorate(tree, {1: ident, 2: ident, 3: ident}): 1})
    dv = DecoratedVector(vector=v, group=G2)
    blocks = decorated_normal_form(dv)
    assert list(blocks.values()) == [to_lyndon_coordinates(tree, 3)]


def test_decorated_rank_degree2_three_tuples():
    tuples = [
        (parse_word("a"), parse_word("b")),
        (parse_word("b"), parse_word("a")),
        (parse_word("a b"), parse_word("a")),
    ]
    res = decorated_rank(2, tuples)
    assert res.free_rank == 3
    assert not res.torsion


def test_decorated_rank_degree1_two_elements():
    res = decorated_rank(1, [(Word.identity(),), (parse_word("a"),)])
    assert res.free_rank == 2


def test_decorated_rank_degree3_one_tuple():
    res = decorated_rank(3, [(parse_word("a"), parse_word("b"), parse_word("a b"))])
    assert res.free_rank == 2
    assert not res.torsion


def test_tensor_law_random_tuples(rng):
    for n in (2, 3):
        for trial in range(3):
            k = rng.randint(1, 4)
            tuples = []
            while len(tuples) < k:
                tup = tuple(
                    parse_word(
                        " ".join(
                            f"{rng.choice('ab')}^{rng.choice((1, -1))}"
                            for _ in range(rng.randint(0, 3))
                        )
                    )
                    for _ in range(n)
                )
                if tup not in tuples:
                    tuples.append(tup)
            res = decorated_rank(n, tuples)
            assert res.free_rank == math.factorial(n - 1) * len(tuples)
            assert not res.torsion


def test_word_reduction_stability():
    raw = (parse_word("a a^-1 b"), parse_word("a"))
    reduced = (parse_word("b"), parse_word("a"))
    assert raw == reduced  # parsing reduces eagerly
    res1 = decorated_rank(2, [raw])
    res2 = decorated_rank(2, [reduced])
    assert res1 == res2


def test_duplicate_tuples_collapse():
    tup = (parse_word("a"), parse_word("b"))
    res = decorated_rank(2, [tup, tup])
    assert res.free_rank == 1


def test_arity_mismatch():
    with pytest.raises(DecorationError):
        decorated_rank(2, [(parse_word("a"),)])
