import json
import math
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from jacobitrees.relations import rewrites, swap_rule
from jacobitrees.trees import (
    DecoratedTree,
    ParseError,
    Tree,
    TreeError,
    TreeVector,
    decorate,
    enumerate_trees,
    graft,
    leaf,
    parse_tree,
    parse_tree_vector,
    to_json,
    tree_count,
    tree_list,
)
from jacobitrees.words import Word, parse_word

from conftest import brute_force_trees, random_tree


def test_counts_small():
    assert len(list(enumerate_trees(1))) == 1
    assert len(list(enumerate_trees(2))) == 2  # two trees in degree 2
    assert len(list(enumerate_trees(3))) == 12
    assert len(list(enumerate_trees(4))) == 120


def test_count_formula():
    for n in range(1, 7):
        assert tree_count(n) == math.factorial(2 * n - 2) // math.factorial(n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_brute_force(n):
    ours = {t.serialize() for t in enumerate_trees(n)}
    brute = {t.serialize() for t in brute_force_trees(range(1, n + 1))}
    assert ours == brute
    assert len(ours) == tree_count(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_sorted_no_duplicates(n):
    serials = [t.serialize() for t in enumerate_trees(n)]
    assert serials == sorted(serials)
    assert len(serials) == len(set(serials))


def test_enumeration_cap_error():
    with pytest.raises(TreeError, match="cap"):
        list(enumerate_trees(0))
    with pytest.raises(TreeError, match="cap"):
        list(enumerate_trees(9))


def test_graft_basic():
    t = graft(leaf(1), leaf(2))
    assert t.serialize() == "[1,2]"
    t3 = graft(t, leaf(3))
    assert t3.serialize() == "[[1,2],3]"
    assert t3.degree == 3


def test_graft_overlap_error():
    with pytest.raises(TreeError, match=r"\[2\]"):
        graft(graft(leaf(1), leaf(2)), leaf(2))


def test_unique_root_decomposition():
    for t in enumerate_trees(4):
        assert t.serialize() == graft(t.left, t.right).serialize()


def test_graft_injective_on_pairs(rng):
    seen = {}
    for _ in range(200):
        k = rng.randint(2, 5)
        labels = list(range(1, k + 1))
        t = random_tree(rng, labels)
        key = (t.left.serialize(), t.right.serialize())
        if key in seen:
            assert seen[key] == t.serialize()
        seen[key] = t.serialize()


def _swaps(t):
    return [s for (s,) in rewrites(t, swap_rule)]


def test_swap_at_root():
    # AS rewrites come root first, then left to right
    assert _swaps(parse_tree("[1,2]")) == [parse_tree("[2,1]")]
    assert _swaps(parse_tree("[[1,2],3]")) == [
        parse_tree("[3,[1,2]]"),
        parse_tree("[[2,1],3]"),
    ]


@given(st.integers(0, 10_000))
def test_swap_involution(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(2, 5)
    t = random_tree(rng, list(range(1, n + 1)))
    swaps = _swaps(t)
    assert len(swaps) == n - 1
    # swapping at a vertex keeps its place in the order of the vertices
    i = rng.randrange(len(swaps))
    assert _swaps(swaps[i])[i] == t


def test_parse_examples():
    t = parse_tree("[[1,2],3]")
    assert isinstance(t, Tree)
    assert t.right == leaf(3)
    d = parse_tree("[1{a},2{a^-1 b}]")
    assert isinstance(d, DecoratedTree)
    deco = d.decoration_map()
    assert str(deco[1]) == "a"
    assert deco[2] == parse_word("a^-1 b")


def test_parse_duplicate_label():
    with pytest.raises(ParseError, match="duplicate"):
        parse_tree("[1,1]")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError, match="position"):
        parse_tree("[1,2")
    with pytest.raises(ParseError, match="position"):
        parse_tree("[1,]")


def test_parse_partial_decorations_get_identity():
    d = parse_tree("[1{a},[2,3]]")
    assert isinstance(d, DecoratedTree)
    assert d.decoration_map()[2].is_identity
    # identity decorations print as {} so decorated trees round-trip
    assert d.serialize() == "[1{a},[2{},3{}]]"
    assert parse_tree(d.serialize()) == d


@given(st.integers(0, 100_000))
def test_serialize_parse_roundtrip(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(1, 6)
    t = random_tree(rng, list(range(1, n + 1)))
    assert parse_tree(t.serialize()) == t


def test_json_export():
    t = parse_tree("[[1,2],3]")
    obj = json.loads(to_json(t))
    assert obj == {"node": [{"node": [{"leaf": 1}, {"leaf": 2}]}, {"leaf": 3}]}
    d = decorate(parse_tree("[1,2]"), {1: parse_word("a"), 2: Word.identity()})
    obj = json.loads(to_json(d))
    assert obj == {"node": [{"leaf": 1, "dec": "a"}, {"leaf": 2, "dec": ""}]}


def test_tree_vector_arithmetic():
    a = TreeVector.single(parse_tree("[1,2]"))
    b = TreeVector.single(parse_tree("[2,1]"))
    v = a + b
    assert len(v.terms) == 2
    assert (v - v).is_zero
    assert v.scale(0).is_zero
    with pytest.raises(TreeError):
        TreeVector.single(parse_tree("[[1,2],3]")) + a


def test_tree_vector_mixed_modes_rejected():
    plain = TreeVector.single(parse_tree("[1,2]"))
    deco = TreeVector.single(parse_tree("[1{a},2]"))
    with pytest.raises(TreeError):
        plain + deco


def test_parse_tree_vector():
    v = parse_tree_vector("1*[1,2] 1*[2,1]")
    assert len(v.terms) == 2
    v2 = parse_tree_vector("-2*[1,2] +1*[1,2]")
    assert v2.as_dict() == {parse_tree("[1,2]"): -1}
    v3 = parse_tree_vector("[1,2] -1*[1,2]")
    assert v3.is_zero


# ---------------------------------------------------------------------------
# invariants of the stored key: Tree(4) and random trees up to degree 7


def _oracle_serialize(t):
    if t.label is not None:
        return str(t.label)
    return "[" + _oracle_serialize(t.left) + "," + _oracle_serialize(t.right) + "]"


def _oracle_degree(t):
    if t.label is not None:
        return 1
    return _oracle_degree(t.left) + _oracle_degree(t.right)


def _oracle_labels(t):
    if t.label is not None:
        return {t.label}
    return _oracle_labels(t.left) | _oracle_labels(t.right)


def _invariant_sample():
    rng = random.Random(7)
    sample = list(tree_list(4))
    for _ in range(300):
        sample.append(random_tree(rng, list(range(1, rng.randint(1, 7) + 1))))
    return sample


def test_equality_is_equality_of_serialisations():
    sample = _invariant_sample()
    for a in sample:
        copy = parse_tree(_oracle_serialize(a))
        assert copy == a and hash(copy) == hash(a)
        for b in sample:
            assert (a == b) == (a.serialize() == b.serialize()), (a, b)
            assert (a != b) == (a.serialize() != b.serialize()), (a, b)
            if a == b:
                assert hash(a) == hash(b)


def test_stored_key_degree_and_labels_match_recursion():
    for t in _invariant_sample():
        assert t.serialize() == str(t) == _oracle_serialize(t)
        assert t.degree == _oracle_degree(t)
        assert t.labels() == _oracle_labels(t)


def test_tree_is_immutable():
    t = parse_tree("[[1,2],3]")
    for name in ("label", "left", "right", "degree", "_key", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, leaf(1))
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert t.serialize() == "[[1,2],3]" and t.degree == 3
    assert pickle.loads(pickle.dumps(t)) == t


def test_tree_never_equals_decorated_tree():
    for t in tree_list(4):
        d = decorate(t, {k: Word.identity() for k in t.labels()})
        assert t != d and d != t
        assert not (t == d) and not (d == t)
    assert leaf(1) != "1" and leaf(1) != 1


def test_leaf_is_shared():
    for k in (1, 2, 7, 12):
        assert leaf(k) is leaf(k)
    t = parse_tree("[[1,2],3]")
    assert t.left.left is leaf(1) and t.right is leaf(3)


def test_long_leaf_labels_rejected_fast():
    # the second is beyond the digits int() converts
    for label in ("9" * 12, "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(TreeError):
            parse_tree(f"[1,{label}]")
        assert time.perf_counter() - start < 0.25
