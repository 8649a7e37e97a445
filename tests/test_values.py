"""The small value classes: equality and hash by fields, read-only fields."""

import importlib
import itertools
import pickle
import pkgutil

import pytest

import jacobitrees
from jacobitrees._value import _Value
from jacobitrees.decorations import DecoratedVector, GroupSpec
from jacobitrees.intlinalg import SnfResult
from jacobitrees.relations import RelationSet
from jacobitrees.trees import DecoratedTree, TreeVector, leaf, parse_tree, parse_tree_vector
from jacobitrees.words import Word


def no_vectors():
    return iter(())


# each class: two builds of one value, and a value that differs in one field
VALUES = {
    Word: (lambda: Word((("a", 1),)), lambda: Word((("a", -1),))),
    DecoratedTree: (
        lambda: parse_tree("[1{a},2{}]"), lambda: parse_tree("[1{a},2{b}]")
    ),
    TreeVector: (
        lambda: parse_tree_vector("2*[1,2]"), lambda: parse_tree_vector("3*[1,2]")
    ),
    GroupSpec: (lambda: GroupSpec(("a", "b")), lambda: GroupSpec(("b", "a"))),
    DecoratedVector: (
        lambda: DecoratedVector(parse_tree_vector("[1{a},2]"), GroupSpec(("a",))),
        lambda: DecoratedVector(parse_tree_vector("[1{a},2]"), GroupSpec(("a", "b"))),
    ),
    SnfResult: (lambda: SnfResult([1, 2], 2, 3), lambda: SnfResult([1], 1, 3)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_values_lists_every_value_class():
    # so no value class goes without the equality and read-only cases below
    for mod in pkgutil.iter_modules(jacobitrees.__path__):
        if mod.name != "__main__":  # which runs the CLI
            importlib.import_module(f"jacobitrees.{mod.name}")
    package = [c for c in _subclasses(_Value) if c.__module__.startswith("jacobitrees.")]
    assert len(package) == len(set(package)) == len(VALUES) == 6
    assert set(package) == set(VALUES)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_equality_is_by_fields(cls):
    make, make_other = VALUES[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if cls is SnfResult:  # its invariant factors are a list
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_values_of_different_classes_are_unequal():
    values = [make() for make, _ in VALUES.values()]
    values += [leaf(1), RelationSet(no_vectors)]
    for a, b in itertools.combinations(values, 2):
        assert a != b and b != a
    assert Word() != () and GroupSpec(("a",)) != ("a",)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_fields_are_read_only(cls):
    value = VALUES[cls][0]()
    before = repr(value)
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_a_relation_set_takes_a_new_producer():
    rs = RelationSet(no_vectors)
    vectors = [TreeVector.zero(2)]
    rs.producer = lambda: iter(vectors)
    assert list(rs.vectors()) == vectors


def test_repr_names_every_field():
    assert repr(GroupSpec(("a", "b"))) == "GroupSpec(generators=('a', 'b'))"
    assert repr(Word((("a", 1),))) == "Word(letters=(('a', 1),))"
    assert repr(SnfResult([2], 1, 1)) == (
        "SnfResult(invariant_factors=[2], rank=1, cols=1, probabilistic=False)"
    )
