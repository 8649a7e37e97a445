"""Decorated quotients: trees with free-group decorations per leaf.

The decorated group is the tensor product of the undecorated quotient with
the group ring on decoration tuples, so normal forms split per tuple:
group the terms by (reduced) decoration tuple and take Lyndon coordinates
of each undecorated piece.
"""

from __future__ import annotations

from ._value import _set, _Value
from .lie import to_lyndon_coordinates
from .trees import DecoratedTree, Tree, TreeVector
from .words import Word, is_generator_name


class DecorationError(ValueError):
    pass


class GroupSpec(_Value):
    """A finitely generated free group, named generators."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[str, ...]):
        if not generators:
            raise DecorationError("group needs at least one generator")
        if len(set(generators)) != len(generators):
            raise DecorationError("generator names must be distinct")
        for g in generators:
            if not is_generator_name(g):
                raise DecorationError(f"bad generator name {g!r}")
        _set(self, "generators", generators)


class DecoratedVector(_Value):
    """A decorated TreeVector over a declared free group."""

    __slots__ = ("vector", "group")

    def __init__(self, vector: TreeVector, group: GroupSpec):
        if not vector.decorated:
            raise DecorationError("vector must be in decorated mode")
        allowed = set(group.generators)
        for t, _ in vector.terms:
            for _, w in t.decorations:
                unknown = w.generators() - allowed
                if unknown:
                    raise DecorationError(
                        f"decoration uses generators {sorted(unknown)} "
                        f"outside the group"
                    )
        _set(self, "vector", vector)
        _set(self, "group", group)


def _tuple_of(t: DecoratedTree) -> tuple[Word, ...]:
    deco = t.decoration_map()
    return tuple(deco[k] for k in sorted(deco))


def decorated_normal_form(
    v: DecoratedVector,
) -> dict[tuple[Word, ...], list[int]]:
    """Lyndon coordinates of each decoration-tuple block; v = 0 iff all zero."""
    n = v.vector.degree
    blocks: dict[tuple[Word, ...], dict[Tree, int]] = {}
    for t, c in v.vector.terms:
        key = _tuple_of(t)
        blocks.setdefault(key, {})
        blocks[key][t.tree] = blocks[key].get(t.tree, 0) + c
    return {
        key: to_lyndon_coordinates(TreeVector.from_dict(terms), n)
        for key, terms in blocks.items()
    }
