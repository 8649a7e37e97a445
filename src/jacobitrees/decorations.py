"""Decorated quotients: trees with free-group decorations per leaf.

The decorated group is the tensor product of the undecorated quotient with
the group ring on decoration tuples, so normal forms split per tuple:
group the terms by (reduced) decoration tuple and take Lyndon coordinates
of each undecorated piece.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lie import to_lyndon_coordinates
from .trees import DecoratedTree, Tree, TreeVector
from .words import _GEN_RE, Word


class DecorationError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated free group, named generators."""

    generators: tuple[str, ...]

    def __post_init__(self):
        if not self.generators:
            raise DecorationError("group needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise DecorationError("generator names must be distinct")
        for g in self.generators:
            if not _GEN_RE.match(g):
                raise DecorationError(f"bad generator name {g!r}")


@dataclass(frozen=True)
class DecoratedVector:
    """A decorated TreeVector over a declared free group."""

    vector: TreeVector
    group: GroupSpec

    def __post_init__(self):
        if not self.vector.decorated:
            raise DecorationError("vector must be in decorated mode")
        allowed = set(self.group.generators)
        for t, _ in self.vector.terms:
            for _, w in t.decorations:
                unknown = w.generators() - allowed
                if unknown:
                    raise DecorationError(
                        f"decoration uses generators {sorted(unknown)} "
                        f"outside the group"
                    )


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
