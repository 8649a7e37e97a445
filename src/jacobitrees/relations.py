"""Integer relation lattices on Z[Tree(n)]: AS, IHX and the quadratic stu
relations presenting the Jacobi-tree quotients.

Relation vectors are produced by streaming generators; RelationSet wraps a
re-runnable producer so several consumers can traverse independently.
Nothing is deduplicated: the span is what matters downstream.

The two quadratic families are generated by the doubling differential of
braidlie, one bracket model per ambient-dimension parity:

    odd  -> BraidModel(sigma=-1, gamma=1)
    even -> BraidModel(sigma=+1, gamma=0)

Each instance comes from a doubled spoke resolved two ways at each of its
two endpoints.  Audited minimal instances (degree 3, source word (1,2,2),
doubled spoke t=2), as emitted:

    odd :  -[1,[2,3]] - [2,[3,1]] + [[1,2],3] - [[1,3],2]
    even:  +[1,[2,3]] - [2,[3,1]] + [[1,2],3] + [[1,3],2]

Four terms with unit coefficients, the same four trees in both parities,
with the sign flips between the families exactly on the terms whose leaf
order is an odd permutation.  Deeper embeddings rewrite to more than four
tree terms; the two-vertex/two-resolution source structure is unchanged.
The quotient tables (ranks 0,1,1,2,3,5 odd and 0,1,1,0,2,1 even for
n = 1..6, and 8 for n = 7 odd) pin this transcription.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from . import braidlie
from .trees import Tree, TreeVector, enumerate_trees


class RelationKind(str, Enum):
    AS = "as"
    IHX = "ihx"
    STU2_ODD = "stu2_odd"
    STU2_EVEN = "stu2_even"


@dataclass
class RelationSet:
    """A re-iterable family of homogeneous relation vectors."""

    degree: int
    kind: RelationKind
    producer: Callable[[], Iterator[TreeVector]]

    def vectors(self) -> Iterator[TreeVector]:
        return self.producer()

    def dump(self) -> Iterator[str]:
        for v in self.vectors():
            yield v.serialize()


def rewrites(t: Tree, rule: Callable) -> Iterator[tuple[Tree, ...]]:
    """For each internal vertex of t, root first and then left to right, and
    each tuple of trees rule(vertex) yields, that tuple with every tree put
    in the vertex's place in t."""
    if t.is_leaf:
        return
    yield from rule(t)
    for new in rewrites(t.left, rule):
        yield tuple(Tree(None, x, t.right) for x in new)
    for new in rewrites(t.right, rule):
        yield tuple(Tree(None, t.left, x) for x in new)


def swap_rule(node: Tree) -> Iterator[tuple[Tree]]:
    """AS: the vertex with its two children exchanged."""
    yield (Tree(None, node.right, node.left),)


def jacobi_rule(node: Tree) -> Iterator[tuple[Tree, Tree]]:
    """IHX: the two regroupings at each internal edge to a child, left first.

    With D the child's sibling and the child carrying (A, B), each vector
    below expands to zero under the commutator expansion:
      child on the left:  [[A,B],D] - [[A,D],B] - [A,[B,D]]
      child on the right: [D,[A,B]] - [[D,A],B] - [A,[D,B]]
    """
    if not node.left.is_leaf:
        a, b, d = node.left.left, node.left.right, node.right
        yield Tree(None, Tree(None, a, d), b), Tree(None, a, Tree(None, b, d))
    if not node.right.is_leaf:
        d, a, b = node.left, node.right.left, node.right.right
        yield Tree(None, Tree(None, d, a), b), Tree(None, a, Tree(None, d, b))


def as_relations(n: int) -> RelationSet:
    """Gamma + (Gamma swapped at v), one vector per (tree, internal vertex)."""
    if n < 1:
        raise ValueError("degree must be >= 1")

    def produce() -> Iterator[TreeVector]:
        for t in enumerate_trees(n):
            # t and its swap differ: the swapped children have disjoint
            # nonempty leaf sets
            for (s,) in rewrites(t, swap_rule):
                yield TreeVector.from_dict({t: 1, s: 1})

    return RelationSet(degree=n, kind=RelationKind.AS, producer=produce)


def ihx_relations(n: int) -> RelationSet:
    """One 3-term Jacobi vector per (tree, internal edge); empty for n < 3."""

    def produce() -> Iterator[TreeVector]:
        if n < 3:
            return
        for t in enumerate_trees(n):
            # three distinct trees: A, B and D have disjoint nonempty leaf sets
            for t1, t2 in rewrites(t, jacobi_rule):
                yield TreeVector.from_dict({t: 1, t1: -1, t2: -1})

    return RelationSet(degree=n, kind=RelationKind.IHX, producer=produce)


_PARITY_MODELS = {
    "odd": braidlie.MODEL_ODD_DIM,
    "even": braidlie.MODEL_EVEN_DIM,
}


def stu2_relations(n: int, parity: str) -> RelationSet:
    """The quadratic relation family for the requested dimension parity.

    Empty for n <= 2.  One vector per source word (see braidlie); vectors
    are emitted in rewritten tree-basis form, so term counts vary with the
    embedding even though each instance arises from two two-way vertex
    resolutions.
    """
    if parity not in _PARITY_MODELS:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    model = _PARITY_MODELS[parity]
    kind = RelationKind.STU2_ODD if parity == "odd" else RelationKind.STU2_EVEN

    def produce() -> Iterator[TreeVector]:
        for w in braidlie.source_words(n):
            v = braidlie.doubling_image(w, n, model)
            if not v.is_zero:
                yield v

    return RelationSet(degree=n, kind=kind, producer=produce)


def relation_union(sets: Iterable[RelationSet]) -> Iterator[TreeVector]:
    for rs in sets:
        yield from rs.vectors()


def build_relation_sets(
    n: int, kinds: Sequence[str], parity: str | None = None
) -> list[RelationSet]:
    """Resolve textual kind names ("as", "ihx", "stu2") into RelationSets."""
    out = []
    for kind in kinds:
        kind = kind.strip().lower()
        if kind == "as":
            out.append(as_relations(n))
        elif kind == "ihx":
            out.append(ihx_relations(n))
        elif kind == "stu2":
            if parity is None:
                raise ValueError("stu2 relations need a parity")
            out.append(stu2_relations(n, parity))
        else:
            raise ValueError(f"unknown relation kind {kind!r}")
    return out
