"""Fixtures and the independent oracles the tests check the library against."""

import random
from typing import Iterable, Sequence

import pytest

from jacobitrees.decorations import (
    DecorationError,
    DecoratedVector,
    _tuple_of,
    decorated_normal_form,
)
from jacobitrees.intlinalg import SnfResult, snf_from_rows
from jacobitrees.relations import RelationSet, as_relations, ihx_relations
from jacobitrees.trees import Tree, TreeVector, decorate, leaf, tree_list
from jacobitrees.words import Word


def random_tree(rng: random.Random, labels: list[int]) -> Tree:
    """Uniform-ish random planar tree on the given labels."""
    if len(labels) == 1:
        return leaf(labels[0])
    k = rng.randint(1, len(labels) - 1)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    return Tree(None, random_tree(rng, shuffled[:k]), random_tree(rng, shuffled[k:]))


@pytest.fixture
def rng():
    return random.Random(20240817)


def brute_force_trees(labels: Iterable[int]) -> list[Tree]:
    """Independent tree generation by right-to-left recursion.

    Splits on the right subtree first and recurses in a different order than
    the canonical enumerator, so agreement of the two outputs as sets is a
    meaningful check.
    """
    labels = tuple(labels)
    if len(labels) == 1:
        return [leaf(labels[0])]
    out = []
    items = sorted(labels, reverse=True)
    m = len(items)
    for mask in range(1, (1 << m) - 1):
        right_part = tuple(items[i] for i in range(m) if mask >> i & 1)
        left_part = tuple(x for x in items if x not in right_part)
        for rt in brute_force_trees(right_part):
            for lt in brute_force_trees(left_part):
                out.append(Tree(label=None, left=lt, right=rt))
    return out


def normalize(calc, m):
    """A bracket monomial of the braid calculus calc, fully normalised."""
    if m[0] == "g":
        return {m: 1}
    return calc.bracket(normalize(calc, m[1]), normalize(calc, m[2]))


def decorate_relations(
    rs: RelationSet, decorations: Sequence[Sequence[Word]]
) -> RelationSet:
    """Each vector once per decoration tuple, words attached by leaf label."""
    n = rs.degree
    tuples: list[tuple[Word, ...]] = []
    for tup in decorations:
        tup = tuple(tup)
        if len(tup) != n:
            raise ValueError(f"decoration tuple needs {n} words, got {len(tup)}")
        tuples.append(tup)

    def produce():
        for v in rs.vectors():
            for tup in tuples:
                mapping = {i + 1: w for i, w in enumerate(tup)}
                yield TreeVector.from_dict(
                    {decorate(t, mapping): c for t, c in v.terms}
                )

    return RelationSet(degree=n, producer=produce)


def is_zero_decorated(v: DecoratedVector) -> bool:
    return all(not any(c) for c in decorated_normal_form(v).values())


def decorated_rank(n: int, tuples: Sequence[Sequence[Word]]) -> SnfResult:
    """Cokernel of decorated AS+IHX on trees decorated from the given tuples,
    computed honestly over (tree, tuple) columns.

    Rank must come out (n-1)! per distinct reduced tuple, torsion-free.
    """
    norm_tuples: list[tuple[Word, ...]] = []
    seen = set()
    for tup in tuples:
        tup = tuple(tup)
        if len(tup) != n:
            raise DecorationError(f"tuple arity {len(tup)} != degree {n}")
        if tup in seen:
            continue  # compared after reduction: Word is reduced already
        seen.add(tup)
        norm_tuples.append(tup)
    basis_trees = tree_list(n)
    index: dict[tuple[int, tuple[Word, ...]], int] = {}
    for ti, tup in enumerate(norm_tuples):
        for bi in range(len(basis_trees)):
            index[(bi, tup)] = ti * len(basis_trees) + bi
    tree_pos = {t: i for i, t in enumerate(basis_trees)}

    def rows():
        for rs in (as_relations(n), ihx_relations(n)):
            decorated = decorate_relations(rs, norm_tuples)
            for vec in decorated.vectors():
                row: dict[int, int] = {}
                for t, c in vec.terms:
                    key = (tree_pos[t.tree], _tuple_of(t))
                    j = index[key]
                    row[j] = row.get(j, 0) + c
                yield {j: c for j, c in row.items() if c}

    return snf_from_rows(rows(), cols=len(basis_trees) * len(norm_tuples))
