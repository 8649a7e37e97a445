"""Trees inside the free Lie ring on letters X1..Xn.

Trees reach Lyndon coordinates by straightening: a bracketing is rewritten
into the Lyndon basis using only antisymmetry flips and Jacobi steps (the
classical Lyndon-basis product).  It never divides and each of its steps is
an AS or IHX lattice move, so the difference between a tree and its
straightening lies in the AS+IHX span by construction.

expand gives the commutator expansion into the tensor algebra (leaf i -> Xi,
graft -> commutator), the dicts the Magnus route compares with.  The tests
solve expansions against the unitriangular expansions of the Lyndon
bracketings, an independent second route, and check that it agrees with the
straightening: that certifies that the AS and IHX relations span the kernel
of expansion over the integers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .trees import Tree, TreeVector, graft, leaf

WordT = tuple[int, ...]


class LieError(ValueError):
    pass


def _expansion(t: Tree, odd: bool) -> dict[WordT, int]:
    """expand(t, odd=odd) of one tree.  An expansion is homogeneous, so
    concatenating the words of the two children never merges two products."""
    if t.is_leaf:
        return {(t.label,): 1}
    a, b = _expansion(t.left, odd), _expansion(t.right, odd)
    sign = 1 if odd and t.left.degree * t.right.degree % 2 else -1
    out = {wa + wb: ca * cb for wa, ca in a.items() for wb, cb in b.items()}
    for wb, cb in b.items():
        for wa, ca in a.items():
            w = wb + wa
            out[w] = out.get(w, 0) + sign * cb * ca
    return {w: c for w, c in out.items() if c}


def expand(v: Tree | TreeVector, *, odd: bool = False) -> dict[WordT, int]:
    """Commutator expansion: leaf i -> Xi, graft -> xy - yx, as a
    {word: coefficient} dict with no zero coefficient.

    With odd generators, the Koszul-signed expansion
    graft -> xy - (-1)^(p*q) yx for subtrees of p and q leaves.
    """
    if not isinstance(v, Tree) and v.decorated:
        raise LieError("expand applies to undecorated vectors")
    terms = ((v, 1),) if isinstance(v, Tree) else v.terms
    acc: dict[WordT, int] = {}
    for t, c in terms:
        for w, cc in _expansion(t, odd).items():
            acc[w] = acc.get(w, 0) + c * cc
    return {w: c for w, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Lyndon basis of the multilinear component


def is_lyndon(w: WordT) -> bool:
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def standard_factorization(w: WordT) -> tuple[WordT, WordT]:
    """w = u·v with v the lexicographically smallest proper suffix."""
    if len(w) < 2:
        raise LieError("cannot factor a single letter")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@lru_cache(maxsize=100_000)
def standard_bracketing(w: WordT) -> Tree:
    """The standard Lyndon bracketing as a planar tree."""
    if len(w) == 1:
        return leaf(w[0])
    u, v = standard_factorization(w)
    return graft(standard_bracketing(u), standard_bracketing(v))


@lru_cache(maxsize=16)
def lyndon_words(n: int) -> tuple[WordT, ...]:
    """Multilinear Lyndon words on 1..n in lex order.

    A multilinear word is Lyndon iff it starts with the letter 1, so there
    are (n-1)! of them; permutations of a sorted range come in lex order.
    """
    if n < 1:
        raise LieError("degree must be >= 1")
    return tuple((1, *perm) for perm in itertools.permutations(range(2, n + 1)))


# ---------------------------------------------------------------------------
# straightening (AS/Jacobi rewriting into the Lyndon basis)


@lru_cache(maxsize=500_000)
def _lyndon_product(u: WordT, v: WordT) -> tuple[tuple[WordT, int], ...]:
    """[lambda(u), lambda(v)] in the Lyndon basis, for Lyndon words u, v.

    Classical recursion: antisymmetry orients u < v; if the standard
    factorization of uv is (u, v) the product is the basis element uv,
    otherwise u = u1·u2 splits and Jacobi recurses.  Every step is an AS
    flip or a Jacobi move, so coefficients stay integral.
    """
    if u == v:
        return ()
    if u > v:
        return tuple((w, -c) for w, c in _lyndon_product(v, u))
    w = u + v
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        return ((w, 1),)
    u1, u2 = standard_factorization(u)
    acc: dict[WordT, int] = {}
    # [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
    for mid, c1 in _lyndon_product(u2, v):
        for res, c2 in _lyndon_product(u1, mid):
            acc[res] = acc.get(res, 0) + c1 * c2
    for mid, c1 in _lyndon_product(u1, v):
        for res, c2 in _lyndon_product(u2, mid):
            acc[res] = acc.get(res, 0) - c1 * c2
    return tuple(sorted((w, c) for w, c in acc.items() if c != 0))


def straighten(t: Tree) -> dict[WordT, int]:
    """Rewrite a tree into the Lyndon basis by AS/IHX moves only.

    Returns {lyndon word: coefficient}.  The difference between t and the
    returned combination of standard bracketings lies in the lattice spanned
    by AS and IHX relation vectors, by construction.
    """
    if t.is_leaf:
        return {(t.label,): 1}
    left = straighten(t.left)
    right = straighten(t.right)
    acc: dict[WordT, int] = {}
    for u, cu in left.items():
        for v, cv in right.items():
            for w, c in _lyndon_product(u, v):
                acc[w] = acc.get(w, 0) + cu * cv * c
    return {w: c for w, c in acc.items() if c != 0}


def straighten_vector(
    v: TreeVector,
    memo: dict[str, tuple[tuple[WordT, ...], tuple[int, ...]]],
) -> dict[WordT, int]:
    """straighten, extended linearly over the terms of v.

    memo maps the serialisation of a tree to its straightening, filled on a
    miss and held as two parallel tuples, the Lyndon words and their
    coefficients: under half the memory of one pair per item.  The caller
    owns it and sets its life: cli.lyndon_rows keeps one for one relation
    family, so each distinct tree of the family is straightened once.
    """
    acc: dict[WordT, int] = {}
    for t, c in v.terms:
        key = t.serialize()
        entry = memo.get(key)
        if entry is None:
            s = straighten(t)
            entry = memo[key] = (tuple(s), tuple(s.values()))
        for w, cc in zip(*entry):
            acc[w] = acc.get(w, 0) + c * cc
    return {w: c for w, c in acc.items() if c != 0}


def to_lyndon_coordinates(v: Tree | TreeVector, n: int | None = None) -> list[int]:
    """Exact integer coordinates of v in the Lyndon basis, in the order of
    lyndon_words(n): its straightening.  n, when given, is v's degree."""
    if n is not None and n != v.degree:
        raise LieError(f"a degree-{v.degree} vector has no coordinates in degree {n}")
    if isinstance(v, Tree):
        s = straighten(v)
    elif v.decorated:
        raise LieError("Lyndon coordinates apply to undecorated vectors")
    else:
        s = straighten_vector(v, {})
    coords = [s.pop(w, 0) for w in lyndon_words(v.degree)]
    if s:
        raise LieError(f"leaf labels are not 1..{v.degree}: word {min(s)}")
    return coords
