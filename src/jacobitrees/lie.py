"""Trees inside the free Lie ring on letters X1..Xn.

Two independent routes from trees to Lyndon coordinates live here:

* expansion: leaf i -> Xi, graft -> commutator, then strip leading words
  against the unitriangular expansions of the Lyndon bracketings;
* straightening: rewrite a bracketing into the Lyndon basis using only
  antisymmetry flips and Jacobi steps (the classical Lyndon-basis product).

The second route never divides and each of its steps is an AS or IHX lattice
move, so agreement of the two certifies that the span of AS and IHX
relations exhausts the kernel of expansion over the integers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .trees import Tree, TreeVector, graft, leaf

WordT = tuple[int, ...]


class LieError(ValueError):
    pass


@lru_cache(maxsize=200_000)
def _expansion(t: Tree, odd: bool) -> dict[WordT, int]:
    """expand(t, odd=odd) of one tree, shared by every caller: never
    mutated.  An expansion is homogeneous, so concatenating the words
    of the two children never merges two products."""
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


def expand(
    v: Tree | TreeVector, n: int | None = None, odd: bool = False
) -> dict[WordT, int]:
    """Commutator expansion: leaf i -> Xi, graft -> xy - yx, truncated at
    degree n (by default the degree of v), as a fresh {word: coefficient}
    dict with no zero coefficient.

    With odd generators, the Koszul-signed expansion
    graft -> xy - (-1)^(p*q) yx for subtrees of p and q leaves.
    """
    if n is None:
        n = v.degree
    if not isinstance(v, Tree) and v.decorated:
        raise LieError("expand applies to undecorated vectors")
    terms = ((v, 1),) if isinstance(v, Tree) else v.terms
    acc: dict[WordT, int] = {}
    for t, c in terms:
        if t.degree <= n:
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


def to_lyndon_coordinates(v: Tree | TreeVector, n: int | None = None) -> list[int]:
    """Exact integer coordinates of expand(v) in the Lyndon basis.

    Solved by stripping lexicographically-leading words; the expansion of the
    bracketing of a Lyndon word w is w plus lex-larger words, so the system
    is unitriangular over Z.  The Lyndon words are visited in lex order and
    only the bracketings of the words stripped are expanded.
    """
    nn = n if n is not None else v.degree
    poly = expand(v, nn)
    words = lyndon_words(nn)
    coords = [0] * len(words)
    for i, w in enumerate(words):
        c = poly.get(w)
        if c is None:
            continue
        coords[i] = c
        for ww, cc in _expansion(standard_bracketing(w), False).items():
            nv = poly.get(ww, 0) - c * cc
            if nv:
                poly[ww] = nv
            else:
                del poly[ww]
    if poly:
        # stripping w touches only words from w on, so this is the least
        # word the solve met outside the basis
        raise LieError(f"expansion not in the multilinear Lie span: word {min(poly)}")
    return coords


# ---------------------------------------------------------------------------
# straightening route (AS/Jacobi rewriting into the Lyndon basis)


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
