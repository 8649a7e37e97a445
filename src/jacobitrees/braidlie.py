"""Bracket calculus for orbit classes of ordered configurations.

Generators p(a, b) stand for the spherical class "point a orbits point b"
in a configuration of ordered points; they satisfy the infinitesimal-braid
relations

    p(a, b) = sigma * p(b, a),
    [p(a, b), p(c, d)] = 0                      for disjoint {a,b}, {c,d},
    [p(a, b), p(z, a) + p(z, b)] = 0            for any third point z,

with brackets graded by a generator parity gamma (0 = ungraded, 1 = odd).
Consistency of the three relations forces sigma * (-1)^gamma = 1, so one
bit fixes both: `odd`, the parity of the ambient dimension, with sigma = -1
and gamma = 1 when odd and sigma = +1, gamma = 0 when even.

Elements decompose over layers (the largest point index of a word); the
layer-normal form rewrites any bracket into words whose leaves all share
the top mover.  Multilinear top-layer words are planar binary trees, and
`top_layer_vector` is the one extraction from normalised elements to tree
vectors: one walk per word builds its tree, its leaf-order sign, or drops it.

The quadratic-relation generator lives here: for each Lyndon word of length
n over the spokes p(n, 1..n-1) that uses every spoke and hence doubles
exactly one of them, the alternating sum of the two point-doubling maps at
the doubled spoke's endpoints lands in the multilinear top layer.  Each
doubling evaluates the word bilinearly on sums of generators at its leaves.
Those images, read as integer tree vectors, span the relation lattice that
the quotient tables of the CLI measure.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable
from functools import lru_cache

from .lie import is_lyndon, standard_factorization
from .trees import Tree, TreeVector, leaf

# monomials: ("g", mover, target) with mover > target, or
# ("b", left, right, weight, layer) built by _node
Mono = tuple
Element = dict[Mono, int]
Items = tuple[tuple[Mono, int], ...]


def gen(a: int, b: int, odd: bool) -> tuple[Mono, int]:
    """Canonically oriented generator with its orientation sign sigma."""
    if a == b:
        raise ValueError("generator needs two distinct points")
    if a > b:
        return ("g", a, b), 1
    return ("g", b, a), -1 if odd else 1


def layer(m: Mono) -> int:
    """The one mover on the leaves of a pure word, hence its largest: a
    generator's own, or the one _node stored in a bracket word."""
    return m[1] if m[0] == "g" else m[4]


def _node(a: Mono, b: Mono) -> Mono:
    """The bracket word [a, b] of two pure words with the same mover, with
    its number of generators and its layer."""
    weight = (1 if a[0] == "g" else a[3]) + (1 if b[0] == "g" else b[3])
    return ("b", a, b, weight, a[1] if a[0] == "g" else a[4])


def _parity(m: Mono, odd: bool) -> int:
    # ungraded: every word is even, without reading it
    return (1 if m[0] == "g" else m[3]) % 2 if odd else 0


def _add(acc: Element, m: Mono, c: int) -> None:
    if c:
        nv = acc.get(m, 0) + c
        if nv:
            acc[m] = nv
        else:
            del acc[m]


def _scale(items: Iterable[tuple[Mono, int]], c: int) -> Items:
    return tuple((m, c * v) for m, v in items) if c else ()


class BraidCalculus:
    """Layer-normal-form rewriter for one parity, with memoised products."""

    def __init__(self, odd: bool):
        self.odd = odd
        self._pair_cache: dict[tuple[Mono, Mono], Items] = {}

    # -- bracket of two pure-layer words ------------------------------------

    def bracket_pure(self, a: Mono, b: Mono) -> Items:
        """[a, b] for pure words, rewritten into pure-layer words.

        Returned as a tuple of (word, coefficient) items.  A same-layer
        bracket is the formal word itself and a lower-by-higher one the
        signed reverse, both built on the spot; only the cross-layer action
        layer(a) > layer(b) is memoised, in _pair_cache, which lives as long
        as the calculus: one relation family (see _calculus).
        """
        la, lb = layer(a), layer(b)
        if la == lb:
            return ((_node(a, b), 1),)
        if la < lb:
            sign = -((-1) ** (_parity(a, self.odd) * _parity(b, self.odd)))
            return _scale(self.bracket_pure(b, a), sign)
        key = (a, b)
        out = self._pair_cache.get(key)
        if out is None:
            out = self._pair_cache[key] = tuple(self._act(a, b).items())
        return out

    def _act(self, a: Mono, b: Mono) -> Element:
        """[a, b] with layer(a) > layer(b), result in layer(a)."""
        odd = self.odd
        if b[0] == "g":
            if a[0] == "g":
                return dict(self._act_gen_gen(a, b))
            # [[a1,a2], b] = [a1,[a2,b]] - (-1)^{|a1||a2|} [a2,[a1,b]]
            a1, a2 = a[1], a[2]
            sign = (-1) ** (_parity(a1, odd) * _parity(a2, odd))
            out: Element = {}
            for w, c in self.bracket_pure(a2, b):
                for m, c2 in self.bracket_pure(a1, w):
                    _add(out, m, c * c2)
            for w, c in self.bracket_pure(a1, b):
                for m, c2 in self.bracket_pure(a2, w):
                    _add(out, m, -sign * c * c2)
            return out
        # [a, [b1,b2]] = [[a,b1],b2] + (-1)^{|a||b1|} [b1,[a,b2]]
        b1, b2 = b[1], b[2]
        sign = (-1) ** (_parity(a, odd) * _parity(b1, odd))
        out = {}
        for w, c in self.bracket_pure(a, b1):
            for m, c2 in self.bracket_pure(w, b2):
                _add(out, m, c * c2)
        for w, c in self.bracket_pure(a, b2):
            for m, c2 in self.bracket_pure(b1, w):
                _add(out, m, sign * c * c2)
        return out

    def _act_gen_gen(self, a: Mono, b: Mono) -> Items:
        """Single generators, layer(a) > layer(b): the three point rules."""
        _, s, u = a
        _, t, v = b
        if u != t and u != v:
            return ()  # disjoint supports commute
        if u == t:
            # [p(s,t), p(t,v)] = -[p(s,t), p(s,v)]
            g2, orient = gen(s, v, self.odd)
            return _scale(self.bracket_pure(a, g2), -orient)
        # u == v: [p(s,v), p(t,v)] = -sigma [p(s,v), p(s,t)]
        g2, orient = gen(s, t, self.odd)
        return _scale(self.bracket_pure(a, g2), orient if self.odd else -orient)

    # -- brackets of sums -----------------------------------------------------

    def bracket(self, left: Element, right: Element) -> Element:
        """Bilinear bracket of two normalised elements, normalised."""
        out: Element = {}
        for ma, ca in left.items():
            for mb, cb in right.items():
                for mm, cc in self.bracket_pure(ma, mb):
                    _add(out, mm, ca * cb * cc)
        return out


# ---------------------------------------------------------------------------
# word combinatorics for the relation sources


def _word_bracket(w: tuple[int, ...], mover: int) -> Mono:
    """Standard Lyndon bracketing over generators p(mover, letter)."""
    if len(w) == 1:
        return ("g", mover, w[0])
    u, v = standard_factorization(w)
    return _node(_word_bracket(u, mover), _word_bracket(v, mover))


def source_words(n: int) -> list[tuple[int, ...]]:
    """Surjective Lyndon words of length n over the letters 1..n-1.

    Each uses every letter and therefore repeats exactly one; they form a
    basis of the normalised weight-n part one column to the right of the
    quotient the doubling differential lands in.  A Lyndon word starts with
    its least letter, 1; when 1 is not the doubled letter it is the only
    1, so every arrangement of the other letters after it is Lyndon.
    """
    if n < 3:
        return []
    out = []
    for doubled in range(1, n):
        for tail in set(itertools.permutations([*range(2, n), doubled])):
            if doubled != 1 or is_lyndon((1, *tail)):
                out.append((1, *tail))
    return sorted(out)


# ---------------------------------------------------------------------------
# the doubling differential


@lru_cache(maxsize=1)
def _calculus(odd: bool, n: int) -> BraidCalculus:
    """One calculus per relation family, so its memo goes when the next starts."""
    return BraidCalculus(odd)


def _bilinear(m: Mono, leaf_sum: Callable, product: Callable) -> Element:
    """The bracket m evaluated bilinearly: each leaf ("g", mover, x) becomes
    the element leaf_sum(x), each node the product of its children's."""
    if m[0] == "g":
        return leaf_sum(m[2])
    return product(_bilinear(m[1], leaf_sum, product), _bilinear(m[2], leaf_sum, product))


def _formal_product(left: Element, right: Element) -> Element:
    return {_node(a, b): ca * cb for a, ca in left.items() for b, cb in right.items()}


def doubling_image(w: tuple[int, ...], n: int, odd: bool) -> TreeVector:
    """Image of the source word under the alternating doubling sum.

    Only the two endpoints of the doubled spoke contribute, and each
    doubling is the bracket evaluated bilinearly on sums at the leaves:
    doubling the repeated target t puts g(n+1, t) + g(n+1, t+1) at its two
    leaf occurrences, and doubling the mover n puts g(n, x) + g(n+1, x) at
    every leaf.  Terms that miss a point of the enlarged configuration
    repeat a target or stay below the top layer; the multilinear words of
    the top layer that remain are read off as trees.
    """
    t = next(c for c, k in Counter(w).items() if k == 2)
    return bracket_doubling_image(_word_bracket(w, n), t, n, odd)


def bracket_doubling_image(bracket: Mono, t: int, n: int, odd: bool) -> TreeVector:
    """doubling_image for an arbitrary bracketing of the source letters.

    Images of non-standard bracketings stay inside the lattice spanned by
    the Lyndon-word sources (linearity); exposed for that cross-check.
    """
    calc = _calculus(odd, n)
    acc: Element = {}

    # double the repeated target t: copies {t, t+1}, targets above t shift up;
    # giving both t-leaves one copy repeats a target.  The words are pure in
    # layer n+1, hence already normal: the product is the formal one.
    def target_sum(x: int) -> Element:
        if x == t:
            return {("g", n + 1, t): 1, ("g", n + 1, t + 1): 1}
        return {("g", n + 1, x if x < t else x + 1): 1}

    for mono, c in _bilinear(bracket, target_sum, _formal_product).items():
        _add(acc, mono, c * (-1) ** t)

    # double the mover n: copies {n, n+1}, each leaf picks a copy.  The two
    # choices that leave a copy unused stay in layer n or repeat a target.
    def mover_sum(x: int) -> Element:
        return {("g", n, x): 1, ("g", n + 1, x): 1}

    for mono, c in _bilinear(bracket, mover_sum, calc.bracket).items():
        _add(acc, mono, c * (-1) ** n)

    return top_layer_vector(acc, n, odd)


def top_layer_vector(elem: Element, n: int, odd: bool) -> TreeVector:
    """The multilinear words of layer n+1 in a normalised element, as trees.

    One walk per word builds its tree and drops the word at the first
    generator whose mover is not n+1 or whose target repeats.  Normalisation
    keeps every word at n generators, all with targets below their mover,
    so a word that survives uses each of the points 1..n exactly once.  In
    odd dimension a tree takes the parity of its leaf-target word as sign:
    the correction between odd-graded bracket words and ungraded trees.
    """
    top = n + 1

    def walk(m: Mono) -> Tree | None:
        if m[0] == "g":
            if m[1] != top or m[2] in targets:
                return None
            targets.append(m[2])
            return leaf(m[2])
        left = walk(m[1])
        if left is None:
            return None
        right = walk(m[2])
        return None if right is None else Tree(None, left, right)

    terms: dict[Tree, int] = {}
    for mono, c in elem.items():
        targets: list[int] = []
        tree = walk(mono)
        if tree is None:
            continue
        if odd:
            for i, x in enumerate(targets):
                for y in targets[i + 1:]:
                    if x > y:
                        c = -c
        terms[tree] = terms.get(tree, 0) + c
    return TreeVector.from_dict(terms) if any(terms.values()) else TreeVector.zero(n)
