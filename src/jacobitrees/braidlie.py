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
vectors: each word's tree, its leaf-order sign, or its drop is read off its
two halves, each walked once per relation family.

A relation family (one degree and parity) shares its monomials: every word
its calculus builds, generators included, is the one object of its value in
the calculus' table, so the memos keyed by words hold no copies.  The table
and the memos live on the calculus, which goes when the next family starts.

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


#: A sub-word's walk (see top_layer_vector): its tree, the bitmask of its
#: leaf targets and the inversions of its leaf-target word; None when the
#: sub-word leaves the top layer or repeats a target.
Walk = tuple[Tree, int, int] | None


class BraidCalculus:
    """Layer-normal-form rewriter for one parity, with memoised products.

    Every monomial it builds comes from _monos, which maps each value to its
    one object; _walks memoises top_layer_vector's walk of each sub-word for
    the one degree that _calculus serves the calculus to.
    """

    def __init__(self, odd: bool):
        self.odd = odd
        self._monos: dict[Mono, Mono] = {}
        self._pair_cache: dict[tuple[Mono, Mono], Items] = {}
        self._walks: dict[Mono, Walk] = {}

    def one(self, m: Mono) -> Mono:
        """The calculus' one object of value m."""
        return self._monos.setdefault(m, m)

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
            return ((self.one(_node(a, b)), 1),)
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
            return _scale(self.bracket_pure(a, self.one(g2)), -orient)
        # u == v: [p(s,v), p(t,v)] = -sigma [p(s,v), p(s,t)]
        g2, orient = gen(s, t, self.odd)
        return _scale(self.bracket_pure(a, self.one(g2)), orient if self.odd else -orient)

    # -- brackets of sums -----------------------------------------------------

    def bracket(self, left: Element, right: Element) -> Element:
        """Bilinear bracket of two normalised elements, normalised."""
        out: Element = {}
        for ma, ca in left.items():
            for mb, cb in right.items():
                for mm, cc in self.bracket_pure(ma, mb):
                    _add(out, mm, ca * cb * cc)
        return out

    def formal_product(self, left: Element, right: Element) -> Element:
        """The bracket of two elements pure in one layer: the formal words."""
        one = self.one
        return {one(_node(a, b)): ca * cb for a, ca in left.items() for b, cb in right.items()}


# ---------------------------------------------------------------------------
# word combinatorics for the relation sources


def _word_bracket(w: tuple[int, ...], mover: int, one: Callable = lambda m: m) -> Mono:
    """Standard Lyndon bracketing over generators p(mover, letter), each
    word passed through one (a calculus' one, to take its objects)."""
    if len(w) == 1:
        return one(("g", mover, w[0]))
    u, v = standard_factorization(w)
    return one(_node(_word_bracket(u, mover, one), _word_bracket(v, mover, one)))


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
    """One calculus per relation family, so that its table and memos go when
    the next starts."""
    return BraidCalculus(odd)


def _bilinear(m: Mono, leaf_sum: Callable, product: Callable) -> Element:
    """The bracket m evaluated bilinearly: each leaf ("g", mover, x) becomes
    the element leaf_sum(x), each node the product of its children's."""
    if m[0] == "g":
        return leaf_sum(m[2])
    return product(_bilinear(m[1], leaf_sum, product), _bilinear(m[2], leaf_sum, product))


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
    return bracket_doubling_image(_word_bracket(w, n, _calculus(odd, n).one), t, n, odd)


def bracket_doubling_image(bracket: Mono, t: int, n: int, odd: bool) -> TreeVector:
    """doubling_image for an arbitrary bracketing of the source letters.

    Images of non-standard bracketings stay inside the lattice spanned by
    the Lyndon-word sources (linearity); exposed for that cross-check.
    """
    calc = _calculus(odd, n)
    one = calc.one
    acc: Element = {}

    # double the repeated target t: copies {t, t+1}, targets above t shift up;
    # giving both t-leaves one copy repeats a target.  The words are pure in
    # layer n+1, hence already normal: the product is the formal one.
    def target_sum(x: int) -> Element:
        if x == t:
            return {one(("g", n + 1, t)): 1, one(("g", n + 1, t + 1)): 1}
        return {one(("g", n + 1, x if x < t else x + 1)): 1}

    for mono, c in _bilinear(bracket, target_sum, calc.formal_product).items():
        _add(acc, mono, c * (-1) ** t)

    # double the mover n: copies {n, n+1}, each leaf picks a copy.  The two
    # choices that leave a copy unused stay in layer n or repeat a target.
    def mover_sum(x: int) -> Element:
        return {one(("g", n, x)): 1, one(("g", n + 1, x)): 1}

    for mono, c in _bilinear(bracket, mover_sum, calc.bracket).items():
        _add(acc, mono, c * (-1) ** n)

    return top_layer_vector(acc, n, odd, calc._walks)


def top_layer_vector(
    elem: Element, n: int, odd: bool, walks: dict[Mono, Walk] | None = None
) -> TreeVector:
    """The multilinear words of layer n+1 in a normalised element, as trees.

    A word is dropped at the first generator whose mover is not n+1 or whose
    target repeats.  Normalisation keeps every word at n generators, all
    with targets below their mover, so a word that survives uses each of
    the points 1..n exactly once.  In odd dimension a tree takes the parity
    of its leaf-target word as sign: the correction between odd-graded
    bracket words and ungraded trees.

    Each sub-word below a root is walked once into walks (a Walk: its tree,
    targets and inversions, or None), which a caller may keep across calls
    of one degree and parity (bracket_doubling_image keeps its calculus'
    _walks); a root then costs its two halves' lookups, one Tree, and in odd
    dimension the inversions between its halves.
    """
    top = n + 1
    if walks is None:
        walks = {}
    terms: dict[Tree, int] = {}
    for mono, c in elem.items():
        got = (_join if mono[0] == "b" else _walk)(mono, top, odd, walks)
        if got is None:
            continue
        tree, _, inversions = got
        if odd and inversions % 2:
            c = -c
        terms[tree] = terms.get(tree, 0) + c
    return TreeVector.from_dict(terms) if any(terms.values()) else TreeVector.zero(n)


# not closures: two that call each other form a reference cycle, which
# would keep the calculus' memo alive until the cycle collector ran


def _walk(m: Mono, top: int, odd: bool, walks: dict[Mono, Walk]) -> Walk:
    out = walks.get(m, False)
    if out is False:
        if m[0] == "b":
            out = _join(m, top, odd, walks)
        else:
            out = (leaf(m[2]), 1 << m[2], 0) if m[1] == top else None
        walks[m] = out
    return out


def _join(m: Mono, top: int, odd: bool, walks: dict[Mono, Walk]) -> Walk:
    """A bracket word's walk from its two halves' memoised ones."""
    left = _walk(m[1], top, odd, walks)
    if left is None:
        return None
    right = _walk(m[2], top, odd, walks)
    if right is None or left[1] & right[1]:
        return None
    inversions = left[2] + right[2] + _crossings(left[1], right[1]) if odd else 0
    return Tree(None, left[0], right[0]), left[1] | right[1], inversions


def _crossings(left: int, right: int) -> int:
    """The pairs x > y of a target x in the bitmask left and y in right."""
    count = 0
    while right:
        low = right & -right
        count += (left & -low).bit_count()
        right ^= low
    return count
