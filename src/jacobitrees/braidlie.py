"""Bracket calculus for orbit classes of ordered configurations.

Generators p(a, b) stand for the spherical class "point a orbits point b"
in a configuration of ordered points; they satisfy the infinitesimal-braid
relations

    p(a, b) = sigma * p(b, a),
    [p(a, b), p(c, d)] = 0                      for disjoint {a,b}, {c,d},
    [p(a, b), p(z, a) + p(z, b)] = 0            for any third point z,

with brackets graded by a generator parity gamma (0 = ungraded, 1 = odd).
Consistency of the three relations forces sigma * (-1)^gamma = 1, so there
are exactly two models:

    MODEL_ODD_DIM  = (sigma=-1, gamma=1)   ambient dimension odd
    MODEL_EVEN_DIM = (sigma=+1, gamma=0)   ambient dimension even

Elements decompose over layers (the largest point index of a word); the
layer-normal form rewrites any bracket into words whose leaves all share
the top mover.  Multilinear top-layer words are planar binary trees.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .lie import is_lyndon, standard_factorization
from .trees import Tree, TreeVector, leaf

# monomials: ("g", mover, target) with mover > target, or ("b", left, right)
Mono = tuple
Element = dict[Mono, int]
Items = tuple[tuple[Mono, int], ...]


@dataclass(frozen=True)
class BraidModel:
    sigma: int   # sign of p(a,b) -> p(b,a)
    gamma: int   # generator parity: 0 ungraded, 1 odd

    def __post_init__(self):
        if self.sigma * (-1) ** self.gamma != 1:
            raise ValueError("inconsistent model: need sigma*(-1)^gamma == 1")


MODEL_ODD_DIM = BraidModel(sigma=-1, gamma=1)
MODEL_EVEN_DIM = BraidModel(sigma=+1, gamma=0)


def gen(a: int, b: int, model: BraidModel) -> tuple[Mono, int]:
    """Canonically oriented generator with its orientation sign."""
    if a == b:
        raise ValueError("generator needs two distinct points")
    if a > b:
        return ("g", a, b), 1
    return ("g", b, a), model.sigma


def weight(m: Mono) -> int:
    if m[0] == "g":
        return 1
    return weight(m[1]) + weight(m[2])


def layer(m: Mono) -> int:
    """Largest mover in the monomial; pure words have one mover."""
    if m[0] == "g":
        return m[1]
    return max(layer(m[1]), layer(m[2]))


def _parity(m: Mono, model: BraidModel) -> int:
    return (weight(m) * model.gamma) % 2


def _add(acc: Element, m: Mono, c: int) -> None:
    if c:
        nv = acc.get(m, 0) + c
        if nv:
            acc[m] = nv
        else:
            del acc[m]


def _scale(items: Iterable[tuple[Mono, int]], c: int) -> Items:
    return tuple((m, c * v) for m, v in items) if c else ()


def _is_pure(m: Mono, top: int) -> bool:
    if m[0] == "g":
        return m[1] == top
    return _is_pure(m[1], top) and _is_pure(m[2], top)


class BraidCalculus:
    """Layer-normal-form rewriter for one model, with memoised products."""

    def __init__(self, model: BraidModel):
        self.model = model
        self._pair_cache: dict[tuple[Mono, Mono], Items] = {}

    # -- bracket of two pure-layer words ------------------------------------

    def bracket_pure(self, a: Mono, b: Mono) -> Items:
        """[a, b] for pure words, rewritten into pure-layer words.

        Returned as the memoised tuple of (word, coefficient) items.
        """
        key = (a, b)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        la, lb = layer(a), layer(b)
        if la == lb:
            out: Items = ((("b", a, b), 1),)
        elif la < lb:
            sign = -((-1) ** (_parity(a, self.model) * _parity(b, self.model)))
            out = _scale(self.bracket_pure(b, a), sign)
        else:
            out = tuple(self._act(a, b).items())
        self._pair_cache[key] = out
        return out

    def _act(self, a: Mono, b: Mono) -> Element:
        """[a, b] with layer(a) > layer(b), result in layer(a)."""
        model = self.model
        if b[0] == "g":
            if a[0] == "g":
                return dict(self._act_gen_gen(a, b))
            # [[a1,a2], b] = [a1,[a2,b]] - (-1)^{|a1||a2|} [a2,[a1,b]]
            a1, a2 = a[1], a[2]
            sign = (-1) ** (_parity(a1, model) * _parity(a2, model))
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
        sign = (-1) ** (_parity(a, model) * _parity(b1, model))
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
        sigma = self.model.sigma
        if u == t:
            # [p(s,t), p(t,v)] = -[p(s,t), p(s,v)]
            g2, orient = gen(s, v, self.model)
            return _scale(self.bracket_pure(a, g2), -orient)
        # u == v: [p(s,v), p(t,v)] = -sigma [p(s,v), p(s,t)]
        g2, orient = gen(s, t, self.model)
        return _scale(self.bracket_pure(a, g2), -sigma * orient)

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
    return ("b", _word_bracket(u, mover), _word_bracket(v, mover))


def source_words(n: int) -> list[tuple[int, ...]]:
    """Surjective Lyndon words of length n over the letters 1..n-1.

    Each uses every letter and therefore repeats exactly one; they form a
    basis of the normalised weight-n part one column to the right of the
    quotient the doubling differential lands in.
    """
    if n < 3:
        return []
    out = []
    for doubled in range(1, n):
        letters = sorted(list(range(1, n)) + [doubled])
        seen = set()
        for perm in itertools.permutations(letters):
            if perm in seen:
                continue
            seen.add(perm)
            if is_lyndon(perm):
                out.append(perm)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# the doubling differential


def _leaf_targets(m: Mono) -> list[int]:
    if m[0] == "g":
        return [m[2]]
    return _leaf_targets(m[1]) + _leaf_targets(m[2])


def _mono_to_tree(m: Mono) -> Tree:
    """The tree of a multilinear word; its distinct targets are the leaves."""
    if m[0] == "g":
        return leaf(m[2])
    return Tree(None, _mono_to_tree(m[1]), _mono_to_tree(m[2]))


def _leaf_order_sign(m: Mono) -> int:
    """Parity of the leaf-target word; the multilinear sign correction
    between odd-graded bracket words and ungraded trees."""
    seq = _leaf_targets(m)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=1)
def _calculus(model: BraidModel, n: int) -> BraidCalculus:
    """One calculus per relation family, so its memo goes when the next starts."""
    return BraidCalculus(model)


def _bilinear(m: Mono, leaf_sum: Callable, product: Callable) -> Element:
    """The bracket m evaluated bilinearly: each leaf ("g", mover, x) becomes
    the element leaf_sum(x), each node the product of its children's."""
    if m[0] == "g":
        return leaf_sum(m[2])
    return product(*(_bilinear(child, leaf_sum, product) for child in m[1:]))


def _formal_product(left: Element, right: Element) -> Element:
    return {("b", a, b): ca * cb for a, ca in left.items() for b, cb in right.items()}


def doubling_image(w: tuple[int, ...], n: int, model: BraidModel) -> TreeVector:
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
    return bracket_doubling_image(_word_bracket(w, n), t, n, model)


def bracket_doubling_image(
    bracket: Mono, t: int, n: int, model: BraidModel
) -> TreeVector:
    """doubling_image for an arbitrary bracketing of the source letters.

    Images of non-standard bracketings stay inside the lattice spanned by
    the Lyndon-word sources (linearity); exposed for that cross-check.
    """
    calc = _calculus(model, n)
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

    # keep the multilinear words of the top layer, read as trees
    tree_terms: dict[Tree, int] = {}
    needed = set(range(1, n + 1))
    for mono, c in acc.items():
        if not _is_pure(mono, n + 1):
            continue
        targets = _leaf_targets(mono)
        if len(targets) != n or set(targets) != needed:
            continue
        sign = _leaf_order_sign(mono) if model.gamma else 1
        tree = _mono_to_tree(mono)
        tree_terms[tree] = tree_terms.get(tree, 0) + sign * c
    tree_terms = {k: v for k, v in tree_terms.items() if v}
    if not tree_terms:
        return TreeVector.zero(n)
    return TreeVector.from_dict(tree_terms)
