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
the doubled spoke's endpoints lands in the multilinear top layer.  Those
images, read as integer tree vectors, span the relation lattice that the
quotient tables of the CLI measure.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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
            for w, c in self._act_sub(a2, b):
                for m, c2 in self.bracket_pure(a1, w):
                    _add(out, m, c * c2)
            for w, c in self._act_sub(a1, b):
                for m, c2 in self.bracket_pure(a2, w):
                    _add(out, m, -sign * c * c2)
            return out
        # [a, [b1,b2]] = [[a,b1],b2] + (-1)^{|a||b1|} [b1,[a,b2]]
        b1, b2 = b[1], b[2]
        sign = (-1) ** (_parity(a, model) * _parity(b1, model))
        out = {}
        for w, c in self._act_sub(a, b1):
            for m, c2 in self._act_sub(w, b2):
                _add(out, m, c * c2)
        for w, c in self._act_sub(a, b2):
            for m, c2 in self.bracket_pure(b1, w):
                _add(out, m, sign * c * c2)
        return out

    def _act_sub(self, a: Mono, b: Mono) -> Items:
        """[a, b] where layer(a) may exceed layer(b); dispatches as needed."""
        la, lb = layer(a), layer(b)
        if la > lb:
            return tuple(self._act(a, b).items())
        if la == lb:
            return ((("b", a, b), 1),)
        sign = -((-1) ** (_parity(a, self.model) * _parity(b, self.model)))
        return _scale(self._act(b, a).items(), sign)

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


@lru_cache(maxsize=8)
def _calculus(model: BraidModel) -> BraidCalculus:
    return BraidCalculus(model)


def doubling_image(w: tuple[int, ...], n: int, model: BraidModel) -> TreeVector:
    """Image of the source word under the alternating doubling sum.

    Only the two endpoints of the doubled spoke contribute: doubling the
    repeated target t sends each of its two leaf occurrences to a distinct
    copy (two resolutions), and doubling the mover n distributes the leaves
    over the two mover copies (mixed terms only); everything else misses a
    point of the enlarged configuration.  The surviving terms are rewritten
    to the top layer and the multilinear words are read off as trees.
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
    calc = _calculus(model)
    acc: Element = {}

    # double the repeated target t: copies {t, t+1}, points above t shift up,
    # and the two leaf occurrences of t take distinct copies (two resolutions);
    # the results are pure words of layer n+1, hence already normal
    def rho(j: int) -> int:
        return j if j < t else j + 1

    for first, second in ((t, t + 1), (t + 1, t)):
        for mono, sign in _expand_positional(bracket, t, first, second, rho, n, model):
            _add(acc, mono, sign * (-1) ** t)

    # double the mover n: copies {n, n+1}, each leaf picks a copy.  The sum
    # over all 2^n choices is the bracket evaluated bilinearly on the sums
    # g(n, x) + g(n+1, x) at the leaves.  The two choices that leave a copy
    # unused miss a point; they stay in layer n or repeat a target, so the
    # multilinear top-layer filter below drops them.
    def doubled(m: Mono) -> Element:
        if m[0] == "g":
            return {("g", n, m[2]): 1, ("g", n + 1, m[2]): 1}
        return calc.bracket(doubled(m[1]), doubled(m[2]))

    for mono, c in doubled(bracket).items():
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


def _expand_positional(
    m: Mono, t: int, first: int, second: int, rho, n: int, model: BraidModel
) -> list[tuple[Mono, int]]:
    """Substitute targets for the t-doubling, tracking leaf positions.

    The two occurrences of target t get the copies (first, second) in leaf
    order; other targets relabel through rho; the mover becomes n+1.
    """

    def go(node: Mono, seen: int) -> list[tuple[Mono, int, int]]:
        if node[0] == "g":
            b = node[2]
            if b == t:
                copy = first if seen == 0 else second
                g, s = gen(n + 1, copy, model)
                return [(g, s, seen + 1)]
            g, s = gen(n + 1, rho(b), model)
            return [(g, s, seen)]
        results = []
        for lm, ls, seen1 in go(node[1], seen):
            for rm, rs, seen2 in go(node[2], seen1):
                results.append((("b", lm, rm), ls * rs, seen2))
        return results

    return [(mono, sign) for mono, sign, _ in go(m, 0)]
