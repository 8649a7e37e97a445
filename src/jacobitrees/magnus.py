"""Commutator words of trees and their Magnus expansions.

tree_to_word realises a tree as an iterated commutator in the free group on
x1..xn; magnus_expand substitutes xi -> 1 + Xi (inverses via the truncated
geometric series) into the tensor algebra.  The degree-n part of the
expansion of a degree-n tree word must coincide with the commutator
expansion of the tree, with all intermediate degrees vanishing;
magnus_agreement checks both.
"""

from __future__ import annotations

from .lie import NcPoly, expand
from .trees import Tree
from .words import Word


class MagnusError(ValueError):
    pass


def generator_name(i: int) -> str:
    return f"x{i}"


def tree_to_word(t: Tree) -> Word:
    """leaf i -> xi; graft(a, b) -> Wa Wb Wa^-1 Wb^-1, freely reduced."""
    if t.is_leaf:
        return Word.generator(generator_name(t.label))
    return tree_to_word(t.left).commutator(tree_to_word(t.right))


def magnus_expand(
    w: Word, truncation: int, alphabet: list[str] | None = None
) -> NcPoly:
    """Magnus expansion of a word, truncated at the given total degree.

    `alphabet` fixes the letter order (letter i+1 of the polynomial ring is
    alphabet[i]); by default the word's generators in sorted order.
    """
    if truncation < 1:
        raise MagnusError("truncation must be >= 1")
    if alphabet is None:
        alphabet = sorted(w.generators())
    index = {name: i + 1 for i, name in enumerate(alphabet)}
    for g in w.generators():
        if g not in index:
            raise MagnusError(f"generator {g!r} not in alphabet {alphabet}")
    n = len(alphabet)
    acc = NcPoly.one(n, truncation)
    for gen, exp in w.letters:
        i = index[gen]
        x = NcPoly.letter(i, n, truncation)
        if exp == 1:
            factor = NcPoly.one(n, truncation) + x
        else:
            # (1 + X)^-1 = 1 - X + X^2 - ... truncated
            factor = NcPoly.one(n, truncation)
            power = NcPoly.one(n, truncation)
            for k in range(1, truncation + 1):
                power = power * x
                if power.is_zero:
                    break
                factor = factor + power.scale((-1) ** k)
        acc = acc * factor
    return acc


def magnus_agreement(t: Tree, full: NcPoly | None = None) -> bool:
    """True iff the word's degree-n part is expand(t) and lower degrees vanish;
    full is the caller's magnus_expand of it on x1..xn truncated at >= n."""
    n = t.degree
    if full is None:
        alphabet = [generator_name(i) for i in range(1, n + 1)]
        full = magnus_expand(tree_to_word(t), n, alphabet)
    for d in range(1, n):
        if not full.homogeneous_part(d).is_zero:
            return False
    if n == 1:
        return full.homogeneous_part(1) == expand(t)
    constant = full.homogeneous_part(0)
    if constant != NcPoly.one(n, n).homogeneous_part(0):
        return False
    return full.homogeneous_part(n) == expand(t)
