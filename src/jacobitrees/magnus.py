"""Commutator words of trees and their Magnus expansions.

tree_to_word realises a tree as an iterated commutator in the free group on
x1..xn; magnus_expand substitutes xi -> 1 + Xi (inverses via the truncated
geometric series) into the tensor algebra, whose elements are the
{word: coefficient} dicts that lie.expand returns.  The degree-n part of the
expansion of a degree-n tree word must coincide with the commutator
expansion of the tree, with all intermediate degrees vanishing;
magnus_agreement checks both.
"""

from __future__ import annotations

from .lie import WordT, expand
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


def magnus_expand(w: Word, truncation: int, alphabet: list[str]) -> dict[WordT, int]:
    """Magnus expansion of a word, truncated at the given total degree, as a
    {word: coefficient} dict; letter i of the tensor algebra is
    alphabet[i - 1]."""
    if truncation < 1:
        raise MagnusError("truncation must be >= 1")
    index = {name: i + 1 for i, name in enumerate(alphabet)}
    for g in w.generators():
        if g not in index:
            raise MagnusError(f"generator {g!r} not in alphabet {alphabet}")
    acc: dict[WordT, int] = {(): 1}
    for gen, exp in w.letters:
        # times 1 + X, or (1 + X)^-1 = 1 - X + X^2 - ... truncated: each word
        # w gains w X^k with coefficient c * exp^k
        i = index[gen]
        out = dict(acc)
        for word, c in acc.items():
            room = truncation - len(word)
            for _ in range(room if exp < 0 else min(room, 1)):
                c, word = c * exp, word + (i,)
                total = out.get(word, 0) + c
                if total:
                    out[word] = total
                else:
                    del out[word]
        acc = out
    return acc


def magnus_agreement(t: Tree, full: dict[WordT, int]) -> bool:
    """True iff the word's degree-n part is expand(t), its constant is 1 and
    the degrees between vanish; full is the caller's magnus_expand of it on
    x1..xn truncated at >= n."""
    n = t.degree
    if full.get(()) != 1 or any(0 < len(w) < n for w in full):
        return False
    return {w: c for w, c in full.items() if len(w) == n} == expand(t)


def poly_text(p: dict[WordT, int]) -> str:
    """A Magnus expansion as signed terms, sorted by (length, word)."""
    chunks = []
    for w in sorted(p, key=lambda w: (len(w), w)):
        c = p[w]
        body = "*" + " ".join(f"X{i}" for i in w) if w else ""
        chunks.append(f"{'+' if c > 0 else '-'}{abs(c)}{body}")
    return " ".join(chunks)
