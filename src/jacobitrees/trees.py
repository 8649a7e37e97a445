"""Rooted planar binary trees with ordered leaves.

A tree of degree n has leaves labelled 1..n (each exactly once) and a fixed
planar order (left before right) at every internal vertex.  Canonical text
form is the fully parenthesised bracket grammar

    TREE  := LEAF | "[" TREE "," TREE "]"
    LEAF  := INT DECOR?
    DECOR := "{" WORD "}"

where WORD is a free-group word over whitespace-separated generators with
optional integer exponents ("a^-1 b").  An empty DECOR "{}" denotes the
identity word; it is printed for identity decorations so that decorated and
undecorated trees never serialise to the same string.

A Tree stores its canonical text form, built once from its children's, and
that string is its identity: hashing, equality and the order of vector terms
all read it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from functools import lru_cache

from ._value import _set, _Value
from .words import DIGITS, Word, parse_word, read_integer

#: Largest degree enumerate_trees will serve, and the desk cap of every CLI
#: command.  |Tree(8)| = 17 297 280 already calls for streaming consumers;
#: single-digit labels also keep the lexicographic order on serialisations
#: unambiguous.
ENUMERATION_CAP = 8


class TreeError(ValueError):
    """Domain error for tree construction and parsing."""


class Tree:
    """A leaf (label set, children None) or an internal node (label None).

    Immutable.  A node stores its degree and canonical serialisation, both
    built at construction from its children's, so that degree, serialize(),
    hashing and equality cost O(1).
    """

    __slots__ = ("label", "left", "right", "degree", "_key")

    def __init__(
        self, label: int | None, left: "Tree | None" = None, right: "Tree | None" = None
    ):
        if label is None:
            if left is None or right is None:
                raise TreeError("internal node needs two children")
            key = "[" + left._key + "," + right._key + "]"
            degree = left.degree + right.degree
        else:
            if left is not None or right is not None:
                raise TreeError("leaf cannot have children")
            if label < 1:
                raise TreeError("leaf labels must be positive")
            key = str(label)
            degree = 1
        _set(self, "label", label)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "degree", degree)
        _set(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError(f"Tree is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Tree is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if isinstance(other, Tree):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"<Tree {self._key}>"

    def __reduce__(self):
        return Tree, (self.label, self.left, self.right)

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def labels(self) -> frozenset[int]:
        if self.is_leaf:
            return frozenset((self.label,))
        return self.left.labels() | self.right.labels()

    def serialize(self) -> str:
        return self._key

    def __str__(self) -> str:
        return self._key


#: The one leaf object of each label; leaf labels in use are few.
_LEAVES: dict[int, Tree] = {}


def leaf(k: int) -> Tree:
    t = _LEAVES.get(k)
    if t is None:
        t = _LEAVES[k] = Tree(k)
    return t


def graft(t1: Tree, t2: Tree) -> Tree:
    """Glue two trees at a new root, t1 on the left."""
    common = t1.labels() & t2.labels()
    if common:
        raise TreeError(f"duplicate leaf labels: {sorted(common)}")
    return Tree(label=None, left=t1, right=t2)


class DecoratedTree(_Value):
    """A tree whose i-th leaf carries a reduced free-group word; the
    decorations are (label, word) pairs sorted by leaf label."""

    __slots__ = ("tree", "decorations")

    def __init__(self, tree: Tree, decorations: tuple[tuple[int, Word], ...]):
        labels = sorted(tree.labels())
        deco_labels = [k for k, _ in decorations]
        if deco_labels != labels:
            raise TreeError(
                f"decorations must cover leaf labels {labels}, got {deco_labels}"
            )
        _set(self, "tree", tree)
        _set(self, "decorations", decorations)

    @property
    def degree(self) -> int:
        return self.tree.degree

    def decoration_map(self) -> dict[int, Word]:
        return dict(self.decorations)

    def serialize(self) -> str:
        deco = self.decoration_map()

        def go(node: Tree) -> str:
            if node.is_leaf:
                return f"{node.label}{{{deco[node.label]}}}"
            return f"[{go(node.left)},{go(node.right)}]"

        return go(self.tree)

    def __str__(self) -> str:
        return self.serialize()


def decorate(tree: Tree, decorations: Mapping[int, Word]) -> DecoratedTree:
    items = tuple(sorted((int(k), w) for k, w in decorations.items()))
    return DecoratedTree(tree=tree, decorations=items)


AnyTree = Tree | DecoratedTree


# ---------------------------------------------------------------------------
# enumeration


def tree_count(n: int) -> int:
    """|Tree(n)| = (2n-2)!/(n-1)!."""
    if n < 1:
        raise TreeError("degree must be >= 1")
    return math.factorial(2 * n - 2) // math.factorial(n - 1)


def _subtrees(
    labels: tuple[int, ...], spare: int
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """Each tree on a subset of the sorted `labels` that leaves at least
    `spare` of them unused, with the unused labels, ordered by serialisation.

    The order needs no sort: a digit sorts before "[", so the leaves come
    first, by label.  While labels are single digits (ENUMERATION_CAP), no
    serialisation is a prefix of another, so "[l,r]" sorts by l, then by r.
    """
    if len(labels) <= spare:
        return
    for i, k in enumerate(labels):
        yield leaf(k), labels[:i] + labels[i + 1 :]
    for lt, rest in _subtrees(labels, spare + 1):
        for rt, unused in _subtrees(rest, spare):
            yield Tree(label=None, left=lt, right=rt), unused


def _stream_over(labels: tuple[int, ...]) -> Iterator[Tree]:
    """All planar binary trees on the sorted `labels`, lazily, ordered by
    serialisation as in _subtrees."""
    if len(labels) == 1:
        yield leaf(labels[0])
        return
    for lt, rest in _subtrees(labels, 1):
        for rt in _stream_over(rest):
            yield Tree(label=None, left=lt, right=rt)


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Stream Tree(n) in increasing order of canonical serialisation."""
    if n < 1 or n > ENUMERATION_CAP:
        raise TreeError(
            f"degree must be in 1..{ENUMERATION_CAP} (enumeration cap), got {n}"
        )
    return _stream_over(tuple(range(1, n + 1)))


@lru_cache(maxsize=8)
def tree_list(n: int) -> tuple[Tree, ...]:
    """Materialised Tree(n) in canonical order; cached for reuse as a basis.
    Tree(ENUMERATION_CAP) is only ever streamed."""
    if n >= ENUMERATION_CAP:
        raise TreeError(f"refusing to materialise Tree({n}); stream instead")
    return tuple(enumerate_trees(n))


# ---------------------------------------------------------------------------
# parsing


class ParseError(TreeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a leaf label", start)
        try:
            return read_integer(self.text[start : self.pos], "leaf label")
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(str(exc), start) from exc

    def parse_tree(self) -> tuple[Tree, dict[int, Word]]:
        ch = self.peek()
        if ch == "[":
            self.expect("[")
            lt, ldeco = self.parse_tree()
            self.expect(",")
            rt, rdeco = self.parse_tree()
            self.expect("]")
            try:
                node = graft(lt, rt)
            except TreeError as exc:
                raise ParseError(str(exc), self.pos) from exc
            return node, {**ldeco, **rdeco}
        if ch and ch in DIGITS:
            k = self.parse_int()
            deco: dict[int, Word] = {}
            if self.peek() == "{":
                self.expect("{")
                start = self.pos
                depth_end = self.text.find("}", self.pos)
                if depth_end < 0:
                    raise ParseError("unterminated decoration", start)
                raw = self.text[self.pos : depth_end]
                self.pos = depth_end + 1
                try:
                    deco[k] = parse_word(raw)
                except ValueError as exc:
                    raise ParseError(f"bad decoration word: {exc}", start) from exc
            return leaf(k), deco
        raise ParseError("expected '[' or a leaf label", self.pos)


def parse_tree(text: str) -> AnyTree:
    """Parse the bracket grammar; returns DecoratedTree iff any leaf has {…}.

    Leaves without braces in a decorated tree get the identity word.
    """
    p = _Parser(text)
    try:
        tree, deco = p.parse_tree()
    except RecursionError as exc:
        raise ParseError("brackets nested too deeply", p.pos) from exc
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    labels = tree.labels()
    expected = set(range(1, tree.degree + 1))
    if set(labels) != expected:
        raise ParseError(
            f"leaf labels must be 1..{tree.degree}, got {sorted(labels)}", len(text)
        )
    if not deco:
        return tree
    full = {k: deco.get(k, Word.identity()) for k in labels}
    return decorate(tree, full)


# ---------------------------------------------------------------------------
# integer linear combinations of trees


class TreeVector(_Value):
    """Formal Z-linear combination of trees of one common degree.

    All terms are Tree or all are DecoratedTree; zero coefficients are never
    stored.  Instances are immutable.
    """

    __slots__ = ("terms", "degree", "decorated")

    def __init__(
        self, terms: tuple[tuple[AnyTree, int], ...], degree: int, decorated: bool
    ):
        _set(self, "terms", terms)
        _set(self, "degree", degree)
        _set(self, "decorated", decorated)

    @staticmethod
    def from_dict(d: Mapping[AnyTree, int]) -> "TreeVector":
        items = [(t, c) for t, c in d.items() if c != 0]
        if not items:
            raise TreeError("empty tree vector needs an explicit degree; use zero()")
        degrees = {t.degree for t, _ in items}
        if len(degrees) != 1:
            raise TreeError(f"mixed degrees in tree vector: {sorted(degrees)}")
        modes = {isinstance(t, DecoratedTree) for t, _ in items}
        if len(modes) != 1:
            raise TreeError("mixed decorated/undecorated terms")
        items.sort(key=lambda kv: kv[0].serialize())
        return TreeVector(terms=tuple(items), degree=degrees.pop(), decorated=modes.pop())

    @staticmethod
    def zero(degree: int, decorated: bool = False) -> "TreeVector":
        return TreeVector(terms=(), degree=degree, decorated=decorated)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def serialize(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for t, c in self.terms:
            sign = "+" if c > 0 else "-"
            chunks.append(f"{sign}{abs(c)}*{t.serialize()}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.serialize()


def _terms(text: str) -> list[str]:
    """The whitespace-separated terms of text; whitespace inside [] or {},
    as between the letters of a decoration word, stays in its term."""
    terms: list[str] = []
    depth = 0
    for piece in text.split():
        if depth > 0:
            terms[-1] += " " + piece
        else:
            terms.append(piece)
        depth += piece.count("[") + piece.count("{") - piece.count("]") - piece.count("}")
    return terms


def parse_tree_vector(text: str) -> TreeVector:
    """Parse "±c*TREE ±c*TREE ...", ±c read by read_integer; a bare ±TREE
    term has coefficient ±1."""
    tokens = _terms(text)
    if not tokens:
        raise TreeError("empty tree vector text")
    acc: dict[AnyTree, int] = {}
    for tok in tokens:
        coeff_s, star, tree_s = tok.partition("*")
        if star:
            try:
                coeff = read_integer(coeff_s, "coefficient")
            except ValueError as exc:
                raise TreeError(str(exc)) from exc
        else:
            coeff, tree_s = (-1, tok[1:]) if tok[0] == "-" else (1, tok.removeprefix("+"))
        t = parse_tree(tree_s)
        acc[t] = acc.get(t, 0) + coeff
    # every term sets the degree and the mode, cancelled or zero ones too
    shape = TreeVector.from_dict(dict.fromkeys(acc, 1))
    acc = {t: c for t, c in acc.items() if c != 0}
    return TreeVector.from_dict(acc) if acc else TreeVector.zero(shape.degree)
