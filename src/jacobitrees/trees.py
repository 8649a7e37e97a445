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

import heapq
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Union

from .words import Word, parse_word

#: Largest degree enumerate_trees will serve.  |Tree(8)| = 17 297 280 already
#: calls for streaming consumers; single-digit labels also keep the
#: lexicographic order on serialisations unambiguous.
ENUMERATION_CAP = 8


class TreeError(ValueError):
    """Domain error for tree construction and parsing."""


_set = object.__setattr__


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

    def to_json_obj(self):
        if self.is_leaf:
            return {"leaf": self.label}
        return {"node": [self.left.to_json_obj(), self.right.to_json_obj()]}


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


@dataclass(frozen=True, slots=True)
class DecoratedTree:
    """A tree whose i-th leaf carries a reduced free-group word."""

    tree: Tree
    decorations: tuple[tuple[int, Word], ...]  # sorted by leaf label

    def __post_init__(self):
        labels = sorted(self.tree.labels())
        deco_labels = [k for k, _ in self.decorations]
        if deco_labels != labels:
            raise TreeError(
                f"decorations must cover leaf labels {labels}, got {deco_labels}"
            )

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

    def to_json_obj(self):
        deco = self.decoration_map()

        def go(node: Tree):
            if node.is_leaf:
                return {"leaf": node.label, "dec": str(deco[node.label])}
            return {"node": [go(node.left), go(node.right)]}

        return go(self.tree)


def decorate(tree: Tree, decorations: Mapping[int, Word]) -> DecoratedTree:
    items = tuple(sorted((int(k), w) for k, w in decorations.items()))
    return DecoratedTree(tree=tree, decorations=items)


AnyTree = Union[Tree, DecoratedTree]


# ---------------------------------------------------------------------------
# enumeration


def tree_count(n: int) -> int:
    """|Tree(n)| = (2n-2)!/(n-1)!."""
    if n < 1:
        raise TreeError("degree must be >= 1")
    return math.factorial(2 * n - 2) // math.factorial(n - 1)


def _stream_over(labels: tuple[int, ...]) -> Iterator[Tree]:
    """All planar binary trees on `labels`, lazily, ordered by serialisation."""
    if len(labels) == 1:
        yield leaf(labels[0])
        return
    label_set = set(labels)

    def left_streams() -> Iterator[Iterator[Tree]]:
        # proper nonempty subsets as left-label sets, one sorted stream each
        items = sorted(label_set)
        m = len(items)
        for mask in range(1, (1 << m) - 1):
            yield _stream_over(tuple(items[i] for i in range(m) if mask >> i & 1))

    for lt in heapq.merge(*left_streams(), key=Tree.serialize):
        rest = tuple(sorted(label_set - lt.labels()))
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
    """Materialised Tree(n) in canonical order; cached for reuse as a basis."""
    if n > 7:
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a leaf label", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # more digits than int() converts
            raise ParseError("leaf label has too many digits", start) from exc

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
        if ch.isdigit():
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
    tree, deco = p.parse_tree()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    labels = tree.labels()
    if len(labels) != tree.degree:
        raise ParseError("duplicate leaf label", len(text))
    expected = set(range(1, tree.degree + 1))
    if set(labels) != expected:
        raise ParseError(
            f"leaf labels must be 1..{tree.degree}, got {sorted(labels)}", len(text)
        )
    if not deco:
        return tree
    full = {k: deco.get(k, Word.identity()) for k in labels}
    return decorate(tree, full)


def to_json(t: AnyTree) -> str:
    return json.dumps(t.to_json_obj(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# integer linear combinations of trees


@dataclass(frozen=True)
class TreeVector:
    """Formal Z-linear combination of trees of one common degree.

    All terms are Tree or all are DecoratedTree; zero coefficients are never
    stored.  Instances are immutable; arithmetic returns new vectors.
    """

    terms: tuple[tuple[AnyTree, int], ...]
    degree: int
    decorated: bool

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

    @staticmethod
    def single(t: AnyTree, coeff: int = 1) -> "TreeVector":
        return TreeVector.from_dict({t: coeff})

    def as_dict(self) -> dict[AnyTree, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TreeVector") -> "TreeVector":
        if other.degree != self.degree or other.decorated != self.decorated:
            raise TreeError("cannot add vectors of different degree or mode")
        d = self.as_dict()
        for t, c in other.terms:
            d[t] = d.get(t, 0) + c
        d = {t: c for t, c in d.items() if c != 0}
        if not d:
            return TreeVector.zero(self.degree, self.decorated)
        return TreeVector.from_dict(d)

    def __neg__(self) -> "TreeVector":
        return self.scale(-1)

    def __sub__(self, other: "TreeVector") -> "TreeVector":
        return self + (-other)

    def scale(self, c: int) -> "TreeVector":
        if c == 0:
            return TreeVector.zero(self.degree, self.decorated)
        return TreeVector(
            terms=tuple((t, c * k) for t, k in self.terms),
            degree=self.degree,
            decorated=self.decorated,
        )

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


def parse_tree_vector(text: str) -> TreeVector:
    """Parse "±c*TREE ±c*TREE ..." (also accepts bare TREE terms, coeff 1)."""
    tokens = text.split()
    if not tokens:
        raise TreeError("empty tree vector text")
    acc: dict[AnyTree, int] = {}
    for tok in tokens:
        sign = 1
        body = tok
        if body and body[0] in "+-":
            if body[0] == "-":
                sign = -1
            body = body[1:]
        if "*" in body:
            coeff_s, _, tree_s = body.partition("*")
            try:
                coeff = int(coeff_s)
            except ValueError as exc:
                raise TreeError(f"bad coefficient {coeff_s!r}") from exc
        else:
            coeff, tree_s = 1, body
        t = parse_tree(tree_s)
        acc[t] = acc.get(t, 0) + sign * coeff
    acc = {t: c for t, c in acc.items() if c != 0}
    if not acc:
        degree = parse_tree(tokens[0].rpartition("*")[2].lstrip("+-")).degree
        return TreeVector.zero(degree)
    return TreeVector.from_dict(acc)
