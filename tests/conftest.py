"""Fixtures and the independent oracles the tests check the library against."""

import argparse
import functools
import itertools
import pathlib
import random
import time
from typing import Iterable, NamedTuple, Sequence

import pytest

from jacobitrees.cli import METHOD_CAPS, RELATION_KINDS, _names
from jacobitrees.decorations import (
    DecorationError,
    DecoratedVector,
    _tuple_of,
    decorated_normal_form,
)
from jacobitrees.intlinalg import SnfResult, snf_from_rows
from jacobitrees.lie import LieError, expand, lyndon_words, standard_bracketing
from jacobitrees.magnus import generator_name, magnus_expand, tree_to_word
from jacobitrees.relations import RelationSet, as_relations, ihx_relations
from jacobitrees.trees import Tree, TreeVector, decorate, enumerate_trees, leaf, tree_list
from jacobitrees.words import Word


#: The benchmark's pinned stu2 queries: vectors with their coordinates and
#: the SHA-256 of what reduce prints for them.  Only read.
STU2_POOL = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "stu2_pool.json"


def random_tree(rng: random.Random, labels: list[int]) -> Tree:
    """Uniform-ish random planar tree on the given labels."""
    if len(labels) == 1:
        return leaf(labels[0])
    k = rng.randint(1, len(labels) - 1)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    return Tree(None, random_tree(rng, shuffled[:k]), random_tree(rng, shuffled[k:]))


@pytest.fixture
def rng():
    return random.Random(20240817)


class MagnusExpansions(NamedTuple):
    cases: list  # (tree, its word, the word's expansion truncated at n)
    seconds: float  # what building them took


@pytest.fixture(scope="session")
def magnus_expansions():
    """Every tree through degree 5 and a fixed sample of 24 of degree 6,
    each with the Magnus expansion of its word on x1..xn truncated at its
    degree n, as the magnus command and magnus_agreement build it.  Built
    once for criterion 7 and test_magnus, which check the same trees."""
    t0 = time.time()
    sample = random.Random(0).sample(list(tree_list(6)), 24)
    cases = []
    for t in itertools.chain(*map(enumerate_trees, range(1, 6)), sample):
        word = tree_to_word(t)
        alphabet = [generator_name(i) for i in range(1, t.degree + 1)]
        cases.append((t, word, magnus_expand(word, t.degree, alphabet)))
    return MagnusExpansions(cases, time.time() - t0)


def lyndon_basis(n: int):
    """lyndon_words(n), each with its standard bracketing: the basis the
    coordinates are taken in, as (word, tree) pairs."""
    return tuple((w, standard_bracketing(w)) for w in lyndon_words(n))


@functools.lru_cache(maxsize=None)
def _bracketing_expansion(w: tuple[int, ...]) -> dict:
    """expand of the standard bracketing of the Lyndon word w; shared by
    every caller, never mutated."""
    return expand(standard_bracketing(w))


def expansion_coordinates(v, n: int) -> list[int]:
    """Lyndon coordinates of a degree-n tree or vector by the expansion
    route, independent of the straightening: the library's oracle.

    Solved by stripping lexicographically-leading words; the expansion of the
    bracketing of a Lyndon word w is w plus lex-larger words, so the system
    is unitriangular over Z.  The Lyndon words are visited in lex order and
    only the bracketings of the words stripped are expanded.
    """
    poly = expand(v)
    words = lyndon_words(n)
    coords = [0] * len(words)
    for i, w in enumerate(words):
        c = poly.get(w)
        if c is None:
            continue
        coords[i] = c
        for ww, cc in _bracketing_expansion(w).items():
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


def brute_force_trees(labels: Iterable[int]) -> list[Tree]:
    """Independent tree generation by right-to-left recursion.

    Splits on the right subtree first and recurses in a different order than
    the canonical enumerator, so agreement of the two outputs as sets is a
    meaningful check.
    """
    labels = tuple(labels)
    if len(labels) == 1:
        return [leaf(labels[0])]
    out = []
    items = sorted(labels, reverse=True)
    m = len(items)
    for mask in range(1, (1 << m) - 1):
        right_part = tuple(items[i] for i in range(m) if mask >> i & 1)
        left_part = tuple(x for x in items if x not in right_part)
        for rt in brute_force_trees(right_part):
            for lt in brute_force_trees(left_part):
                out.append(Tree(label=None, left=lt, right=rt))
    return out


def normalize(calc, m):
    """A bracket monomial of the braid calculus calc, fully normalised."""
    if m[0] == "g":
        return {m: 1}
    return calc.bracket(normalize(calc, m[1]), normalize(calc, m[2]))


def decorate_relations(
    rs: RelationSet, n: int, decorations: Sequence[Sequence[Word]]
) -> RelationSet:
    """Each vector of the degree-n family rs once per decoration tuple,
    words attached by leaf label."""
    tuples: list[tuple[Word, ...]] = []
    for tup in decorations:
        tup = tuple(tup)
        if len(tup) != n:
            raise ValueError(f"decoration tuple needs {n} words, got {len(tup)}")
        tuples.append(tup)

    def produce():
        for v in rs.vectors():
            for tup in tuples:
                mapping = {i + 1: w for i, w in enumerate(tup)}
                yield TreeVector.from_dict(
                    {decorate(t, mapping): c for t, c in v.terms}
                )

    return RelationSet(produce)


def is_zero_decorated(v: DecoratedVector) -> bool:
    return all(not any(c) for c in decorated_normal_form(v).values())


def decorated_rank(n: int, tuples: Sequence[Sequence[Word]]) -> SnfResult:
    """Cokernel of decorated AS+IHX on trees decorated from the given tuples,
    computed honestly over (tree, tuple) columns.

    Rank must come out (n-1)! per distinct reduced tuple, torsion-free.
    """
    norm_tuples: list[tuple[Word, ...]] = []
    seen = set()
    for tup in tuples:
        tup = tuple(tup)
        if len(tup) != n:
            raise DecorationError(f"tuple arity {len(tup)} != degree {n}")
        if tup in seen:
            continue  # compared after reduction: Word is reduced already
        seen.add(tup)
        norm_tuples.append(tup)
    basis_trees = tree_list(n)
    index: dict[tuple[int, tuple[Word, ...]], int] = {}
    for ti, tup in enumerate(norm_tuples):
        for bi in range(len(basis_trees)):
            index[(bi, tup)] = ti * len(basis_trees) + bi
    tree_pos = {t: i for i, t in enumerate(basis_trees)}

    def rows():
        for rs in (as_relations(n), ihx_relations(n)):
            decorated = decorate_relations(rs, n, norm_tuples)
            for vec in decorated.vectors():
                row: dict[int, int] = {}
                for t, c in vec.terms:
                    key = (tree_pos[t.tree], _tuple_of(t))
                    j = index[key]
                    row[j] = row.get(j, 0) + c
                yield {j: c for j, c in row.items() if c}

    return snf_from_rows(rows(), cols=len(basis_trees) * len(norm_tuples))


def truncated_product(p: dict, q: dict, bound: int) -> dict:
    """The product of two {word: coefficient} tensor-algebra elements, words
    longer than bound dropped."""
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            if len(w1) + len(w2) <= bound:
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def ncpoly_expand(t: Tree, n: int, odd: bool = False) -> dict:
    """The commutator expansion of t truncated at degree n, by an uncached
    recursion that multiplies the truncated expansions of the children, as
    the former NcPoly arithmetic did: lie.expand's oracle."""
    if t.is_leaf:
        return {(t.label,): 1} if n >= 1 else {}
    a, b = ncpoly_expand(t.left, n, odd), ncpoly_expand(t.right, n, odd)
    sign = 1 if odd and t.left.degree * t.right.degree % 2 else -1
    out = truncated_product(a, b, n)
    for w, c in truncated_product(b, a, n).items():
        out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


class CopyingLattice:
    """IntLattice as it was before it subtracted in place: every step builds
    a new dict.  The oracle for the pivot rows, their key order and the
    residues of the in-place lattice."""

    def __init__(self, ambient: int):
        self.n = ambient
        self.pivot_rows: dict[int, dict[int, int]] = {}

    def add(self, vec):
        vec = {j: v for j, v in vec.items() if v}
        while vec:
            j = min(vec)
            if j not in self.pivot_rows:
                if vec[j] < 0:
                    vec = {c: -v for c, v in vec.items()}
                self.pivot_rows[j] = vec
                return
            row = self.pivot_rows[j]
            a, b = row[j], vec[j]
            if b % a == 0:
                vec = _row_sub(vec, row, b // a)
            else:
                x, y, g = _xgcd(a, b)
                s = -1 if g < 0 else 1
                new_row = _row_comb(row, s * x, vec, s * y)
                vec = _row_comb(row, -(b // g), vec, a // g)
                self.pivot_rows[j] = new_row

    def add_many(self, vecs):
        for v in vecs:
            self.add(v)

    def normalize(self):
        for j in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[j]
            for k, other in self.pivot_rows.items():
                if k < j and j in other:
                    q = other[j] // row[j]
                    if q:
                        self.pivot_rows[k] = _row_sub(other, row, q)

    def reduce(self, vec):
        vec = {j: v for j, v in vec.items() if v}
        for j in sorted(self.pivot_rows):
            if j in vec:
                row = self.pivot_rows[j]
                q = vec[j] // row[j]
                if q:
                    vec = _row_sub(vec, row, q)
        return vec


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx, y, ny, g, ng = nx, x - q * nx, ny, y - q * ny, ng, g - q * ng
    return x, y, g


def _row_sub(vec, row, q):
    out = dict(vec)
    for c, v in row.items():
        nv = out.get(c, 0) - q * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def _row_comb(r1, c1, r2, c2):
    out = {c: c1 * v for c, v in r1.items()} if c1 else {}
    for c, v in r2.items():
        nv = out.get(c, 0) + c2 * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


# The argparse parser the CLI had before its flag tables: the reference that
# cli.parse_args must agree with on every valid argv.


def _relation_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(k.lower() for k in _names(text))
    for k in kinds:
        if k not in RELATION_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown relation kind {k!r} (expected {', '.join(RELATION_KINDS)})"
            )
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobitrees",
        description="Exact integer computations for tree groups and their quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    methods = ("auto", *METHOD_CAPS)

    def fmt(p, choices=("text", "json", "csv")):
        p.add_argument("--format", default="text", choices=choices)

    def relations_and_parity(p):
        p.add_argument("--relations", type=_relation_kinds, default="as,ihx")
        p.add_argument("--parity", default=None, choices=("odd", "even"))

    p = sub.add_parser("enum", help="list Tree(n), count first")
    p.add_argument("--n", type=int, required=True)
    fmt(p)

    p = sub.add_parser("rank", help="rank/torsion of Z[Tree(n)] modulo relations")
    p.add_argument("--n", type=int, required=True)
    relations_and_parity(p)
    p.add_argument("--method", default="auto", choices=methods)
    fmt(p)

    p = sub.add_parser("table", help="rank table across degrees, both parities")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", default="auto", choices=methods)
    fmt(p)

    p = sub.add_parser("reduce", help="normal form and zero verdict for a vector")
    p.add_argument("input_file", nargs="?", default=None)
    p.add_argument("--expr", default=None)
    relations_and_parity(p)
    p.add_argument(
        "--group", type=_names, default=None, help="comma-separated generator names"
    )

    p = sub.add_parser("magnus", help="tree word, Magnus expansion, agreement check")
    p.add_argument("--tree", required=True)
    p.add_argument("--truncate", type=int, required=True)
    fmt(p, choices=("text", "json"))

    return parser
