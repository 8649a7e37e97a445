"""Seeded inputs and the correctness gate of the benchmark.

Inputs are built here as strings, from the seed alone, without importing
jacobitrees: the same seed gives the same inputs whatever the library does.
The gate checks every printed Lyndon coordinate against its own expansion
of the input in the tensor algebra, and every stu2 residue against outputs
pinned in ``stu2_pool.json`` (written by ``pin_stu2.py``).

Workloads:

* ``rank7``  -- one ``rank --n 7`` (odd, auto -> modular route) per operation.
* ``table6`` -- one ``table --max-n 6`` per operation.
* ``queries`` -- rounds of short ``reduce`` / ``magnus`` calls.  Every round
  has the same mix of query kinds and degrees (``ROUND_MIX``); only the
  trees, coefficients, decorations and order change with the seed, so the
  percentiles land on the same kinds on every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from functools import lru_cache
from pathlib import Path

RANK7_ARGV = ["rank", "--n", "7", "--relations", "as,ihx,stu2",
              "--parity", "odd", "--format", "csv"]
RANK7_GOLDEN = (
    "n,rank,torsion,method,certification\n"
    "7,8,unknown,modular,probabilistic over Q\n"
)

TABLE6_ARGV = ["table", "--max-n", "6", "--format", "csv"]
TABLE6_GOLDEN = (
    "n,lie_rank,at_odd_rank,at_even_rank,torsion_odd,torsion_even,certification\n"
    "1,1,0,0,none,none,exact over Z\n"
    "2,1,1,1,none,none,exact over Z\n"
    "3,2,1,1,none,none,exact over Z\n"
    "4,6,2,0,none,2;2,exact over Z\n"
    "5,24,3,2,none,2,exact over Z\n"
    "6,120,5,1,none,2;2;2;2,exact over Z\n"
)

GOLDEN = {"rank7": RANK7_GOLDEN, "table6": TABLE6_GOLDEN}

# One round of the queries workload: (kind, degree, parity, count).  A
# "pair" emits two queries, v and v + r with r an integer combination of
# AS/IHX vectors; a "zero" query is such an r alone, plus, for a stu2 one,
# a nonzero element of the stu2 lattice.  A stu2 query takes its v from the
# pinned pool of its degree and parity.  The strata are fixed,
# so every round has the same latency classes (measured on a 2-core
# x86-64 virtual machine):
#   n = 6 stu2 reduce, ~0.5 s  ........................  8 of 35 (23%)
#   n = 5 stu2 reduce and zero, ~40 ms  ..................  3
#   n = 6 plain reduce and zero, n = 6 magnus, ~20 ms  ...  4
#   n = 4 stu2 reduce, n = 5 magnus, ~12 ms  .............  6
#   n <= 5 plain, n <= 4 decorated and magnus, ~6 ms  .... 14
# p90 falls inside the n = 6 stu2 class and p50 inside the ~12 ms class,
# several queries away from either border.
ROUND_MIX = (
    ("stu2_pair", 6, "odd", 2),
    ("stu2_pair", 6, "even", 2),
    ("stu2_pair", 5, "odd", 1),
    ("zero", 5, "even", 1),
    ("plain_pair", 6, None, 1),
    ("zero", 6, None, 1),
    ("magnus", 6, None, 1),
    ("stu2_pair", 4, "odd", 1),
    ("stu2_pair", 4, "even", 1),
    ("magnus", 5, None, 2),
    ("plain_pair", 3, None, 1),
    ("plain_pair", 4, None, 1),
    ("plain_pair", 5, None, 1),
    ("decorated_pair", 3, None, 1),
    ("decorated_pair", 4, None, 1),
    ("decorated_zero", 4, None, 1),
    ("magnus", 2, None, 1),
    ("magnus", 3, None, 1),
    ("magnus", 4, None, 1),
)

DECORATION_WORDS = ("", "a", "b", "a^-1", "b^-1", "a^2", "b^-2")

POOL_PATH = Path(__file__).resolve().parent / "stu2_pool.json"
POOL_KEYS = tuple(sorted({(n, parity) for _, n, parity, _ in ROUND_MIX if parity is not None}))


# ---------------------------------------------------------------------------
# trees as nested tuples: a leaf is an int, an internal node a pair


def random_tree(rng: random.Random, labels: list[int]):
    if len(labels) == 1:
        return labels[0]
    k = rng.randint(1, len(labels) - 1)
    return (random_tree(rng, labels[:k]), random_tree(rng, labels[k:]))


def shuffled_labels(rng: random.Random, n: int) -> list[int]:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return labels


def render(t, deco: dict[int, str] | None = None) -> str:
    if isinstance(t, int):
        return f"{t}{{{deco[t]}}}" if deco is not None else str(t)
    return f"[{render(t[0], deco)},{render(t[1], deco)}]"


def _internal_paths(t, path=()):
    if isinstance(t, int):
        return []
    return [path] + _internal_paths(t[0], path + (0,)) + _internal_paths(t[1], path + (1,))


def _get(t, path):
    for step in path:
        t = t[step]
    return t


def _put(t, path, new):
    if not path:
        return new
    if path[0] == 0:
        return (_put(t[0], path[1:], new), t[1])
    return (t[0], _put(t[1], path[1:], new))


def as_vector(rng: random.Random, n: int) -> list[tuple[int, object]]:
    """T + (T with the children of one internal node swapped)."""
    t = random_tree(rng, shuffled_labels(rng, n))
    path = rng.choice(_internal_paths(t))
    a, b = _get(t, path)
    return [(1, t), (1, _put(t, path, (b, a)))]


def ihx_vector(rng: random.Random, n: int) -> list[tuple[int, object]]:
    """A Jacobi vector at one internal edge of a random tree (n >= 3).

    [[A,B],C] - [A,[B,C]] + [B,[A,C]] or [C,[A,B]] - [[C,A],B] - [A,[C,B]],
    both of which expand to zero in the tensor algebra.
    """
    t = random_tree(rng, shuffled_labels(rng, n))
    edges = [(p, side) for p in _internal_paths(t) for side in (0, 1)
             if not isinstance(_get(t, p)[side], int)]
    path, side = rng.choice(edges)
    node = _get(t, path)
    if side == 0:
        (a, b), c = node
        terms = [(1, ((a, b), c)), (-1, (a, (b, c))), (1, (b, (a, c)))]
    else:
        c, (a, b) = node
        terms = [(1, (c, (a, b))), (-1, ((c, a), b)), (-1, (a, (c, b)))]
    return [(k, _put(t, path, sub)) for k, sub in terms]


def relation_combination(rng: random.Random, n: int) -> list[tuple[int, object]]:
    """A nonzero-coefficient integer combination of 1 to 3 AS/IHX vectors."""
    out = []
    for _ in range(rng.randint(1, 3)):
        vec = ihx_vector(rng, n) if n >= 3 and rng.random() < 0.6 else as_vector(rng, n)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        out.extend((c * k, t) for k, t in vec)
    return out


def random_combination(rng: random.Random, n: int) -> list[tuple[int, object]]:
    return [(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
             random_tree(rng, shuffled_labels(rng, n)))
            for _ in range(rng.randint(1, 3))]


def vector_text(terms, deco: dict[int, str] | None = None) -> str:
    return " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*{render(t, deco)}" for c, t in terms)


# ---------------------------------------------------------------------------
# the Lyndon basis and the tensor algebra, kept apart from the library's


def _bracketing(w: tuple[int, ...]):
    """Standard bracketing: w = uv with v the least proper suffix."""
    if len(w) == 1:
        return w[0]
    v = min(w[i:] for i in range(1, len(w)))
    return (_bracketing(w[: len(w) - len(v)]), _bracketing(v))


@lru_cache(maxsize=8)
def lyndon_basis(n: int) -> tuple:
    """(word, bracketed tree) for the multilinear Lyndon words on 1..n, in
    lexicographic order: the basis the CLI prints coordinates in."""
    words = sorted((1,) + p for p in itertools.permutations(range(2, n + 1)))
    return tuple((w, _bracketing(w)) for w in words)


def expansion(t) -> dict[tuple[int, ...], int]:
    """A tree in the tensor algebra, [a, b] = ab - ba."""
    if isinstance(t, int):
        return {(t,): 1}
    out: dict[tuple[int, ...], int] = {}
    a, b = expansion(t[0]), expansion(t[1])
    for u, x in a.items():
        for v, y in b.items():
            out[u + v] = out.get(u + v, 0) + x * y
            out[v + u] = out.get(v + u, 0) - x * y
    return out


@lru_cache(maxsize=8)
def _basis_expansions(n: int) -> tuple:
    return tuple(expansion(t) for _, t in lyndon_basis(n))


def coordinates_ok(coords: list[int], terms, n: int) -> bool:
    """The coordinates times the bracketed Lyndon basis give the terms."""
    if len(coords) != len(lyndon_basis(n)):
        return False
    diff: dict[tuple[int, ...], int] = {}
    polys = [(c, expansion(t)) for c, t in terms]
    polys += [(-c, e) for c, e in zip(coords, _basis_expansions(n)) if c]
    for c, poly in polys:
        for w, x in poly.items():
            diff[w] = diff.get(w, 0) + c * x
    return not any(diff.values())


# ---------------------------------------------------------------------------
# the pinned stu2 pool


def _tree(x):
    return x if isinstance(x, int) else (_tree(x[0]), _tree(x[1]))


@lru_cache(maxsize=1)
def stu2_pool() -> dict[tuple[int, str], list[dict]]:
    """(n, parity) -> vectors with the coordinates, residue and stdout the
    CLI printed for them when the pool was pinned."""
    out = {}
    for key, entries in json.loads(POOL_PATH.read_text()).items():
        n, parity = key.split("-")
        out[(int(n), parity)] = [{
            "terms": [(c, _tree(t)) for c, t in e["terms"]],
            "coords": e["coords"],
            "residue": {int(j): c for j, c in e["residue"].items()},
            "stdout_sha256": e["stdout_sha256"],
        } for e in entries]
    return out


def lattice_element(entry: dict, n: int) -> list[tuple[int, object]]:
    """coordinates - residue of a pool vector, as a combination of the
    bracketed Lyndon basis: an element of the stu2 lattice."""
    residue = entry["residue"]
    return [(c - residue.get(j, 0), t)
            for j, (c, (_, t)) in enumerate(zip(entry["coords"], lyndon_basis(n)))
            if c != residue.get(j, 0)]


# ---------------------------------------------------------------------------
# query generation


def _reduce_argv(expr: str, parity: str | None) -> list[str]:
    argv = ["reduce", f"--expr={expr}"]  # "=": the text may start with "-"
    if parity is not None:
        argv += ["--relations", "as,ihx,stu2", "--parity", parity]
    return argv


def _query(check, n, terms=None, parity=None, deco=None, digest=None, argv=None, **extra):
    if argv is None:
        argv = _reduce_argv(vector_text(terms, deco), parity)
    return {"argv": argv, "n": n, "check": check, "terms": terms, "parity": parity,
            "deco": deco, "digest": digest, **extra}


def _pair(rng, n, v, parity=None, deco=None, digest=None):
    r = relation_combination(rng, n)
    tag = rng.getrandbits(48)
    return [_query("pair", n, terms, parity, deco, digest, pair=tag) for terms in (v, v + r)]


def _decoration(rng, n):
    return {k: rng.choice(DECORATION_WORDS) for k in range(1, n + 1)}


def make_query(rng: random.Random, kind: str, n: int, parity: str | None) -> list[dict]:
    if kind == "stu2_pair":
        entry = rng.choice(stu2_pool()[(n, parity)])
        return _pair(rng, n, entry["terms"], parity, digest=entry["stdout_sha256"])
    if kind == "plain_pair":
        return _pair(rng, n, random_combination(rng, n))
    if kind == "decorated_pair":
        return _pair(rng, n, random_combination(rng, n), deco=_decoration(rng, n))
    if kind == "zero":
        terms = relation_combination(rng, n)
        if parity is not None:
            terms = lattice_element(rng.choice(stu2_pool()[(n, parity)]), n) + terms
        return [_query("zero", n, terms, parity)]
    if kind == "decorated_zero":
        return [_query("zero", n, relation_combination(rng, n), deco=_decoration(rng, n))]
    if kind == "magnus":
        tree = render(random_tree(rng, shuffled_labels(rng, n)))
        return [_query("magnus", n, argv=["magnus", "--tree", tree, "--truncate", str(n)])]
    raise ValueError(f"unknown query kind {kind!r}")


def make_round(rng: random.Random) -> list[dict]:
    """One round: the fixed ROUND_MIX, contents and order from rng."""
    groups = [make_query(rng, kind, n, parity)
              for kind, n, parity, count in ROUND_MIX for _ in range(count)]
    rng.shuffle(groups)
    return [q for g in groups for q in g]


def make_rounds(seed: int, count: int) -> list[list[dict]]:
    rng = random.Random(seed)
    return [make_round(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# the gate


_COORDS = re.compile(r"^lyndon coordinates: \[([-0-9, ]*)\]$", re.M)
_BLOCK = re.compile(r"^tuple \((.*)\): coordinates \[([-0-9, ]*)\]$", re.M)


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text.strip() else []


def _plain_ok(stdout: str, query: dict) -> bool:
    """Coordinates right, Lie verdict matching them, stu2 output pinned."""
    n, lines = query["n"], stdout.splitlines()
    m = _COORDS.search(stdout)
    if m is None or not coordinates_ok(_ints(m.group(1)), query["terms"], n):
        return False
    coords = _ints(m.group(1))
    verdict = f"NONZERO in Lie({n}), coordinates {tuple(coords)}" if any(coords) \
        else f"ZERO in Lie({n})"
    if verdict not in lines:
        return False
    if query["digest"] is not None and \
            hashlib.sha256(stdout.encode()).hexdigest() != query["digest"]:
        return False
    if query["check"] == "zero" and query["parity"] is not None:
        return f"ZERO in A^T,{query['parity']}_{n}" in lines
    return True


def _decorated_ok(stdout: str, query: dict) -> bool:
    """One block, labelled by the decoration, with the right coordinates.

    An input whose terms all cancel parses to the zero vector, which the
    CLI reports in the undecorated form ("ZERO in Lie(n)").
    """
    n, lines = query["n"], stdout.splitlines()
    blocks = _BLOCK.findall(stdout)
    if not blocks:
        m = _COORDS.search(stdout)
        return (m is not None and not any(_ints(m.group(1)))
                and coordinates_ok(_ints(m.group(1)), query["terms"], n)
                and f"ZERO in Lie({n})" in lines)
    label = ", ".join(query["deco"][k] or "1" for k in range(1, n + 1))
    if len(blocks) != 1 or blocks[0][0] != label:
        return False
    coords = _ints(blocks[0][1])
    verdict = "NONZERO" if any(coords) else "ZERO"
    return coordinates_ok(coords, query["terms"], n) and f"{verdict} in Lie_G({n})" in lines


def check_query(query: dict, result: dict) -> bool:
    """Checks one query on its own; check_pair compares the two of a pair."""
    if result.get("code") != 0:
        return False
    if query["check"] == "magnus":
        return "leading-term agreement: PASS" in result["stdout"].splitlines()
    if query["deco"] is not None:
        return _decorated_ok(result["stdout"], query)
    return _plain_ok(result["stdout"], query)


def _nonzero_blocks(stdout: str) -> dict[str, str]:
    return {label: coords for label, coords in _BLOCK.findall(stdout) if any(_ints(coords))}


def check_pair(first: dict, second: dict, query: dict) -> bool:
    """v and v + r print the same coordinates, verdicts and residue."""
    if query["deco"] is not None:
        return _nonzero_blocks(first["stdout"]) == _nonzero_blocks(second["stdout"])
    return first["stdout"] == second["stdout"]


def check_round(queries: list[dict], results: list[dict]) -> list[bool]:
    """Per-query verdicts; both members of a mismatched pair fail."""
    ok = [check_query(q, r) for q, r in zip(queries, results)]
    by_pair: dict[int, list[int]] = {}
    for i, q in enumerate(queries):
        if q["check"] == "pair":
            by_pair.setdefault(q["pair"], []).append(i)
    for i, j in by_pair.values():
        if not check_pair(results[i], results[j], queries[i]):
            ok[i] = ok[j] = False
    return ok


def check_fixed(workload: str, result: dict) -> bool:
    return result.get("code") == 0 and result["stdout"] == GOLDEN[workload]
