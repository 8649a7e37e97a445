"""Command-line surface: enum, rank, table, reduce, magnus, verify.

Exit codes: 0 success, 2 usage error, 3 computation-resource abort.
Text output may include wall time; CSV and JSON never do, so identical
configs produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import pathlib
import random
import sys
import time

from . import intlinalg, magnus, relations
from .decorations import DecorationError, DecoratedVector, GroupSpec, decorated_normal_form
from .words import WordError
from .intlinalg import (
    IntLattice,
    SnfResult,
    cache_key,
    cache_load,
    cache_store,
    snf_from_rows,
)
from .lie import lyndon_basis, straighten_vector, to_lyndon_coordinates
from .trees import (
    TreeError,
    TreeVector,
    enumerate_trees,
    parse_tree,
    parse_tree_vector,
    tree_count,
    tree_list,
)

CACHE_ENV = "JACOBITREES_CACHE_DIR"
RELATION_KINDS = ("as", "ihx", "stu2")

#: The largest degree each method may run at.  Exact SNF stops at 6 because
#: at 7 coefficient swell keeps it from finishing; beyond 8 is out of desk
#: scale for every method.
METHOD_CAPS = {"snf": 6, "lyndon": 6, "modular": 8}

#: The largest --max-n verify runs at.  It expands every tree of each
#: degree: 6 takes over a minute, 7 would expand 665 280 trees and 8 would
#: enumerate 17 297 280.
VERIFY_CAP = 6


class UsageError(Exception):
    pass


class ResourceAbort(Exception):
    pass


def lie_quotient(kinds: tuple[str, ...]) -> bool:
    """Whether kinds include as,ihx: the quotient is then one of Lie(n), and
    the (n-1)! Lyndon coordinates present it."""
    return {"as", "ihx"} <= set(kinds)


def pick_method(n: int, method: str, kinds: tuple[str, ...]) -> str:
    """The method degree n runs with under relations kinds: auto resolved,
    the caps enforced."""
    desk_cap = max(METHOD_CAPS.values())
    if n < 1:
        raise UsageError(f"degree {n} is below 1 (--n and --max-n start at 1)")
    if n > desk_cap:
        raise ResourceAbort(f"n = {n} is beyond desk scale (cap {desk_cap})")
    if method == "auto":
        # Lyndon coordinates present every quotient of Lie(n); the full tree
        # basis is cheap only through 5
        lie = lie_quotient(kinds)
        method = "modular" if n > METHOD_CAPS["lyndon"] else "lyndon" if lie else "snf"
        if method == "snf" and n > 5:
            raise UsageError(
                f"auto at n = {n} takes Lyndon coordinates, which need relations "
                "to include as,ihx; --method snf runs the tree basis"
            )
    if n > METHOD_CAPS[method]:
        raise UsageError(f"method {method} allowed only for n <= {METHOD_CAPS[method]}")
    return method


def certification(method: str) -> str:
    return "probabilistic over Q" if method == "modular" else "exact over Z"


def lyndon_rows(n: int, kinds: tuple[str, ...], parity: str | None):
    """The relations kinds as sparse rows on the (n-1)! Lyndon coordinates.

    Z[Tree(n)] / (AS, IHX) is free on the Lyndon brackets, so AS and IHX
    give no rows.  Each stu2 vector is straightened, a route whose agreement
    with the expansion route is a tested invariant.  Kinds without as,ihx
    are refused on the call, not on the first row.
    """
    if not lie_quotient(kinds):
        raise UsageError(
            "Lyndon coordinates present the quotient only when relations "
            "include as,ihx"
        )
    if "stu2" not in kinds:
        return iter(())

    def rows():
        index = {w: i for i, (w, _) in enumerate(lyndon_basis(n))}
        for v in relations.stu2_relations(n, parity).vectors():
            row = {index[k]: c for k, c in straighten_vector(v).items()}
            if row:
                yield row

    return rows()


def compute_quotient(
    n: int, kinds: tuple[str, ...], parity: str | None, method: str
) -> SnfResult:
    """Structure of Z[Tree(n)] / <kinds> by the requested route: snf on the
    full tree basis, lyndon and modular on the rows of lyndon_rows."""
    method = pick_method(n, method, kinds)
    if n == 1:
        # the degree-1 chord with trivial decoration dies definitionally
        if "stu2" in kinds:
            return SnfResult(invariant_factors=[1], rank=1, cols=1)
        return SnfResult(invariant_factors=[], rank=0, cols=1)

    if method == "snf":
        basis = tree_list(n)
        sets = relations.build_relation_sets(n, kinds, parity)
        return intlinalg.cokernel(relations.relation_union(sets), basis)

    cols = math.factorial(n - 1)
    rows = lyndon_rows(n, kinds, parity)
    if method == "lyndon":
        return snf_from_rows(rows, cols)
    ranks = intlinalg.rank_modp_rows_dense(rows, cols)
    if len(set(ranks.values())) > 1:
        print(
            "primes disagree: "
            + ", ".join(f"rank mod {p} = {r}" for p, r in ranks.items()),
            file=sys.stderr,
        )
    # a rank mod p is a lower bound on the rank over Q, so the larger
    # of the two is the better bound
    rank = max(ranks.values())
    return SnfResult(
        invariant_factors=[1] * rank,
        rank=rank,
        cols=cols,
        probabilistic=True,
    )


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the package's sources: a cache entry is served only to the
    code that computed it."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def quotient_with_cache(cache_dir: str | None, n: int, kinds, parity, method) -> SnfResult:
    """compute_quotient through the result cache in cache_dir, or else in
    $JACOBITREES_CACHE_DIR; with neither set, no cache."""
    cache_dir = cache_dir or os.environ.get(CACHE_ENV)
    if not cache_dir:
        return compute_quotient(n, kinds, parity, method)
    key = cache_key(
        n=n, kinds=sorted(kinds), parity=parity, method=method, code=code_fingerprint()
    )
    result = cache_load(cache_dir, key)
    if result is None:
        result = compute_quotient(n, kinds, parity, method)
        try:
            cache_store(cache_dir, key, result)
        except OSError as exc:
            print(f"cache not written: {exc}", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# subcommands


def cmd_enum(args: argparse.Namespace) -> int:
    n = args.n
    pick_method(n, "auto", ("as", "ihx"))  # the degree range every command accepts
    stream = enumerate_trees(n)
    count = tree_count(n)
    if args.format == "json":
        print(json.dumps({"n": n, "count": count, "trees": [t.serialize() for t in stream]}))
        return 0
    if args.format == "csv":
        print("index,tree")
        for i, t in enumerate(stream):
            print(f"{i},{t.serialize()}")
        return 0
    print(count)
    for t in stream:
        print(t.serialize())
    return 0


def torsion_text(res: SnfResult) -> str:
    """Torsion factors joined by ';', so that a CSV field holds all of them."""
    if res.probabilistic:
        return "unknown"
    return ";".join(map(str, res.torsion)) or "none"


def _render_rank(fmt: str, n: int, method: str, res: SnfResult, dt: float) -> None:
    torsion = torsion_text(res)
    if fmt == "json":
        obj = res.to_json_obj()
        obj.update({"n": n, "method": method, "certification": certification(method)})
        print(json.dumps(obj, sort_keys=True))
    elif fmt == "csv":
        print("n,rank,torsion,method,certification")
        print(f"{n},{res.free_rank},{torsion},{method},{certification(method)}")
    else:
        print(f"n = {n}")
        print(f"quotient rank = {res.free_rank}")
        print(f"torsion = {torsion}")
        print(f"method = {method}")
        print(f"certification = {certification(method)}")
        print(f"wall time = {dt:.3f}s")


def cmd_rank(args: argparse.Namespace) -> int:
    # through n = 5 rank keeps auto on the full tree basis: it prints that
    # presentation's cols, rank and invariant factors, and perfbench traces
    # the tree-basis layers through it
    method = "snf" if args.method == "auto" and args.n <= 5 else args.method
    method = pick_method(args.n, method, args.relations)
    t0 = time.time()
    res = quotient_with_cache(args.cache_dir, args.n, args.relations, args.parity, method)
    _render_rank(args.format, args.n, method, res, time.time() - t0)
    return 0


TABLE_COLUMNS = (
    "n",
    "lie_rank",
    "at_odd_rank",
    "at_even_rank",
    "torsion_odd",
    "torsion_even",
    "certification",
)


def table_rows(args: argparse.Namespace):
    for n in range(1, args.max_n + 1):
        method = pick_method(n, args.method, ("as", "ihx"))
        lie_res = quotient_with_cache(args.cache_dir, n, ("as", "ihx"), None, method)
        odd = quotient_with_cache(args.cache_dir, n, ("as", "ihx", "stu2"), "odd", method)
        even = quotient_with_cache(args.cache_dir, n, ("as", "ihx", "stu2"), "even", method)
        yield {
            "n": n,
            "lie_rank": lie_res.free_rank,
            "at_odd_rank": odd.free_rank,
            "at_even_rank": even.free_rank,
            "torsion_odd": torsion_text(odd),
            "torsion_even": torsion_text(even),
            "certification": certification(method),
        }


def cmd_table(args: argparse.Namespace) -> int:
    pick_method(args.max_n, args.method, ("as", "ihx"))  # every degree's cap, before any work
    rows = list(table_rows(args))
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
        return 0
    if args.format == "csv":
        print(",".join(TABLE_COLUMNS))
        for row in rows:
            print(",".join(str(row[c]) for c in TABLE_COLUMNS))
        return 0
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in TABLE_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in TABLE_COLUMNS))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in TABLE_COLUMNS))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    text = args.expr
    if args.input_file:
        try:
            with open(args.input_file) as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read input file: {exc}") from exc
    if not text:
        raise UsageError("reduce needs an input file or --expr")
    try:
        vec = parse_tree_vector(text)
    except TreeError as exc:
        raise UsageError(f"cannot parse vector: {exc}") from exc
    n = vec.degree
    if not lie_quotient(args.relations):
        raise UsageError("reduce works in Lie(n): relations must include as,ihx")
    # the degree cap of the route that runs, before any work: the stu2
    # verdict on undecorated input is an exact lattice on Lyndon coordinates
    stu2_verdict = "stu2" in args.relations and not vec.decorated
    pick_method(n, "lyndon" if stu2_verdict else "auto", args.relations)

    if vec.decorated:
        group = GroupSpec(args.group or ("a", "b"))
        dv = DecoratedVector(vector=vec, group=group)
        blocks = decorated_normal_form(dv)
        zero = all(not any(c) for c in blocks.values())
        for tup, coords in sorted(blocks.items(), key=lambda kv: str(kv[0])):
            label = ", ".join(str(w) or "1" for w in tup)
            print(f"tuple ({label}): coordinates {coords}")
        print("ZERO in Lie_G(%d)" % n if zero else "NONZERO in Lie_G(%d)" % n)
        if "stu2" in args.relations:
            print(
                "note: stu2 verdict needs undecorated input; membership in "
                "AS+IHX is a necessary condition only for decorated classes"
            )
        return 0

    coords = to_lyndon_coordinates(vec, n)
    print(f"lyndon coordinates: {coords}")
    zero = not any(coords)
    if zero:
        nf = TreeVector.zero(n)
        print("normal form: 0")
        print(f"ZERO in Lie({n})")
    else:
        terms = {}
        for (w, t), c in zip(lyndon_basis(n), coords):
            if c:
                terms[t] = c
        nf = TreeVector.from_dict(terms)
        print(f"normal form: {nf.serialize()}")
        print(f"NONZERO in Lie({n}), coordinates {tuple(c for c in coords)}")
    if stu2_verdict:
        parity = args.parity
        if n == 1:
            print(f"ZERO in A^T,{parity}_1 (degree-1 classes die definitionally)")
            return 0
        lat = IntLattice(math.factorial(n - 1))
        lat.add_many(lyndon_rows(n, args.relations, parity))
        lat.normalize()
        reduced = lat.reduce({j: c for j, c in enumerate(coords) if c})
        if reduced:
            print(f"NONZERO in A^T,{parity}_{n}: residue {reduced}")
        else:
            print(f"ZERO in A^T,{parity}_{n}")
    return 0


def cmd_magnus(args: argparse.Namespace) -> int:
    truncate = args.truncate
    try:
        t = parse_tree(args.tree)
    except TreeError as exc:
        raise UsageError(f"cannot parse tree: {exc}") from exc
    if not hasattr(t, "is_leaf"):
        raise UsageError("magnus needs an undecorated tree")
    n = t.degree
    if truncate < n:
        raise UsageError(f"truncation {truncate} below tree degree {n}")
    # the desk-scale cap on the truncation also caps the degree
    pick_method(truncate, "auto", ("as", "ihx"))
    word = magnus.tree_to_word(t)
    alphabet = [magnus.generator_name(i) for i in range(1, n + 1)]
    poly = magnus.magnus_expand(word, truncate, alphabet)
    ok = magnus.magnus_agreement(t)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "tree": t.serialize(),
                    "word": str(word),
                    "expansion": str(poly),
                    "leading_term_agreement": ok,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"tree: {t.serialize()}")
        print(f"word: {word}")
        print(f"magnus expansion (N={truncate}): {poly}")
        print("leading-term agreement: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Quick invariant suite; the full suite lives in tests/."""
    from .lie import expand, straighten_vector
    from .magnus import magnus_agreement

    max_n = args.max_n
    pick_method(max_n, "auto", ("as", "ihx"))  # the degree range every command accepts
    if max_n > VERIFY_CAP:
        raise ResourceAbort(f"verify --max-n {max_n} is beyond its cap {VERIFY_CAP}")
    rng = random.Random(args.seed)
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    for n in range(1, max_n + 1):
        count = sum(1 for _ in enumerate_trees(n))
        check(f"tree count n={n} is {tree_count(n)}", count == tree_count(n))
    for n in range(2, max_n + 1):
        ok = True
        for rs in (relations.as_relations(n), relations.ihx_relations(n)):
            for v in rs.vectors():
                if not expand(v).is_zero:
                    ok = False
        check(f"AS/IHX expansion annihilation n={n}", ok)
    for n in range(2, max_n + 1):
        trees = tree_list(n)
        sample = trees if len(trees) <= 24 else rng.sample(list(trees), 24)
        ok = all(magnus_agreement(t) for t in sample)
        check(f"magnus/lie leading-term agreement n={n}", ok)
    for n in range(2, max_n + 1):
        ok = True
        for t in tree_list(n):
            via_expand = to_lyndon_coordinates(t, n)
            s = straighten_vector(TreeVector.single(t))
            via_straighten = [s.get(w, 0) for w, _ in lyndon_basis(n)]
            if via_expand != via_straighten:
                ok = False
                break
        check(f"lyndon dual-route agreement n={n}", ok)
    for n in range(2, min(max_n, 5) + 1):
        res = compute_quotient(n, ("as", "ihx"), None, "snf")
        check(
            f"cokernel(AS+IHX) n={n} free of rank (n-1)!",
            res.free_rank == math.factorial(n - 1) and not res.torsion,
        )
    print(f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


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
    p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("table", help="rank table across degrees, both parities")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", default="auto", choices=methods)
    fmt(p)
    p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("reduce", help="normal form and zero verdict for a vector")
    p.add_argument("input_file", nargs="?", default=None)
    p.add_argument("--expr", default=None)
    relations_and_parity(p)
    p.add_argument(
        "--group", type=_names, default=(), help="comma-separated generator names"
    )

    p = sub.add_parser("magnus", help="tree word, Magnus expansion, agreement check")
    p.add_argument("--tree", required=True)
    p.add_argument("--truncate", type=int, required=True)
    fmt(p, choices=("text", "json"))

    p = sub.add_parser("verify", help="run the quick invariant suite")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    return parser


COMMANDS = {
    "enum": cmd_enum,
    "rank": cmd_rank,
    "table": cmd_table,
    "reduce": cmd_reduce,
    "magnus": cmd_magnus,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if "stu2" in getattr(args, "relations", ()) and args.parity is None:
            raise UsageError("stu2 relations require --parity odd|even")
        return COMMANDS[args.command](args)
    except (UsageError, TreeError, DecorationError, WordError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ResourceAbort, intlinalg.LinalgError) as exc:
        print(f"resource abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
