"""Command-line surface: enum, rank, table, reduce, magnus, verify.

Exit codes: 0 success, 2 usage error, 3 computation-resource abort.
Text output may include wall time; CSV and JSON never do, so identical
configs produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

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

EXACT_SNF_CAP = 5       # full tree-space SNF
LYNDON_EXACT_CAP = 6    # exact SNF on Lyndon coordinates
DESK_SCALE_CAP = 8      # beyond this, explicitly out of scope

CACHE_ENV = "JACOBITREES_CACHE_DIR"
RELATION_KINDS = ("as", "ihx", "stu2")


class UsageError(Exception):
    pass


class ResourceAbort(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    max_n: int | None = None
    kinds: tuple[str, ...] = ()
    parity: str | None = None
    method: str = "auto"
    group: tuple[str, ...] = ()
    cache_dir: str | None = None
    fmt: str = "text"
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = [k for k in self.kinds if k not in RELATION_KINDS]
        if unknown:
            raise UsageError(
                f"unknown relation kind {unknown[0]!r} "
                f"(expected {', '.join(RELATION_KINDS)})"
            )
        if "stu2" in self.kinds and self.parity is None:
            raise UsageError("stu2 relations require --parity odd|even")
        if self.parity is not None and self.parity not in ("odd", "even"):
            raise UsageError(f"bad parity {self.parity!r}")
        if self.method not in ("auto", "snf", "lyndon", "modular"):
            raise UsageError(f"bad method {self.method!r}")
        if self.fmt not in ("text", "json", "csv"):
            raise UsageError(f"bad format {self.fmt!r}")


def resolve_cache_dir(config: RunConfig) -> str | None:
    if config.cache_dir:
        return config.cache_dir
    return os.environ.get(CACHE_ENV)


def pick_method(n: int, method: str) -> str:
    if method != "auto":
        if method == "snf" and n > LYNDON_EXACT_CAP:
            raise UsageError(
                f"method snf allowed only for n <= {LYNDON_EXACT_CAP}"
            )
        return method
    if n <= EXACT_SNF_CAP:
        return "snf"
    if n <= LYNDON_EXACT_CAP:
        return "lyndon"
    return "modular"


def certification(method: str) -> str:
    return "probabilistic over Q" if method == "modular" else "exact over Z"


def stu2_lyndon_rows(n: int, parity: str):
    """Quadratic relations as sparse Lyndon-coordinate rows.

    Coordinates come from the AS/IHX straightening route, whose agreement
    with the expansion route is a tested invariant.
    """
    index = {w: i for i, (w, _) in enumerate(lyndon_basis(n))}
    for v in relations.stu2_relations(n, parity).vectors():
        row = {index[k]: c for k, c in straighten_vector(v).items()}
        if row:
            yield row


def compute_quotient(
    n: int, kinds: tuple[str, ...], parity: str | None, method: str
) -> SnfResult:
    """Structure of Z[Tree(n)] / <kinds> by the requested route.

    The Lyndon and modular routes present the quotient on the (n-1)! Lyndon
    coordinates and therefore require as and ihx among the kinds.
    """
    if n > DESK_SCALE_CAP:
        raise ResourceAbort(f"n = {n} is beyond desk scale (cap {DESK_SCALE_CAP})")
    kinds = tuple(k.strip().lower() for k in kinds)
    if n == 1:
        # the degree-1 chord with trivial decoration dies definitionally
        if "stu2" in kinds:
            return SnfResult(invariant_factors=[1], rank=1, cols=1)
        return SnfResult(invariant_factors=[], rank=0, cols=1)

    if method == "snf":
        basis = tree_list(n)
        sets = relations.build_relation_sets(n, kinds, parity)
        return intlinalg.cokernel(relations.relation_union(sets), basis)

    if {"as", "ihx"} - set(kinds):
        raise UsageError(
            f"method {method} presents the quotient on Lyndon coordinates "
            "and needs relations to include as,ihx"
        )
    cols = math.factorial(n - 1)
    rows = stu2_lyndon_rows(n, parity) if "stu2" in kinds else iter(())
    if method == "lyndon":
        return snf_from_rows(rows, cols)
    if method == "modular":
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
    raise UsageError(f"unknown method {method!r}")


def quotient_with_cache(config: RunConfig, n: int, kinds, parity, method) -> SnfResult:
    cache_dir = resolve_cache_dir(config)
    key = cache_key(
        n=n, kinds=sorted(kinds), parity=parity, method=method, v=1
    )
    if cache_dir:
        hit = cache_load(cache_dir, key)
        if hit is not None:
            return hit
    result = compute_quotient(n, tuple(kinds), parity, method)
    if cache_dir:
        cache_store(cache_dir, key, result)
    return result


# ---------------------------------------------------------------------------
# subcommands


def cmd_enum(config: RunConfig) -> int:
    n = config.n
    try:
        stream = enumerate_trees(n)
    except TreeError as exc:
        raise UsageError(str(exc)) from exc
    count = tree_count(n)
    if config.fmt == "json":
        print(json.dumps({"n": n, "count": count, "trees": [t.serialize() for t in stream]}))
        return 0
    if config.fmt == "csv":
        print("index,tree")
        for i, t in enumerate(stream):
            print(f"{i},{t.serialize()}")
        return 0
    print(count)
    for t in stream:
        print(t.serialize())
    return 0


def _render_rank(config: RunConfig, n: int, method: str, res: SnfResult, dt: float) -> None:
    torsion = "unknown" if res.probabilistic else ",".join(map(str, res.torsion)) or "none"
    if config.fmt == "json":
        obj = res.to_json_obj()
        obj.update({"n": n, "method": method, "certification": certification(method)})
        print(json.dumps(obj, sort_keys=True))
    elif config.fmt == "csv":
        print("n,rank,torsion,method,certification")
        print(f"{n},{res.free_rank},{torsion},{method},{certification(method)}")
    else:
        print(f"n = {n}")
        print(f"quotient rank = {res.free_rank}")
        print(f"torsion = {torsion}")
        print(f"method = {method}")
        print(f"certification = {certification(method)}")
        print(f"wall time = {dt:.3f}s")


def cmd_rank(config: RunConfig) -> int:
    n = config.n
    method = pick_method(n, config.method)
    t0 = time.time()
    res = quotient_with_cache(config, n, config.kinds, config.parity, method)
    _render_rank(config, n, method, res, time.time() - t0)
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


def table_rows(config: RunConfig, max_n: int, min_n: int = 1):
    for n in range(min_n, max_n + 1):
        method = pick_method(n, config.method)
        lie_res = quotient_with_cache(config, n, ("as", "ihx"), None, method)
        odd = quotient_with_cache(config, n, ("as", "ihx", "stu2"), "odd", method)
        even = quotient_with_cache(config, n, ("as", "ihx", "stu2"), "even", method)

        def torsion_text(r: SnfResult) -> str:
            if r.probabilistic:
                return "unknown"
            return ";".join(map(str, r.torsion)) or "none"

        yield {
            "n": n,
            "lie_rank": lie_res.free_rank,
            "at_odd_rank": odd.free_rank,
            "at_even_rank": even.free_rank,
            "torsion_odd": torsion_text(odd),
            "torsion_even": torsion_text(even),
            "certification": certification(method),
        }


def cmd_table(config: RunConfig) -> int:
    if config.max_n < 1:
        raise UsageError(f"--max-n must be at least 1, got {config.max_n}")
    if config.max_n > DESK_SCALE_CAP:
        raise ResourceAbort(
            f"n = {config.max_n} is beyond desk scale (cap {DESK_SCALE_CAP})"
        )
    rows = list(table_rows(config, config.max_n))
    if config.fmt == "json":
        print(json.dumps(rows, sort_keys=True))
        return 0
    if config.fmt == "csv":
        print(",".join(TABLE_COLUMNS))
        for row in rows:
            print(",".join(str(row[c]) for c in TABLE_COLUMNS))
        return 0
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in TABLE_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in TABLE_COLUMNS))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in TABLE_COLUMNS))
    return 0


def cmd_reduce(config: RunConfig) -> int:
    text = config.extra.get("expr")
    if config.extra.get("input_file"):
        try:
            with open(config.extra["input_file"]) as fh:
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
    kinds = config.kinds or ("as", "ihx")

    if vec.decorated:
        group = GroupSpec(config.group or ("a", "b"))
        dv = DecoratedVector(vector=vec, group=group)
        blocks = decorated_normal_form(dv)
        zero = all(not any(c) for c in blocks.values())
        for tup, coords in sorted(blocks.items(), key=lambda kv: str(kv[0])):
            label = ", ".join(str(w) or "1" for w in tup)
            print(f"tuple ({label}): coordinates {coords}")
        print("ZERO in Lie_G(%d)" % n if zero else "NONZERO in Lie_G(%d)" % n)
        if "stu2" in kinds:
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
    if "stu2" in kinds:
        parity = config.parity
        if parity is None:
            raise UsageError("stu2 verdict requires --parity")
        if n == 1:
            print(f"ZERO in A^T,{parity}_1 (degree-1 classes die definitionally)")
            return 0
        lat = IntLattice(math.factorial(n - 1))
        lat.add_many(stu2_lyndon_rows(n, parity))
        lat.normalize()
        reduced = lat.reduce({j: c for j, c in enumerate(coords) if c})
        if reduced:
            print(f"NONZERO in A^T,{parity}_{n}: residue {reduced}")
        else:
            print(f"ZERO in A^T,{parity}_{n}")
    return 0


def cmd_magnus(config: RunConfig) -> int:
    text = config.extra["tree"]
    truncate = config.extra["truncate"]
    try:
        t = parse_tree(text)
    except TreeError as exc:
        raise UsageError(f"cannot parse tree: {exc}") from exc
    if not hasattr(t, "is_leaf"):
        raise UsageError("magnus needs an undecorated tree")
    n = t.degree
    if truncate < n:
        raise UsageError(f"truncation {truncate} below tree degree {n}")
    word = magnus.tree_to_word(t)
    alphabet = [magnus.generator_name(i) for i in range(1, n + 1)]
    poly = magnus.magnus_expand(word, truncate, alphabet)
    ok = magnus.magnus_agreement(t)
    if config.fmt == "json":
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


def cmd_verify(config: RunConfig) -> int:
    """Quick invariant suite; the full suite lives in tests/."""
    from .lie import expand, straighten_vector
    from .magnus import magnus_agreement

    rng = random.Random(config.seed)
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    max_n = config.extra.get("max_n") or 4
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobitrees",
        description="Exact integer computations for tree groups and their quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", default="text", choices=("text", "json", "csv"))
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enum", help="list Tree(n), count first")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("rank", help="rank/torsion of Z[Tree(n)] modulo relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relations", default="as,ihx")
    p.add_argument("--parity", default=None, choices=("odd", "even"))
    p.add_argument("--method", default="auto", choices=("auto", "snf", "lyndon", "modular"))
    common(p)

    p = sub.add_parser("table", help="rank table across degrees, both parities")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", default="auto", choices=("auto", "snf", "lyndon", "modular"))
    common(p)

    p = sub.add_parser("reduce", help="normal form and zero verdict for a vector")
    p.add_argument("input_file", nargs="?", default=None)
    p.add_argument("--expr", default=None)
    p.add_argument("--relations", default="as,ihx")
    p.add_argument("--parity", default=None, choices=("odd", "even"))
    p.add_argument("--group", default=None, help="comma-separated generator names")
    common(p)

    p = sub.add_parser("magnus", help="tree word, Magnus expansion, agreement check")
    p.add_argument("--tree", required=True)
    p.add_argument("--truncate", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="run the quick invariant suite")
    p.add_argument("--max-n", type=int, default=4)
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kinds = ()
    if getattr(args, "relations", None):
        kinds = tuple(
            k.strip().lower() for k in args.relations.split(",") if k.strip()
        )
    group = ()
    if getattr(args, "group", None):
        group = tuple(g.strip() for g in args.group.split(",") if g.strip())
    extra = {}
    for key in ("expr", "input_file", "tree", "truncate"):
        if hasattr(args, key):
            extra[key] = getattr(args, key)
    if args.command in ("verify",):
        extra["max_n"] = args.max_n
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        max_n=getattr(args, "max_n", None),
        kinds=kinds,
        parity=getattr(args, "parity", None),
        method=getattr(args, "method", "auto"),
        group=group,
        cache_dir=args.cache_dir,
        fmt=args.format,
        seed=args.seed,
        extra=extra,
    )


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
        config = config_from_args(args)
        return COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TreeError, DecorationError, WordError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceAbort as exc:
        print(f"resource abort: {exc}", file=sys.stderr)
        return 3
    except intlinalg.LinalgError as exc:
        print(f"resource abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
