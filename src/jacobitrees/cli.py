"""Command-line surface: enum, rank, table, reduce, magnus.

Exit codes: 0 success, 2 usage error, 3 computation-resource abort.
Text output may include wall time; CSV and JSON never do, so identical
configs produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
import time
from types import SimpleNamespace

from . import braidlie, intlinalg, magnus, relations
from .decorations import DecorationError, DecoratedVector, GroupSpec, decorated_normal_form
from .words import WordError, read_integer
from .intlinalg import IntLattice, SnfResult, snf_from_rows
from .lie import lyndon_words, standard_bracketing, straighten_vector, to_lyndon_coordinates
from .trees import (
    ENUMERATION_CAP,
    TreeError,
    TreeVector,
    enumerate_trees,
    parse_tree,
    parse_tree_vector,
    tree_count,
    tree_list,
)

RELATION_KINDS = ("as", "ihx", "stu2")

#: The largest degree each method may run at.  Exact SNF finishes at 7 too
#: (snf_from_rows), but stops at 6 here: raising the cap would move
#: `rank --n 7` off modular and change its output.  Beyond the enumeration
#: cap is out of desk scale for every method and every command.
METHOD_CAPS = {"snf": 6, "lyndon": 6, "modular": ENUMERATION_CAP}


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
    if n < 1:
        raise UsageError(f"degree {n} is below 1 (--n and --max-n start at 1)")
    if n > ENUMERATION_CAP:
        raise ResourceAbort(f"n = {n} is beyond desk scale (cap {ENUMERATION_CAP})")
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


def certification(*results: SnfResult) -> str:
    """The label of results: probabilistic if any is a mod-p rank, which
    bounds the rank over Q only."""
    probabilistic = any(res.probabilistic for res in results)
    return "probabilistic over Q" if probabilistic else "exact over Z"


#: Families from this degree up (300 source words at 6, 2160 at 7) are made
#: by a pool of this process and one forked child.  At 5 and below (at most
#: 48 words, ~20 ms) a fork costs more than the share it saves.
SPLIT_DEGREE = 6

#: Each chunk of the pool takes this share, 1/16, of the source words that
#: the chunks before it leave: guided self-scheduling (Polychronopoulos &
#: Kuck, IEEE Trans. Comput. 1987), long chunks first and then shorter ones
#: down to one word, so that both processes finish close together.  A chunk
#: is claimed by its number, one byte: degree 8 gets 118 chunks.
POOL_SHARE = 16


def lyndon_rows(n: int, kinds: tuple[str, ...], parity: str | None):
    """The relations kinds as sparse rows on the (n-1)! Lyndon coordinates.

    Z[Tree(n)] / (AS, IHX) is free on the Lyndon brackets, so AS and IHX
    give no rows.  Each stu2 vector is straightened, a route whose agreement
    with the expansion route is a tested invariant; each distinct tree once
    per process, through a memo that lives as long as the returned generator.
    From SPLIT_DEGREE on, with two CPUs, the rows come from a pool of this
    process and one child, forked on this call (see _pool), so that the
    child works while the caller prepares to consume; they are yielded in
    the same order as unsplit.  Kinds without as,ihx are refused on the
    call, not on the first row.
    """
    if not lie_quotient(kinds):
        raise UsageError(
            "Lyndon coordinates present the quotient only when relations "
            "include as,ihx"
        )
    if "stu2" not in kinds:
        return iter(())
    index = {w: i for i, w in enumerate(lyndon_words(n))}
    memo = {}

    def rows(words):
        # words passed positionally: perfbench's wrapper takes no keywords
        for v in relations.stu2_relations(n, parity, words).vectors():
            row = {index[k]: c for k, c in straighten_vector(v, memo).items()}
            if row:
                yield row

    if n < SPLIT_DEGREE:
        return rows(None)
    stream = _pool(rows, braidlie.source_words(n), n)
    next(stream)  # forks now; close() and garbage collection reap the child
    return stream


def _pool(rows, words, n: int):
    """rows(words), in order, made by this process and one forked child.

    The words are cut into chunks by POOL_SHARE.  The child makes chunk 0;
    then each process claims the next unclaimed chunk by reading its number,
    one byte, from a ticket pipe, which is atomic.  The child sends each
    chunk it finishes as one record: its length in 4 bytes, then the
    marshal of (chunk, rows), or of its error text.  This process yields
    the chunks in order: while the next one is the child's and has not
    arrived, it makes the next unclaimed chunk, keeping it until its turn,
    and reads what the child sent between the rows it makes.  Without a
    second CPU or a fork it makes every row.  The first next() forks.
    """
    chunks, a = [], 0
    while a < len(words):
        size = -(-(len(words) - a) // POOL_SHARE)
        chunks.append(words[a : a + size])
        a += size
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    pid = None
    if cpus > 1 and hasattr(os, "fork"):
        ticket_fd, write_fd = os.pipe()
        os.write(write_fd, bytes(range(1, len(chunks))))
        os.close(write_fd)  # an empty ticket pipe then reads as end of file
        result_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (ticket_fd, result_fd, write_fd):
                os.close(fd)
    if pid == 0:
        # the child ends in os._exit, so it runs none of the parent's
        # cleanup and never flushes the stdout buffer it inherited; it runs
        # only Python code, never numpy, whose threads fork does not copy
        code = 1
        try:
            os.close(result_fd)
            with open(write_fd, "wb") as out:

                def send(record):
                    blob = marshal.dumps(record)
                    out.write(len(blob).to_bytes(4, "little") + blob)
                    out.flush()

                try:
                    ticket = b"\0"
                    while ticket:
                        send((ticket[0], list(rows(chunks[ticket[0]]))))
                        ticket = os.read(ticket_fd, 1)
                    code = 0
                except Exception as exc:
                    send(repr(exc))
        finally:
            os._exit(code)
    if pid is None:
        yield None
        yield from rows(words)
        return
    os.close(write_fd)
    import select

    arrived = {}  # chunk -> its rows, finished before its turn
    mine = None  # chunk, row iterator and rows made of this process's chunk
    data = bytearray()  # the child's records not yet decoded

    def receive(wait: bool) -> None:
        """Decodes the chunks the child has sent into arrived, waiting for
        its next record if wait.  The child is reaped when its pipe ends,
        and its failure, or its end while a chunk is awaited, raises."""
        nonlocal pid
        ended, text, code = False, None, 0
        if pid is not None and (wait or select.select([result_fd], [], [], 0)[0]):
            got = os.read(result_fd, 1 << 16)
            data.extend(got)
            ended = not got
        while len(data) >= 4:
            end = 4 + int.from_bytes(data[:4], "little")
            if len(data) < end:
                break
            record = marshal.loads(data[4:end])
            del data[:end]
            if isinstance(record, str):  # the child's error text
                text = record
                break
            arrived[record[0]] = record[1]
        if pid is not None and (ended or text is not None):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
        if code or text is not None or (wait and pid is None):
            raise ResourceAbort(
                f"the child making degree-{n} stu2 rows failed with exit code "
                f"{code}: {text or 'nothing sent'}"
            )

    try:
        yield None
        for i in range(len(chunks)):
            while True:
                receive(wait=False)
                if i in arrived:
                    break
                if mine is None:
                    ticket = os.read(ticket_fd, 1)
                    if not ticket:  # every chunk is claimed: i is the child's
                        receive(wait=True)
                        continue
                    mine = ticket[0], rows(chunks[ticket[0]]), []
                chunk, made_rows, made = mine
                row = next(made_rows, None)
                if row is None:
                    arrived[chunk], mine = made, None
                elif chunk == i:
                    yield from made
                    made.clear()
                    yield row
                else:
                    made.append(row)
            yield from arrived.pop(i)
    finally:
        os.close(ticket_fd)
        os.close(result_fd)
        if pid is not None:  # done, or the consumer stopped early or raised
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
        # looked up on the module per call, where perfbench wraps them
        families = {
            "as": lambda: relations.as_relations(n),
            "ihx": lambda: relations.ihx_relations(n),
            "stu2": lambda: relations.stu2_relations(n, parity),
        }
        sets = [families[kind]() for kind in kinds]
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


# ---------------------------------------------------------------------------
# subcommands


def cmd_enum(args: SimpleNamespace) -> int:
    n = args.n
    pick_method(n, "auto", ("as", "ihx"))  # the degree range every command accepts
    stream = enumerate_trees(n)
    count = tree_count(n)
    if args.format == "json":
        import json
        # the bytes of json.dumps({"n", "count", "trees"}), written tree by tree
        print(f'{{"n": {n}, "count": {count}, "trees": [', end="")
        for i, t in enumerate(stream):
            print(", " if i else "", json.dumps(t.serialize()), sep="", end="")
        print("]}")
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
    torsion, cert = torsion_text(res), certification(res)
    if fmt == "json":
        import json
        obj = res.to_json_obj()
        obj.update({"n": n, "method": method, "certification": cert})
        print(json.dumps(obj, sort_keys=True))
    elif fmt == "csv":
        print("n,rank,torsion,method,certification")
        print(f"{n},{res.free_rank},{torsion},{method},{cert}")
    else:
        print(f"n = {n}")
        print(f"quotient rank = {res.free_rank}")
        print(f"torsion = {torsion}")
        print(f"method = {method}")
        print(f"certification = {cert}")
        print(f"wall time = {dt:.3f}s")


def cmd_rank(args: SimpleNamespace) -> int:
    # through n = 5 rank keeps auto on the full tree basis: it prints that
    # presentation's cols, rank and invariant factors, and perfbench traces
    # the tree-basis layers through it
    method = "snf" if args.method == "auto" and args.n <= 5 else args.method
    method = pick_method(args.n, method, args.relations)
    t0 = time.time()
    res = compute_quotient(args.n, args.relations, args.parity, method)
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


def table_rows(args: SimpleNamespace):
    for n in range(1, args.max_n + 1):
        method = pick_method(n, args.method, ("as", "ihx"))
        lie_res = compute_quotient(n, ("as", "ihx"), None, method)
        odd = compute_quotient(n, ("as", "ihx", "stu2"), "odd", method)
        even = compute_quotient(n, ("as", "ihx", "stu2"), "even", method)
        yield {
            "n": n,
            "lie_rank": lie_res.free_rank,
            "at_odd_rank": odd.free_rank,
            "at_even_rank": even.free_rank,
            "torsion_odd": torsion_text(odd),
            "torsion_even": torsion_text(even),
            "certification": certification(lie_res, odd, even),
        }


def cmd_table(args: SimpleNamespace) -> int:
    pick_method(args.max_n, args.method, ("as", "ihx"))  # every degree's cap, before any work
    rows = list(table_rows(args))
    if args.format == "json":
        import json
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


def cmd_reduce(args: SimpleNamespace) -> int:
    text = args.expr
    if args.input_file:
        if text is not None:
            raise UsageError("reduce takes an input file or --expr, not both")
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
    # validated for every input; a, b only when --group is absent
    group = GroupSpec(("a", "b") if args.group is None else args.group)
    if not lie_quotient(args.relations):
        raise UsageError("reduce works in Lie(n): relations must include as,ihx")
    # the degree cap of the route that runs, before any work: the stu2
    # verdict on undecorated input is an exact lattice on Lyndon coordinates
    stu2_verdict = "stu2" in args.relations and not vec.decorated
    pick_method(n, "lyndon" if stu2_verdict else "auto", args.relations)

    if vec.decorated:
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

    # asked for now, so that from SPLIT_DEGREE on the child makes rows
    # while this process computes the coordinates
    rows = lyndon_rows(n, args.relations, args.parity) if stu2_verdict and n > 1 else None
    coords = to_lyndon_coordinates(vec, n)
    print(f"lyndon coordinates: {coords}")
    zero = not any(coords)
    if zero:
        nf = TreeVector.zero(n)
        print("normal form: 0")
        print(f"ZERO in Lie({n})")
    else:
        nf = TreeVector.from_dict(
            {standard_bracketing(w): c for w, c in zip(lyndon_words(n), coords) if c}
        )
        print(f"normal form: {nf.serialize()}")
        print(f"NONZERO in Lie({n}), coordinates {tuple(c for c in coords)}")
    if stu2_verdict:
        parity = args.parity
        if n == 1:
            print(f"ZERO in A^T,{parity}_1 (degree-1 classes die definitionally)")
            return 0
        lat = IntLattice(math.factorial(n - 1))
        lat.add_many(rows)
        lat.normalize()
        reduced = lat.reduce({j: c for j, c in enumerate(coords) if c})
        if reduced:
            print(f"NONZERO in A^T,{parity}_{n}: residue {reduced}")
        else:
            print(f"ZERO in A^T,{parity}_{n}")
    return 0


def cmd_magnus(args: SimpleNamespace) -> int:
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
    if truncate > ENUMERATION_CAP:
        raise ResourceAbort(
            f"truncation {truncate} is beyond desk scale (cap {ENUMERATION_CAP})"
        )
    word = magnus.tree_to_word(t)
    alphabet = [magnus.generator_name(i) for i in range(1, n + 1)]
    poly = magnus.magnus_expand(word, truncate, alphabet)
    ok = magnus.magnus_agreement(t, poly)
    if args.format == "json":
        import json
        obj = {"tree": t.serialize(), "word": str(word),
               "expansion": magnus.poly_text(poly), "leading_term_agreement": ok}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"tree: {t.serialize()}")
        print(f"word: {word}")
        print(f"magnus expansion (N={truncate}): {magnus.poly_text(poly)}")
        print("leading-term agreement: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _relation_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(k.lower() for k in _names(text))
    for k in kinds:
        if k not in RELATION_KINDS:
            expected = ", ".join(RELATION_KINDS)
            raise UsageError(f"unknown relation kind {k!r} (expected {expected})")
    return kinds


REQUIRED = object()
FORMATS = ("text", "json", "csv")
METHODS = ("auto", *METHOD_CAPS)

#: Each command: its function, its help line, the attribute of its one
#: optional positional argument (or None) and its flags, flag -> (converter
#: or tuple of choices, default or REQUIRED).  A flag sets the attribute
#: named by it without the dashes, "-" read as "_": --max-n sets max_n.
COMMANDS = {
    "enum": (cmd_enum, "list Tree(n), count first", None, {
        "--n": (read_integer, REQUIRED), "--format": (FORMATS, "text")}),
    "rank": (cmd_rank, "rank/torsion of Z[Tree(n)] modulo relations", None, {
        "--n": (read_integer, REQUIRED), "--relations": (_relation_kinds, ("as", "ihx")),
        "--parity": (("odd", "even"), None), "--method": (METHODS, "auto"),
        "--format": (FORMATS, "text")}),
    "table": (cmd_table, "rank table across degrees, both parities", None, {
        "--max-n": (read_integer, REQUIRED), "--method": (METHODS, "auto"),
        "--format": (FORMATS, "text")}),
    "reduce": (cmd_reduce, "normal form and zero verdict for a vector", "input_file", {
        "--expr": (str, None), "--relations": (_relation_kinds, ("as", "ihx")),
        "--parity": (("odd", "even"), None), "--group": (_names, None)}),
    "magnus": (cmd_magnus, "tree word, Magnus expansion, agreement check", None, {
        "--tree": (str, REQUIRED), "--truncate": (read_integer, REQUIRED),
        "--format": (("text", "json"), "text")}),
}


def usage(command: str | None) -> str:
    """The usage of command, or of every command if None, read from COMMANDS."""
    lines = []
    for name, (_, text, positional, flags) in COMMANDS.items():
        if command in (None, name):
            words = [f"[{positional.upper()}]"] if positional else []
            for flag, (kind, default) in flags.items():
                value = "|".join(kind) if isinstance(kind, tuple) else flag[2:].upper()
                words.append(f"{flag} {value}" if default is REQUIRED else f"[{flag} {value}]")
            lines += [f"usage: jacobitrees {name} {' '.join(words)}", f"  {text}"]
    return "\n".join(lines)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of argv: command, its flags' and positional's attributes.
    A value is "--flag=value" or the next token, whatever it is; the last of
    a repeated flag wins.  -h or --help prints the usage and returns None."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(usage(None))
        return None
    if command not in COMMANDS:
        said = "missing command" if command is None else f"unknown command {command!r}"
        raise UsageError(f"{said} (expected one of {', '.join(COMMANDS)})")
    _, _, positional, flags = COMMANDS[command]
    values = {flag: default for flag, (_, default) in flags.items()}
    rest = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(usage(command))
            return None
        if not token.startswith("-"):
            rest.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise UsageError(f"{command} takes no flag {flag}")
        if not eq and (text := next(tokens, None)) is None:
            raise UsageError(f"{flag} needs a value")
        kind = flags[flag][0]
        if isinstance(kind, tuple) and text not in kind:
            raise UsageError(f"{flag} takes one of {', '.join(kind)}, not {text!r}")
        try:
            values[flag] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:  # read_integer is the one converter that raises it
            if str(exc).endswith("has too many digits"):  # too long to echo
                raise UsageError(f"{flag} has too many digits") from None
            raise UsageError(f"{flag} takes an integer, not {text!r}") from None
    if missing := [flag for flag, value in values.items() if value is REQUIRED]:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    if len(rest) > (positional is not None):
        raise UsageError(f"{command} takes no argument {rest[-1]!r}")
    args = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    if positional:
        args[positional] = rest[0] if rest else None
    return SimpleNamespace(command=command, **args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # the help was asked for and printed
            return 0
        if "stu2" in getattr(args, "relations", ()) and args.parity is None:
            raise UsageError("stu2 relations require --parity odd|even")
        return COMMANDS[args.command][0](args)
    except (UsageError, TreeError, DecorationError, WordError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ResourceAbort, intlinalg.LinalgError) as exc:
        print(f"resource abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
