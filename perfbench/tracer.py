"""Spans around the calls into each jacobitrees module, from outside.

``install(tracer)`` replaces each traced public function by a wrapper at
the place its caller looks the name up, and returns a function that puts
the originals back.  ``cli`` binds ``snf_from_rows``, ``straighten_vector``,
``to_lyndon_coordinates``, ``parse_tree_vector``, ``decorated_normal_form``,
``tree_list`` and ``IntLattice`` at import, so those are patched in ``cli``;
``rank_modp_rows_dense``, ``doubling_image`` and the magnus functions are
looked up in their own modules at call time, so they are patched there.
Only the CLI's own ``IntLattice`` is traced: the lattice ``snf_from_rows``
builds inside ``intlinalg`` is part of that function's self time.

A span is ``[name id, start, end, parent index]`` (``time.perf_counter``),
kept in memory.  Lazy relation generators get one span per ``next()``, so
the time a consumer spends between two items is not charged to them.  The
self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable

# Every per-layer metric, with its unit.  "<name>.s" is the self time of
# the spans of that name; the counts are taken at the same call boundary.
LAYER_METRICS = {
    "braidlie.doubling_image.s": "s",
    "braidlie.doubling_image.calls": "count",
    "braidlie.doubling_image.terms": "count",
    "braidlie.doubling_image.nonzero_ratio": "ratio",
    "intlinalg.rank_modp_rows_dense.s": "s",
    "intlinalg.rank_modp_rows_dense.calls": "count",
    "intlinalg.rank_modp_rows_dense.rows_in": "count",
    "intlinalg.rank_modp_rows_dense.nnz_in": "count",
    "intlinalg.rank_modp_rows_dense.primes_agree": "count",
    "relations.as.s": "s",
    "relations.as.vectors": "count",
    "relations.as.terms": "count",
    "relations.ihx.s": "s",
    "relations.ihx.vectors": "count",
    "relations.ihx.terms": "count",
    "relations.stu2.s": "s",
    "relations.stu2.vectors": "count",
    "relations.stu2.terms": "count",
    "trees.tree_list.s": "s",
    "intlinalg.vector_to_row.s": "s",
    "intlinalg.vector_to_row.calls": "count",
    "intlinalg.snf_from_rows.s": "s",
    "intlinalg.snf_from_rows.rows_in": "count",
    "intlinalg.snf_from_rows.nnz_in": "count",
    "intlinalg.snf_from_rows.max_entry_bits_in": "bits",
    "intlinalg.snf_from_rows.rank": "count",
    "lie.straighten_vector.s": "s",
    "lie.straighten_vector.calls": "count",
    "lie.to_lyndon_coordinates.s": "s",
    "lie.to_lyndon_coordinates.calls": "count",
    "intlinalg.IntLattice.add_many.s": "s",
    "intlinalg.IntLattice.add_many.calls": "count",
    "intlinalg.IntLattice.normalize.s": "s",
    "intlinalg.IntLattice.normalize.calls": "count",
    "intlinalg.IntLattice.reduce.s": "s",
    "intlinalg.IntLattice.reduce.calls": "count",
    "trees.parse_tree_vector.s": "s",
    "magnus.magnus_expand.s": "s",
    "magnus.magnus_expand.calls": "count",
    "magnus.magnus_agreement.s": "s",
    "magnus.magnus_agreement.calls": "count",
    "decorations.decorated_normal_form.s": "s",
    "cli.compute_quotient.s": "s",
    "cli.main.self_s": "s",
}

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (nid, start, end, _), child in zip(self.spans, covered):
            out[self.names[nid]] += end - start - child
        return dict(out)

    def root_duration(self) -> float:
        root = self._ids.get(ROOT)
        return sum(e - s for nid, s, e, p in self.spans if p < 0 and nid == root)

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry; layers never called read 0."""
        selfs = self.self_times()
        out = {}
        for metric in LAYER_METRICS:
            if metric == "cli.main.self_s":
                out[metric] = selfs.get(ROOT, 0.0)
            elif metric.endswith(".s"):
                out[metric] = selfs.get(metric[:-2], 0.0)
            elif metric != "braidlie.doubling_image.nonzero_ratio":
                out[metric] = self.counts.get(metric, 0)
        calls = self.counts.get("braidlie.doubling_image.calls", 0)
        nonzero = self.counts.get("braidlie.doubling_image.nonzero", 0)
        out["braidlie.doubling_image.nonzero_ratio"] = nonzero / calls if calls else 0.0
        return out

    def write_spans(self, fh) -> None:
        json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
        fh.write("\n")


def traced(tracer: Tracer, name: str, fn, after=None):
    """fn inside a span; after(counts, args, result) counts outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if after is not None:
            after(tracer.counts, args, result)
        return result

    return wrapper


def traced_iter(tracer: Tracer, name: str, it, on_item=None):
    """Yields from it, with one span per next() of it."""
    while True:
        idx = tracer.enter(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.exit(idx)
        if on_item is not None:
            on_item(tracer.counts, item)
        yield item


def _count_rows(counts, prefix: str, rows, bits: bool = False):
    for row in rows:
        counts[prefix + ".rows_in"] += 1
        counts[prefix + ".nnz_in"] += len(row)
        if bits and row:
            b = max(abs(v) for v in row.values()).bit_length()
            if b > counts[prefix + ".max_entry_bits_in"]:
                counts[prefix + ".max_entry_bits_in"] = b
        yield row


def install(tracer: Tracer, cli) -> Callable[[], None]:
    """Wraps the traced functions; returns the function that unwraps them."""
    from jacobitrees import braidlie, decorations, intlinalg, magnus, relations

    saved: list[tuple[object, str, object]] = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def count_calls(name):
        def after(counts, args, result):
            counts[name + ".calls"] += 1
        return after

    def count_doubling(counts, args, result):
        counts["braidlie.doubling_image.calls"] += 1
        counts["braidlie.doubling_image.terms"] += len(result.terms)
        if not result.is_zero:
            counts["braidlie.doubling_image.nonzero"] += 1

    patch(braidlie, "doubling_image", traced(
        tracer, "braidlie.doubling_image", braidlie.doubling_image, count_doubling))

    for family in ("as", "ihx", "stu2"):
        make = getattr(relations, f"{family}_relations")
        name = f"relations.{family}"

        def on_vector(counts, v, name=name):
            counts[name + ".vectors"] += 1
            counts[name + ".terms"] += len(v.terms)

        def wrapped(*args, make=make, name=name, on_vector=on_vector):
            rs = make(*args)
            producer = rs.producer
            rs.producer = lambda: traced_iter(tracer, name, producer(), on_vector)
            return rs

        patch(relations, f"{family}_relations", functools.wraps(make)(wrapped))

    patch(cli, "tree_list", traced(tracer, "trees.tree_list", cli.tree_list))
    patch(intlinalg, "vector_to_row", traced(
        tracer, "intlinalg.vector_to_row", intlinalg.vector_to_row,
        count_calls("intlinalg.vector_to_row")))

    snf = intlinalg.snf_from_rows
    snf_name = "intlinalg.snf_from_rows"

    def snf_rank(counts, args, result):
        counts[snf_name + ".rank"] += result.rank

    traced_snf = traced(tracer, snf_name, snf, snf_rank)

    @functools.wraps(snf)
    def snf_counted(rows, cols):
        return traced_snf(_count_rows(tracer.counts, snf_name, rows, bits=True), cols)

    patch(intlinalg, "snf_from_rows", snf_counted)
    patch(cli, "snf_from_rows", snf_counted)

    modp = intlinalg.rank_modp_rows_dense
    modp_name = "intlinalg.rank_modp_rows_dense"

    def modp_agree(counts, args, result):
        counts[modp_name + ".calls"] += 1
        if len(set(result.values())) == 1:
            counts[modp_name + ".primes_agree"] += 1

    traced_modp = traced(tracer, modp_name, modp, modp_agree)

    @functools.wraps(modp)
    def modp_counted(rows, cols, *rest):
        return traced_modp(_count_rows(tracer.counts, modp_name, rows), cols, *rest)

    patch(intlinalg, "rank_modp_rows_dense", modp_counted)

    for attr, name in (
        ("straighten_vector", "lie.straighten_vector"),
        ("to_lyndon_coordinates", "lie.to_lyndon_coordinates"),
    ):
        patch(cli, attr, traced(tracer, name, getattr(cli, attr), count_calls(name)))
    patch(decorations, "to_lyndon_coordinates", traced(
        tracer, "lie.to_lyndon_coordinates", decorations.to_lyndon_coordinates,
        count_calls("lie.to_lyndon_coordinates")))
    patch(cli, "parse_tree_vector", traced(
        tracer, "trees.parse_tree_vector", cli.parse_tree_vector))
    patch(cli, "decorated_normal_form", traced(
        tracer, "decorations.decorated_normal_form", cli.decorated_normal_form))

    lattice = cli.IntLattice
    methods = {
        m: traced(tracer, f"intlinalg.IntLattice.{m}", getattr(lattice, m),
                  count_calls(f"intlinalg.IntLattice.{m}"))
        for m in ("add_many", "normalize", "reduce")
    }
    patch(cli, "IntLattice", type("IntLattice", (lattice,), methods))

    for attr in ("magnus_expand", "magnus_agreement"):
        name = f"magnus.{attr}"
        patch(magnus, attr, traced(tracer, name, getattr(magnus, attr), count_calls(name)))
    patch(cli, "compute_quotient", traced(
        tracer, "cli.compute_quotient", cli.compute_quotient))
    patch(cli, "main", traced(tracer, ROOT, cli.main))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall
