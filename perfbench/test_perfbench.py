"""Tests of the benchmark itself: its gate, its inputs and its tracer.

    python3 -m pytest perfbench
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from jacobitrees import cli, decorations, intlinalg  # noqa: E402
from jacobitrees.decorations import DecoratedVector, GroupSpec, decorated_normal_form  # noqa: E402
from jacobitrees.lie import to_lyndon_coordinates  # noqa: E402
from jacobitrees.trees import parse_tree_vector  # noqa: E402


def ok_result(stdout):
    return {"code": 0, "stdout": stdout}


@pytest.mark.parametrize("workload", ["rank7", "table6"])
def test_golden_output_passes_and_wrong_output_fails(workload):
    golden = workloads.GOLDEN[workload]
    assert workloads.check_fixed(workload, ok_result(golden))
    wrong = golden.replace("exact over Z", "exact over Q").replace(",8,", ",9,")
    assert wrong != golden
    assert not workloads.check_fixed(workload, ok_result(wrong))
    assert not workloads.check_fixed(workload, ok_result(golden.rstrip("\n")))
    assert not workloads.check_fixed(workload, {"code": 1, "stdout": golden})


def test_table6_golden_is_the_pinned_table():
    rows = [line.split(",") for line in workloads.TABLE6_GOLDEN.splitlines()[1:]]
    assert [r[2] for r in rows] == ["0", "1", "1", "2", "3", "5"]
    assert [r[3] for r in rows] == ["0", "1", "1", "0", "2", "1"]
    assert [r[5] for r in rows] == ["none", "none", "none", "2;2", "2", "2;2;2;2"]
    assert {r[6] for r in rows} == {"exact over Z"}


def run_queries(queries):
    results = []
    for q in queries:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(q["argv"])
        results.append({"code": code, "stdout": out.getvalue()})
    return results


def small_round(seed):
    """One query of every stratum but the slow n = 6 stu2 one."""
    rng = random.Random(seed)
    return [q for kind, n, parity, _ in workloads.ROUND_MIX if (kind, n) != ("stu2_pair", 6)
            for q in workloads.make_query(rng, kind, n, parity)]


def test_query_gate_passes_real_outputs_and_catches_tampering():
    queries = small_round(3)
    results = run_queries(queries)
    assert all(workloads.check_round(queries, results))

    first_pair = next(i for i, q in enumerate(queries) if q["check"] == "pair")
    tampered = [dict(r) for r in results]
    tampered[first_pair + 1]["stdout"] = tampered[first_pair + 1]["stdout"].replace(
        "coordinates: [", "coordinates: [7, ", 1)
    verdicts = workloads.check_round(queries, tampered)
    assert verdicts[first_pair] is False and verdicts[first_pair + 1] is False
    assert verdicts.count(False) == 2

    decorated_pair = next(i for i, q in enumerate(queries)
                          if q["check"] == "pair" and q["deco"] is not None)
    tampered = [dict(r) for r in results]
    tampered[decorated_pair]["stdout"] = tampered[decorated_pair]["stdout"].replace(
        "ZERO in Lie_G", "NONZERO in Lie_G").replace("NONNON", "")
    assert workloads.check_round(queries, tampered)[decorated_pair] is False

    stu2 = next(i for i, q in enumerate(queries)
                if q["digest"] is not None and "residue {" in results[i]["stdout"])
    tampered = [dict(r) for r in results]
    tampered[stu2]["stdout"] = tampered[stu2]["stdout"].replace("residue {", "residue {99: 1, ")
    assert workloads.check_round(queries, tampered)[stu2] is False

    zero = next(i for i, q in enumerate(queries) if q["check"] == "zero")
    tampered = [dict(r) for r in results]
    tampered[zero]["stdout"] = tampered[zero]["stdout"].replace("ZERO in", "NONZERO in")
    assert workloads.check_round(queries, tampered)[zero] is False

    magnus = next(i for i, q in enumerate(queries) if q["check"] == "magnus")
    tampered = [dict(r) for r in results]
    tampered[magnus]["stdout"] = tampered[magnus]["stdout"].replace("PASS", "FAIL")
    assert workloads.check_round(queries, tampered)[magnus] is False


def test_decorated_input_that_cancels_keeps_its_classes():
    """A decorated vector whose terms all cancel prints the undecorated zero."""
    deco = {1: "a", 2: ""}
    v = [(2, (1, 2)), (2, (2, 1))]
    queries = [workloads._query("pair", 2, terms, deco=deco, pair=1)
               for terms in (v, v + [(-2, (2, 1)), (-2, (1, 2))])]
    results = run_queries(queries)
    assert "ZERO in Lie_G(2)" in results[0]["stdout"]
    assert "ZERO in Lie(2)" in results[1]["stdout"]
    assert workloads.check_round(queries, results) == [True, True]


def test_independent_coordinates_agree_with_the_library():
    rng = random.Random(11)
    for n in range(2, 7):
        terms = workloads.random_combination(rng, n)
        coords = to_lyndon_coordinates(parse_tree_vector(workloads.vector_text(terms)), n)
        assert workloads.coordinates_ok(coords, terms, n)
        assert not workloads.coordinates_ok(coords[:-1], terms, n)
        wrong = list(coords)
        wrong[rng.randrange(len(wrong))] += 1
        assert not workloads.coordinates_ok(wrong, terms, n)


def test_pool_holds_lattice_elements_with_the_right_coordinates():
    pool = workloads.stu2_pool()
    assert sorted(pool) == sorted(workloads.POOL_KEYS)
    for (n, _), entries in pool.items():
        for entry in entries:
            assert workloads.coordinates_ok(entry["coords"], entry["terms"], n)
            assert workloads.lattice_element(entry, n)
            assert all(0 <= j < len(entry["coords"]) for j in entry["residue"])


def stu2_queries(seed):
    """The pool-backed stu2 queries of small_round: degrees 4 and 5."""
    return [q for q in small_round(seed) if q["parity"] is not None]


def test_zeroed_coordinates_fail_the_gate(monkeypatch):
    queries = small_round(5)
    zeros = lambda v, n=None: [0] * len(workloads.lyndon_basis(n))  # noqa: E731
    monkeypatch.setattr(cli, "to_lyndon_coordinates", zeros)
    monkeypatch.setattr(decorations, "to_lyndon_coordinates", zeros)
    verdicts = workloads.check_round(queries, run_queries(queries))
    for q, ok in zip(queries, verdicts):
        if q["check"] == "pair":
            assert ok is False, q["argv"]


def test_a_noop_lattice_reduce_fails_the_gate(monkeypatch):
    queries = stu2_queries(5)
    assert {q["check"] for q in queries} == {"pair", "zero"}
    assert all(workloads.check_round(queries, run_queries(queries)))
    monkeypatch.setattr(intlinalg.IntLattice, "reduce",
                        lambda self, vec: {j: c for j, c in vec.items() if c})
    assert not any(workloads.check_round(queries, run_queries(queries)))


def test_a_crashed_operation_keeps_its_time():
    class Crash:
        @staticmethod
        def main(argv):
            time.sleep(0.05)
            os._exit(3)

    result = worker.run_op(Crash, [], None, "")
    assert result["code"] is None and result["latency_s"] >= 0.05


def test_an_operation_takes_the_median_of_its_executions():
    def line(unit, latencies, rss=10.0):
        return {"unit": unit, "ops": [{"latency_s": x, "peak_rss_mb": rss} for x in latencies]}

    units = [[["a"], ["b"]], [["c"]]]
    lines = [line(0, [0.3, 0.1]), line(1, [0.5], 12.0), line(0, [0.2, 0.4], 11.0),
             line(1, [0.7]), line(0, [0.9, 0.2]), line(1, [0.6])]
    t = run.timings(lines, units)
    assert sorted(t["latencies"]) == [0.2, 0.3, 0.6]
    assert t["unit_walls"] == [pytest.approx(0.5), 0.6]
    assert t["unit_rss"] == [11.0, 12.0]
    assert run.percentile([0.5], 90) == 0.5
    assert run.percentile([float(x) for x in range(11)], 90) == pytest.approx(9.0)


@pytest.mark.parametrize("seed", range(4))
def test_generated_relation_combinations_vanish(seed):
    rng = random.Random(seed)
    for n in range(2, 7):
        text = workloads.vector_text(workloads.relation_combination(rng, n))
        assert not any(to_lyndon_coordinates(parse_tree_vector(text), n))
    for n in range(3, 5):
        deco = {k: rng.choice(workloads.DECORATION_WORDS) for k in range(1, n + 1)}
        text = workloads.vector_text(workloads.relation_combination(rng, n), deco)
        vec = DecoratedVector(parse_tree_vector(text), GroupSpec(("a", "b")))
        assert all(not any(c) for c in decorated_normal_form(vec).values())


def test_inputs_depend_on_the_seed_only():
    assert workloads.make_rounds(5, 3) == workloads.make_rounds(5, 3)
    assert workloads.make_rounds(5, 3) != workloads.make_rounds(6, 3)
    rounds = workloads.make_rounds(5, 3)
    per_round = sum(count * (2 if kind.endswith("_pair") else 1)
                    for kind, _, _, count in workloads.ROUND_MIX)
    assert [len(r) for r in rounds] == [per_round] * 3
    # the inputs are built without the library
    code = ("import sys; sys.path.insert(0, 'perfbench'); import workloads;"
            "workloads.make_rounds(1, 2);"
            "assert not any(m.startswith('jacobitrees') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR.parent, check=True)


TRACED_ARGV = [
    ["rank", "--n", "5", "--relations", "as,ihx,stu2", "--parity", "odd", "--format", "csv"],
    ["rank", "--n", "6", "--relations", "as,ihx,stu2", "--parity", "even",
     "--method", "modular", "--format", "csv"],
    ["reduce", "--expr=-2*[[1,2],[3,4]] +1*[1,[2,[3,4]]]", "--relations", "as,ihx,stu2",
     "--parity", "odd"],
    ["reduce", "--expr=1*[[1{a},2{b^-1}],3{}]"],
    ["magnus", "--tree", "[[1,3],2]", "--truncate", "4"],
]


@pytest.fixture
def traced_cli():
    original = cli.main
    tr = tracer.Tracer()
    uninstall = tracer.install(tr, cli)
    try:
        yield tr
    finally:
        uninstall()
    assert cli.main is original


def test_self_times_sum_to_the_traced_operation_time(traced_cli):
    tr = traced_cli
    for argv in TRACED_ARGV:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    layers = tr.layer_metrics()
    selfs = [v for k, v in layers.items() if tracer.LAYER_METRICS[k] == "s"]
    assert all(v >= 0 for v in selfs)
    assert sum(selfs) == pytest.approx(tr.root_duration(), rel=1e-9)
    assert tr.root_duration() > 0
    # each traced layer was reached through the CLI
    for name in ("relations.as.s", "relations.ihx.s", "relations.stu2.s",
                 "intlinalg.vector_to_row.s", "intlinalg.snf_from_rows.s",
                 "braidlie.doubling_image.s", "lie.straighten_vector.s",
                 "intlinalg.rank_modp_rows_dense.s", "intlinalg.IntLattice.add_many.s",
                 "lie.to_lyndon_coordinates.s", "trees.parse_tree_vector.s",
                 "decorations.decorated_normal_form.s", "magnus.magnus_expand.s",
                 "cli.compute_quotient.s"):
        assert layers[name] > 0, name
    assert layers["intlinalg.rank_modp_rows_dense.calls"] == 1
    assert layers["intlinalg.rank_modp_rows_dense.primes_agree"] == 1
    assert layers["relations.as.vectors"] > 0 and layers["intlinalg.snf_from_rows.rank"] > 0
    record = {"layers": layers, "root_s": tr.root_duration()}
    assert run.check_trace("rank7", record)


def test_trace_gate_rejects_gaps_and_disagreeing_primes():
    layers = {k: 0 for k in tracer.LAYER_METRICS}
    layers.update({"cli.main.self_s": 0.5, "intlinalg.rank_modp_rows_dense.s": 1.0,
                   "intlinalg.rank_modp_rows_dense.calls": 1,
                   "intlinalg.rank_modp_rows_dense.primes_agree": 1})
    assert run.check_trace("rank7", {"layers": layers, "root_s": 1.5})
    assert not run.check_trace("rank7", {"layers": layers, "root_s": 1.6})
    layers["intlinalg.rank_modp_rows_dense.primes_agree"] = 0
    assert not run.check_trace("rank7", {"layers": layers, "root_s": 1.5})
    assert run.check_trace("table6", {"layers": layers, "root_s": 1.5})


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
