import ast
import collections
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import pathlib
import random
import re
import select
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jacobitrees import braidlie, cli, intlinalg, relations
from jacobitrees.cli import main
from jacobitrees.trees import enumerate_trees, tree_count

from conftest import STU2_POOL, build_parser


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment of a jacobitrees subprocess: this checkout."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_enum_count_first(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "12"
    assert len(lines) == 13
    assert lines[1] == "[1,[2,3]]"


def test_enum_degree1(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "1")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_enum_json_is_one_dump_written_tree_by_tree(capsys, monkeypatch):
    for n in range(1, 6):
        code, out, _ = run_cli(capsys, "enum", "--n", str(n), "--format", "json")
        trees = [t.serialize() for t in enumerate_trees(n)]
        assert code == 0
        assert out == json.dumps({"n": n, "count": tree_count(n), "trees": trees}) + "\n"
    # each tree is on stdout before the next one is made
    parts = []

    def stream(n):
        for t in enumerate_trees(n):
            yield t
            parts.append(capsys.readouterr().out)
            assert parts[-1].endswith(json.dumps(t.serialize()))

    monkeypatch.setattr(cli, "enumerate_trees", stream)
    code, out, _ = run_cli(capsys, "enum", "--n", "3", "--format", "json")
    trees = [t.serialize() for t in enumerate_trees(3)]
    assert "".join(parts) + out == json.dumps({"n": 3, "count": 12, "trees": trees}) + "\n"


def test_enum_zero_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "enum", "--n", "0")
    assert code == 2
    assert "below 1" in err


def test_enum_degree_range_matches_the_other_commands(capsys):
    cases = (("0", 2, "below 1"), ("-1", 2, "below 1"), ("9", 3, "desk scale"))
    for n, want, reason in cases:
        code, out, err = run_cli(capsys, "enum", "--n", n)
        assert code == want and not out
        assert reason in err


#: SHA-256 of `enum --n n --format f` stdout, as the merge of one sorted
#: stream per label subset printed it before the enumeration became one
#: recursion
ENUM_SHA256 = {
    (1, "text"): "ad0fadf63cc7cd779ce475e345bf4063565b63a3c2efef1eebc89790aaa6acba",
    (1, "csv"): "bacb1b45154940557aaee4537471cf5d675769b767927d018bf25dc4e7817a9f",
    (1, "json"): "2ada559542f8a86d76bb7aca58668af54434f66b9013c9fbe13d9dfc4edb5959",
    (2, "text"): "72bc406d260382da117ec591423ee6d35fc9631961254d5cfef524f1d09a23ce",
    (2, "csv"): "c3a9d64518dddfaf5b55ad9b2ba19d9110c0e595e64a66feb06a65a1b942fc3b",
    (2, "json"): "19897d31de7602fc9ca2025aeb50ca826c71d33d6ac96e7bed181f3531c78e66",
    (3, "text"): "4a693eb75328ef8a8b2f7535838345ffeb7d5b8b374cc249e9c3c1c334992e95",
    (3, "csv"): "9f19dc03d1f01a6c87b594170e89f704377e9c318f5d50f785b2c455c95ce395",
    (3, "json"): "cd98e57fbc84f9f8b98201a7a55ecf26391d8d661adfe9cabea433cf6ffc7151",
    (4, "text"): "4e9bcf60f61b7108cfdb0ad4fd373f8f6cfdb7b5c3a09c823e7a706af388760f",
    (4, "csv"): "101a051174b714f9f6320d1abe527a3cbf312963534f59fd80c1514e3d557831",
    (4, "json"): "426c29f34f5fb5409dc17cef65b1c7a36c0f74a1cdd1ce402371d33751d3b32c",
    (5, "text"): "7ef5e169e4b51a4b0dd0574b04d67564307d9c90c65fe100a414ec816673bc0f",
    (5, "csv"): "8ca9c816184287058f9993e3a208e977e3b807de0514eacca6149705be829ba5",
    (5, "json"): "f09072d242b26d796170ab130484062985ad953a2a69a35af82464131390d162",
    (6, "text"): "338d8eb4af2f764c20e2310b2ae7c2c7bce39379ffbb98b4d5b8e7334b616aed",
    (6, "csv"): "9ba2168e200a2f4c9bb6bdd9cefe30380b4d997560796978b80fdc3a3186b578",
    (6, "json"): "4933b825b45a971caadcf9f03eb65e59b64c5270d705b634e9e9c2fd7cc8e61d",
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("n", range(1, 7))
def test_enum_bytes_pinned(capsys, n, fmt):
    code, out, _ = run_cli(capsys, "enum", "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUM_SHA256[n, fmt]


@pytest.mark.skipif(
    not os.environ.get("JACOBITREES_ACCEPT_N8"),
    reason="enum --n 7 takes ~6 s; set JACOBITREES_ACCEPT_N8=1",
)
def test_enum_degree7_text_pinned(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1f4e6d546d06ecda52517f1069ee9fff7e40b9a22286e2f210f32e89c7801bf5"
    )


def test_rank_as_ihx_degree4(capsys):
    code, out, _ = run_cli(capsys, "rank", "--n", "4", "--relations", "as,ihx")
    assert code == 0
    assert "quotient rank = 6" in out
    assert "exact over Z" in out


def test_rank_stu2_requires_parity(capsys):
    code, _, err = run_cli(capsys, "rank", "--n", "3", "--relations", "as,ihx,stu2")
    assert code == 2
    assert "parity" in err


def test_rank_odd_degree5(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "5", "--relations", "as,ihx,stu2", "--parity", "odd"
    )
    assert code == 0
    assert "quotient rank = 3" in out
    assert "torsion = none" in out


def test_rank_degree6_both_parities(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "6", "--relations", "as,ihx,stu2", "--parity", "odd"
    )
    assert code == 0 and "quotient rank = 5" in out and "torsion = none" in out
    code, out, _ = run_cli(
        capsys, "rank", "--n", "6", "--relations", "as,ihx,stu2", "--parity", "even"
    )
    assert code == 0 and "quotient rank = 1" in out


def test_table_degree6_matches_tables(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "6", "--format", "csv")
    assert code == 0
    rows = [ln.split(",", 6) for ln in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "1", "2", "6", "24", "120"]
    assert [r[2] for r in rows] == ["0", "1", "1", "2", "3", "5"]
    assert [r[3] for r in rows] == ["0", "1", "1", "0", "2", "1"]
    assert all(r[4] == "none" for r in rows)  # odd quotients torsion-free


def test_rank_modular_degree5(capsys):
    for relations, parity, free_rank in (
        ("as,ihx", (), 24),
        ("as,ihx,stu2", ("--parity", "odd"), 3),
        ("as,ihx,stu2", ("--parity", "even"), 2),
    ):
        code, out, _ = run_cli(
            capsys, "rank", "--n", "5", "--relations", relations, *parity,
            "--method", "modular", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == f"5,{free_rank},unknown,modular,probabilistic over Q"


def test_degree_1_is_exact_under_every_method(capsys):
    # its quotient is known without rows, so modular labels it exact too
    code, out, _ = run_cli(capsys, "rank", "--n", "1", "--method", "modular", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "1,1,none,modular,exact over Z"
    code, out, _ = run_cli(capsys, "rank", "--n", "1", "--method", "modular", "--format", "json")
    obj = json.loads(out)
    assert (obj["certification"], obj["probabilistic"]) == ("exact over Z", False)
    code, out, _ = run_cli(capsys, "rank", "--n", "1", "--method", "modular")
    assert "torsion = none\n" in out and "certification = exact over Z\n" in out
    code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--method", "modular", "--format", "csv")
    assert code == 0 and out.splitlines()[1:] == [
        "1,1,0,0,none,none,exact over Z",
        "2,1,1,1,unknown,unknown,probabilistic over Q",
    ]


def test_rank_method_cap(capsys):
    code, _, err = run_cli(
        capsys, "rank", "--n", "7", "--relations", "as,ihx", "--method", "snf"
    )
    assert code == 2


def test_auto_resolution_table():
    # auto takes Lyndon coordinates wherever as,ihx are among the kinds, the
    # tree basis through 5 elsewhere, and never snf at 6
    for n in range(1, 9):
        for kinds in (("as", "ihx"), ("as", "ihx", "stu2"), ("as",), ("ihx",), ("stu2",)):
            lie = {"as", "ihx"} <= set(kinds)
            if n >= 7:
                assert cli.pick_method(n, "auto", kinds) == "modular", (n, kinds)
            elif lie:
                assert cli.pick_method(n, "auto", kinds) == "lyndon", (n, kinds)
            elif n <= 5:
                assert cli.pick_method(n, "auto", kinds) == "snf", (n, kinds)
            else:
                with pytest.raises(cli.UsageError):
                    cli.pick_method(n, "auto", kinds)


def test_lyndon_rows_refuses_kinds_without_as_ihx_on_the_call():
    for kinds in (("as",), ("ihx",), ("stu2",), ("as", "stu2"), ()):
        with pytest.raises(cli.UsageError):
            cli.lyndon_rows(4, kinds, "odd")
    assert list(cli.lyndon_rows(4, ("as", "ihx"), None)) == []
    assert list(cli.lyndon_rows(4, ("as", "ihx", "stu2"), "odd"))


@pytest.mark.parametrize(
    "parity, digest",
    [
        ("odd", "a3b002fd2cd7586b099346e0ec92cefa9bbc5c417c10d6fc4f3c6d62a8cdc0d9"),
        ("even", "7c84afc1777da00837fce6b9de2f1c6b8b9e1dd5488d599e7dbc110b9c55e9ac"),
    ],
)
def test_lyndon_rows_pinned(parity, digest, forks):
    # every row of n = 3..7, in stream order with its items sorted, and
    # again with its items in the row's own order: reduce prints its stu2
    # residue in insertion order, which follows the rows' key order.  Each
    # family from SPLIT_DEGREE up comes from a pool with one child, and no
    # family below it forks
    h, ordered = hashlib.sha256(), hashlib.sha256()
    for n in range(3, 8):
        before = len(forks)
        for row in cli.lyndon_rows(n, ("as", "ihx", "stu2"), parity):
            h.update((repr(sorted(row.items())) + "\n").encode())
            ordered.update((repr(list(row.items())) + "\n").encode())
        assert len(forks) - before == (n >= cli.SPLIT_DEGREE), n
    assert h.hexdigest() == digest
    assert ordered.hexdigest() == ROWS_IN_KEY_ORDER[parity]
    for pid in forks:
        assert_reaped(pid)


ROWS_IN_KEY_ORDER = {
    "odd": "38d1226b287083b0b64c5560948bb953317499589e4b2496f87ef936acf857c3",
    "even": "d0c4e581a11157aa3f7983b988eaac03276903f860ae8ef4f236f4ea2be0bbbb",
}
STU2 = ("as", "ihx", "stu2")


def rows_digest(parity):
    """ROWS_IN_KEY_ORDER's digest of the rows of n = 3..7."""
    h = hashlib.sha256()
    for n in range(3, 8):
        for row in cli.lyndon_rows(n, STU2, parity):
            h.update((repr(list(row.items())) + "\n").encode())
    return h.hexdigest()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked in the test, on a host taken to have
    two CPUs."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_only_families_from_degree_6_fork(forks):
    assert list(cli.lyndon_rows(5, STU2, "odd"))
    assert not forks
    assert len(list(cli.lyndon_rows(6, STU2, "odd"))) == 300
    [pid] = forks
    assert_reaped(pid)


def test_the_pool_forks_on_the_call_and_an_unread_stream_reaps_it(forks):
    rows = cli.lyndon_rows(6, STU2, "odd")
    [pid] = forks  # before the first row is taken
    del rows
    assert_reaped(pid)


def test_a_reduce_failing_after_the_fork_reaps_the_child(capsys, forks, monkeypatch):
    def coordinates_fail(vec, n):
        assert forks, "the rows are asked for before the coordinates"
        raise cli.ResourceAbort("the coordinates failed")

    monkeypatch.setattr(cli, "to_lyndon_coordinates", coordinates_fail)
    code, out, err = run_cli(
        capsys, "reduce", "--expr", "[[[[[1,2],3],4],5],6]", "--relations", "as,ihx,stu2",
        "--parity", "odd",
    )
    assert (code, out, err) == (3, "", "resource abort: the coordinates failed\n")
    [pid] = forks
    assert_reaped(pid)


@pytest.mark.parametrize("slow", ["child", "parent"])
def test_the_slower_process_makes_fewer_rows(forks, monkeypatch, slow):
    # the slow process stalls until the other one has claimed every ticket,
    # so the split does not depend on timing: a stalled child makes only
    # chunk 0, which is its own without a ticket, and a parent stalled
    # before its first claim makes nothing.  The child's records of all 300
    # rows (~30 KB) fit in the result pipe, so it never blocks on the
    # stalled parent
    expected = list(cli.lyndon_rows(6, STU2, "odd"))
    words = braidlie.source_words(6)
    first = words[: -(-len(words) // cli.POOL_SHARE)]
    vectors = len(list(relations.stu2_relations(6, "odd", words).vectors()))
    chunk0 = len(list(relations.stu2_relations(6, "odd", first).vectors()))
    parent = os.getpid()
    read, straighten = os.read, cli.straighten_vector
    stall, resume = os.pipe()  # a byte once the fast process finds no ticket
    stalled = []  # whether this process has stalled
    here = []  # the vectors this process straightened

    def wait_for_every_claim():
        if not stalled:
            assert select.select([stall], [], [], 60)[0], "no process took every ticket"
            stalled.append(read(stall, 1))

    def side():
        return "parent" if os.getpid() == parent else "child"

    def claiming(fd, size):
        if size == 1 and side() == slow == "parent":
            wait_for_every_claim()  # before the command's first claim
        got = read(fd, size)
        if size == 1 and not got and side() != slow:
            os.write(resume, b"\0")
        return got

    def counted(v, memo):
        if side() == "parent":
            here.append(v)
        elif slow == "child":
            wait_for_every_claim()  # before the first vector of chunk 0
        return straighten(v, memo)

    monkeypatch.setattr(os, "read", claiming)
    monkeypatch.setattr(cli, "straighten_vector", counted)
    try:
        assert list(cli.lyndon_rows(6, STU2, "odd")) == expected
    finally:
        os.close(stall)
        os.close(resume)
    assert len(here) == (vectors - chunk0 if slow == "child" else 0)
    for pid in forks:
        assert_reaped(pid)


def test_child_is_reaped_when_the_consumer_stops_early(forks):
    rows = cli.lyndon_rows(6, STU2, "odd")
    assert next(rows)
    [pid] = forks
    rows.close()
    assert_reaped(pid)


def test_child_is_reaped_when_the_consumer_raises(forks):
    def consume():
        for _ in cli.lyndon_rows(6, STU2, "even"):
            raise RuntimeError("the consumer fails")

    with pytest.raises(RuntimeError):
        consume()
    [pid] = forks
    assert_reaped(pid)


def test_child_is_reaped_when_the_command_aborts(capsys, forks, monkeypatch):
    def one_row_then_abort(rows, cols):
        next(iter(rows))
        raise intlinalg.LinalgError("stop after one row")

    monkeypatch.setattr(intlinalg, "rank_modp_rows_dense", one_row_then_abort)
    code, out, err = run_cli(
        capsys, "rank", "--n", "6", "--relations", "as,ihx,stu2", "--parity", "odd",
        "--method", "modular",
    )
    assert code == 3 and not out and "stop after one row" in err
    [pid] = forks
    assert_reaped(pid)


@pytest.mark.parametrize("failure", ["raises", "is killed"])
def test_a_failed_child_aborts_the_command(capsys, forks, monkeypatch, failure):
    parent = os.getpid()
    straighten = cli.straighten_vector

    def fail_in_child(v, memo):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("straightening failed")
            os.kill(os.getpid(), signal.SIGKILL)
        return straighten(v, memo)

    monkeypatch.setattr(cli, "straighten_vector", fail_in_child)
    code, out, err = run_cli(
        capsys, "rank", "--n", "6", "--relations", "as,ihx,stu2", "--parity", "odd",
        "--method", "modular", "--format", "csv",
    )
    # the child fails on its first chunk, which is always its own
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith(
        "resource abort: the child making degree-6 stu2 rows failed with exit code "
    )
    assert err.endswith(
        "1: RuntimeError('straightening failed')\n" if failure == "raises"
        else f"{-signal.SIGKILL}: nothing sent\n"
    )
    [pid] = forks
    assert_reaped(pid)


def test_split_commands_print_once_on_a_pipe():
    # the child inherits the block-buffered stdout and must never flush it
    env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
    run = functools.partial(
        subprocess.run, env=env, capture_output=True, text=True, check=True
    )
    rank = run([sys.executable, "-m", "jacobitrees", "rank", "--n", "6", "--relations",
                "as,ihx,stu2", "--parity", "odd", "--method", "modular", "--format", "csv"])
    assert rank.stdout == (
        "n,rank,torsion,method,certification\n6,5,unknown,modular,probabilistic over Q\n"
    )
    # reduce has printed its coordinates when the rows start
    reduce = run([sys.executable, "-m", "jacobitrees", "reduce", "--expr",
                  "[[[[[1,2],3],4],5],6]", "--relations", "as,ihx,stu2", "--parity", "even"])
    lines = reduce.stdout.splitlines()
    assert [ln.split(":")[0].split(",")[0] for ln in lines] == [
        "lyndon coordinates", "normal form", "NONZERO in Lie(6)", "NONZERO in A^T",
    ]
    assert lines[-1] == "NONZERO in A^T,even_6: residue {0: 1}"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_one_cpu_and_a_failing_fork_give_the_same_rows(monkeypatch):
    # the pool's rows are pinned by test_lyndon_rows_pinned; a process on
    # one CPU makes every row itself: fork is never called
    cpu = min(os.sched_getaffinity(0))
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
        "from test_cli import rows_digest\n"
        "def no_fork():\n"
        "    raise AssertionError('forked on one CPU')\n"
        "os.fork = no_fork\n"
        "print(len(os.sched_getaffinity(0)), rows_digest('odd'), rows_digest('even'))\n"
    )
    one_cpu = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True,
        check=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert one_cpu.stdout == f"1 {ROWS_IN_KEY_ORDER['odd']} {ROWS_IN_KEY_ORDER['even']}\n"

    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refused)
    for parity in ("odd", "even"):
        assert rows_digest(parity) == ROWS_IN_KEY_ORDER[parity]


def test_importing_the_cli_loads_no_heavy_module():
    # each would add its import time to every command's start-up; -S leaves
    # out site, which on some installs imports typing or re before the CLI does
    heavy = {"numpy", "pickle", "multiprocessing", "dataclasses", "inspect", "typing",
             "argparse", "gettext", "locale", "json", "re"}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import jacobitrees.cli\n"
        f"print(sorted(set({sorted(heavy)}) & (set(sys.modules) - before)))"
    )
    for flags in ((), ("-S",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=cli_env(), capture_output=True,
            text=True, check=True,
        )
        assert proc.stdout == "[]\n", flags


def test_lyndon_rows_straighten_each_distinct_tree_once_per_call(monkeypatch):
    # straighten recurses through the module name, so the patch sees the
    # subtrees too; only calls on degree-n trees come from straighten_vector
    from jacobitrees import lie, relations

    n, parity = 5, "even"
    seen = collections.Counter()
    original = lie.straighten

    def counted(t):
        if t.degree == n:
            seen[t.serialize()] += 1
        return original(t)

    monkeypatch.setattr(lie, "straighten", counted)
    family = {t.serialize() for v in relations.stu2_relations(n, parity).vectors()
              for t, _ in v.terms}
    for _ in range(2):  # each call starts from an empty memo
        seen.clear()
        assert list(cli.lyndon_rows(n, ("as", "ihx", "stu2"), parity))
        assert seen == collections.Counter(family)


def test_rank_degree7_even_csv(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "7", "--relations", "as,ihx,stu2", "--parity", "even",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "7,2,unknown,modular,probabilistic over Q"


def test_rank_degree_and_method_caps_before_computing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rejected degrees compute nothing")

    monkeypatch.setattr(cli, "compute_quotient", refuse)
    for n, method in (("0", "modular"), ("0", "lyndon"), ("-1", "auto"), ("7", "lyndon")):
        code, out, err = run_cli(capsys, "rank", "--n", n, "--method", method)
        assert code == 2 and not out, (n, method)
        assert "usage error" in err


def test_rank_csv_row_holds_every_torsion_factor(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "4", "--relations", "as,ihx,stu2", "--parity", "even",
        "--format", "csv",
    )
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row)) == {
        "n": "4", "rank": "0", "torsion": "2;2", "method": "snf",
        "certification": "exact over Z",
    }


def test_rank_desk_scale_abort(capsys):
    code, _, err = run_cli(capsys, "rank", "--n", "9", "--relations", "as,ihx")
    assert code == 3
    assert "desk scale" in err


def test_unknown_relation_kind_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "rank", "--n", "3", "--relations", "as,foo")
    assert code == 2
    assert "unknown relation kind 'foo'" in err
    code, out, err = run_cli(
        capsys, "reduce", "--expr", "1*[1,2]", "--relations", "foo"
    )
    assert code == 2 and not out
    assert "unknown relation kind 'foo'" in err
    # table always uses as, ihx and stu2 and takes no --relations
    code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--relations", "foo")
    assert code == 2 and not out


def test_relation_kinds_are_case_insensitive(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "3", "--relations", "AS,Ihx,STU2", "--parity", "odd",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "3,1,none,snf,exact over Z"
    code, _, err = run_cli(capsys, "rank", "--n", "3", "--relations", "AS,IHX,STU2")
    assert code == 2
    assert "parity" in err


def test_table_max_n_range(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "table", "--max-n", "0")
    assert code == 2 and not out
    assert "--max-n" in err

    def refuse(*args, **kwargs):
        raise AssertionError("nothing is computed beyond the cap")

    monkeypatch.setattr(cli, "compute_quotient", refuse)
    code, out, err = run_cli(capsys, "table", "--max-n", "9", "--format", "csv")
    assert code == 3 and not out
    assert "desk scale" in err


def test_modular_disagreeing_primes_on_stderr(capsys, monkeypatch):
    args = (
        "rank", "--n", "5", "--relations", "as,ihx", "--method", "modular",
        "--format", "csv",
    )
    monkeypatch.setattr(
        intlinalg, "rank_modp_rows_dense", lambda rows, cols: {101: 1, 103: 1}
    )
    code, agree_out, agree_err = run_cli(capsys, *args)
    assert code == 0 and agree_err == ""
    monkeypatch.setattr(
        intlinalg, "rank_modp_rows_dense", lambda rows, cols: {101: 0, 103: 1}
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    # the larger rank is reported, so stdout is the same as when they agree
    assert out == agree_out
    assert err == "primes disagree: rank mod 101 = 0, rank mod 103 = 1\n"


def test_table_csv_values(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n,lie_rank,at_odd_rank,at_even_rank,torsion_odd,torsion_even,certification"
    )
    rows = [ln.split(",", 6) for ln in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert [r[1] for r in rows] == ["1", "1", "2", "6"]
    assert [r[2] for r in rows] == ["0", "1", "1", "2"]
    assert [r[3] for r in rows] == ["0", "1", "1", "0"]


def test_table_auto_and_snf_print_the_same_bytes(capsys):
    for fmt in ("csv", "json"):
        _, auto, _ = run_cli(capsys, "table", "--max-n", "5", "--format", fmt)
        code, snf, _ = run_cli(
            capsys, "table", "--max-n", "5", "--method", "snf", "--format", fmt
        )
        assert code == 0 and auto == snf, fmt


def test_table_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "table", "--max-n", "3", "--format", "csv")
    _, out2, _ = run_cli(capsys, "table", "--max-n", "3", "--format", "csv")
    assert out1 == out2


def test_the_old_cache_variable_is_ignored(tmp_path, capsys, monkeypatch):
    # rank and table always compute: they neither read nor write the
    # directory JACOBITREES_CACHE_DIR once named
    for argv in (
        ("rank", "--n", "4", "--relations", "as,ihx,stu2", "--parity", "odd",
         "--format", "json"),
        ("table", "--max-n", "3", "--format", "csv"),
    ):
        fresh = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setenv("JACOBITREES_CACHE_DIR", str(tmp_path))
            assert run_cli(capsys, *argv) == fresh, argv
        assert fresh[0] == 0 and not list(tmp_path.iterdir()), argv


def test_reduce_as_generator_is_zero(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--expr", "1*[1,2] 1*[2,1]")
    assert code == 0
    assert "ZERO in Lie(2)" in out


def test_reduce_single_tree_nonzero(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--expr", "1*[1,2]")
    assert code == 0
    assert "NONZERO" in out
    assert "(1,)" in out


def test_reduce_ihx_generator_is_zero(capsys):
    expr = "1*[3,[2,1]] -1*[[3,2],1] -1*[2,[3,1]]"
    code, out, _ = run_cli(capsys, "reduce", "--expr", expr)
    assert code == 0
    assert "ZERO in Lie(3)" in out


def test_reduce_with_stu2_verdict(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce",
        "--expr",
        "1*[1,2]",
        "--relations",
        "as,ihx,stu2",
        "--parity",
        "odd",
    )
    assert code == 0
    assert "NONZERO in A^T,odd_2" in out


@pytest.mark.parametrize("key, index", [("5-even", 15), ("5-odd", 0), ("6-even", 0), ("6-odd", 10)])
def test_reduce_prints_the_pinned_bytes_of_stu2_pool_vectors(capsys, key, index):
    # the benchmark's pinned stdout of one vector per degree and parity;
    # each residue prints with its columns out of order, so the pin holds
    # the key order the lattice's rows give it
    entry = json.loads(STU2_POOL.read_text())[key][index]
    expr = " ".join(f"{c:+d}*{json.dumps(t, separators=(',', ':'))}" for c, t in entry["terms"])
    code, out, _ = run_cli(
        capsys, "reduce", f"--expr={expr}", "--relations", "as,ihx,stu2",
        "--parity", key.split("-")[1],
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]
    residue = list(ast.literal_eval(out.rpartition("residue ")[2]))
    assert residue != sorted(residue)


def test_reduce_needs_as_and_ihx(capsys):
    # a Jacobi sum: zero modulo IHX, but not in the span of AS alone
    jacobi = "1*[[1,2],3] 1*[[2,3],1] 1*[[3,1],2]"
    for relations in (("--relations", "as"), ("--relations", "stu2", "--parity", "odd")):
        code, out, err = run_cli(capsys, "reduce", "--expr", jacobi, *relations)
        assert code == 2 and not out, relations
        assert "as,ihx" in err
    code, out, _ = run_cli(capsys, "reduce", "--expr", jacobi)
    assert code == 0 and "ZERO in Lie(3)" in out


def test_reduce_degree_cap_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing is computed beyond the cap")

    monkeypatch.setattr(cli, "to_lyndon_coordinates", refuse)
    monkeypatch.setattr(cli, "decorated_normal_form", refuse)
    monkeypatch.setattr(cli, "IntLattice", refuse)
    plain = "[[[[[[[[1,2],3],4],5],6],7],8],9]"
    for expr in (plain, plain.replace("1", "1{a}", 1)):
        code, out, err = run_cli(capsys, "reduce", "--expr", expr)
        assert code == 3 and not out, expr
        assert "desk scale" in err
    # the stu2 verdict is an exact lattice on Lyndon coordinates: its cap is 6
    for parity in ("odd", "even"):
        code, out, err = run_cli(
            capsys, "reduce", "--expr", "[[[[[[1,2],3],4],5],6],7]",
            "--relations", "as,ihx,stu2", "--parity", parity,
        )
        assert code == 2 and not out, parity
        assert "n <= 6" in err


def test_reduce_decorated_as_pair(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--expr", "1*[1{a},2{b}] 1*[2{b},1{a}]", "--group", "a,b"
    )
    assert code == 0
    assert "ZERO in Lie_G(2)" in out


def test_reduce_decorated_nonzero_blocks(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--expr", "1*[1{a},2{b}] 1*[2{a},1{b}]", "--group", "a,b"
    )
    assert code == 0
    assert "tuple (a, b): coordinates [1]" in out
    assert "tuple (b, a): coordinates [-1]" in out
    assert "NONZERO in Lie_G(2)" in out


def test_reduce_multi_letter_decoration(capsys):
    code, out, err = run_cli(capsys, "reduce", "--expr", "1*[1{a b},2]", "--group", "a,b")
    assert code == 0, err
    assert out == "tuple (a b, 1): coordinates [1]\nNONZERO in Lie_G(2)\n"


def test_reduce_group_names_follow_the_word_grammar(capsys):
    # a name parse_word refuses, or a repeated name, is a usage error
    # whether or not the input is decorated
    for expr, group in (("[1{a},2]", "é,a"), ("[1{a},2]", "a-b,a"), ("[1,2]", "a,a")):
        code, out, err = run_cli(capsys, "reduce", "--expr", expr, "--group", group)
        assert code == 2 and not out, group
        assert "generator" in err, group


def test_reduce_an_empty_group_is_a_usage_error(capsys):
    # only an absent --group means the default group a, b
    for group in (",", ""):
        code, out, err = run_cli(capsys, "reduce", "--expr", "[1{a},2{b}]", "--group", group)
        assert code == 2 and not out, group
        assert "group needs at least one generator" in err, group


def test_reduce_decorated_unknown_generator(capsys):
    code, _, err = run_cli(
        capsys, "reduce", "--expr", "1*[1{c},2{b}]", "--group", "a,b"
    )
    assert code == 2
    assert "outside the group" in err


def test_reduce_from_file(tmp_path, capsys):
    path = tmp_path / "vec.txt"
    path.write_text("1*[1,2] 1*[2,1]\n")
    code, out, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert "ZERO" in out


def test_reduce_takes_an_input_file_or_expr_not_both(tmp_path, capsys):
    path = tmp_path / "vec.txt"
    path.write_text("1*[1,2] 1*[2,1]\n")
    for expr in (("--expr", "[[1,2],3]"), ("--expr", ""), ("--expr=",)):
        code, out, err = run_cli(capsys, "reduce", str(path), *expr)
        assert code == 2 and out == "", expr
        assert err.startswith("usage error:") and err.count("\n") == 1, expr
        assert "not both" in err, expr


def test_reduce_unreadable_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "binary.txt").write_bytes(b"1*[1,2] \xff\xfe")
    for name in ("missing.txt", "binary.txt"):
        code, out, err = run_cli(capsys, "reduce", str(tmp_path / name))
        assert code == 2
        assert out == ""
        assert "cannot read input file" in err


def test_reduce_parse_error(capsys):
    code, _, err = run_cli(capsys, "reduce", "--expr", "1*[1,1]")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "expr, said",
    [
        ("1_0*[1,2]", "bad coefficient '1_0'"),  # int() reads 10
        ("+-2*[1,2]", "bad coefficient '+-2'"),  # two signs
        ("--1*[1,2]", "bad coefficient '--1'"),
        ("٣*[1,2]", "bad coefficient '٣'"),  # int() reads 3
        ("1*[٢,1]", "expected '[' or a leaf label"),  # int() reads 2
        ("1*[1,²]", "expected '[' or a leaf label"),  # int() refuses
        ("*[1,2]", "bad coefficient ''"),
        ("9" * 5000 + "*[1,2]", "coefficient has too many digits"),
        ("[1," + "2" * 5000 + "]", "leaf label has too many digits"),
        ("1*[1{a^1_0},2]", "bad exponent '1_0' on 'a'"),  # int() reads 10
        ("1*[1{a^٣},2]", "bad exponent '٣' on 'a'"),  # int() reads 3
        ("1*[1{a^+-1},2]", "bad exponent '+-1' on 'a'"),
        ("1*[1{a^" + "9" * 5000 + "},2]", "exponent has too many digits on 'a'"),
    ],
    ids=["underscore", "two-signs", "two-minuses", "arabic-indic-coefficient",
         "arabic-indic-label", "superscript-label", "empty-coefficient",
         "long-coefficient", "long-label", "underscore-exponent",
         "arabic-indic-exponent", "two-signs-exponent", "long-exponent"],
)
def test_reduce_reads_one_sign_and_ascii_digits(capsys, expr, said):
    # a coefficient and a decoration exponent are at most one sign, then the
    # digits 0-9; a leaf label is the digits 0-9
    code, out, err = run_cli(capsys, "reduce", "--expr", expr)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert said in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--n", "٣"],
        ["rank", "--n", "0_3"],
        ["rank", "--n", " 3"],
        ["table", "--max-n", "٣"],
        ["magnus", "--tree", "[1,2]", "--truncate", "²"],
    ],
    ids=" ".join,
)
def test_an_integer_flag_reads_one_sign_and_ascii_digits(capsys, argv):
    # not in INVALID_ARGVS: its argparse oracle reads these with int(),
    # which takes them
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {argv[-2]} takes an integer, not {argv[-1]!r}\n"


def test_a_plus_sign_reads_as_no_sign(capsys):
    for signed, plain in (
        (["enum", "--n", "+3"], ["enum", "--n", "3"]),
        (["rank", "--n", "+3", "--format", "csv"], ["rank", "--n", "3", "--format", "csv"]),
        (["reduce", "--expr", "1*[1{a^+2},2]"], ["reduce", "--expr", "1*[1{a^2},2]"]),
    ):
        assert run_cli(capsys, *signed) == run_cli(capsys, *plain), signed
        assert run_cli(capsys, *plain)[0] == 0, plain


@pytest.mark.parametrize(
    "expr",
    [
        "1*[1,2] 1*[[1,2],3]",
        "1*[1,2] -1*[1,2] 1*[[1,2],3]",  # the degree-2 terms cancel
        "1*[[1,2],3] -1*[[1,2],3] 1*[1,2]",
        "1*[1,2] -0*[[1,2],3]",  # a zero coefficient still has a degree
        "1*[1{a},2] -1*[1{a},2] 1*[2,1]",  # mixed modes, the decorated cancelled
    ],
)
def test_reduce_mixed_terms_are_a_usage_error_even_when_cancelled(capsys, expr):
    code, out, err = run_cli(capsys, "reduce", "--expr", expr)
    assert code == 2 and not out
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "mixed" in err


def test_reduce_decorated_input_that_cancels_is_the_undecorated_zero(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--expr", "1*[[1{a},2],3] -1*[[1{a},2],3]")
    assert code == 0
    assert out == "lyndon coordinates: [0, 0]\nnormal form: 0\nZERO in Lie(3)\n"


def test_deeply_nested_input_is_a_usage_error(tmp_path, capsys):
    deep = "[" * 3000
    path = tmp_path / "deep.txt"
    path.write_text(deep)
    for argv in (
        ("reduce", "--expr", deep),
        ("reduce", str(path)),
        ("magnus", "--tree", deep, "--truncate", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv[:2]
        assert err.startswith("usage error:") and err.count("\n") == 1, argv[:2]


def test_magnus_command(capsys):
    code, out, _ = run_cli(capsys, "magnus", "--tree", "[1,2]", "--truncate", "2")
    assert code == 0
    assert "x1 x2 x1^-1 x2^-1" in out
    assert "PASS" in out


def test_magnus_degree3(capsys):
    code, out, _ = run_cli(capsys, "magnus", "--tree", "[[1,2],3]", "--truncate", "3")
    assert code == 0
    assert "PASS" in out


def test_magnus_bytes_are_pinned(capsys):
    # every tree through degree 4 at --truncate n and n + 1, and three
    # degree-6 shapes at 6 and 7, in text and json: one SHA-256 over all
    # (exit code, stdout) pairs, pinned while magnus still multiplied the
    # former NcPoly objects
    cases = [(t.serialize(), t.degree) for n in range(1, 5) for t in enumerate_trees(n)]
    cases += [(tree, 6) for tree in
              ("[[[[[1,2],3],4],5],6]", "[1,[2,[3,[4,[5,6]]]]]", "[[[1,2],[3,4]],[5,6]]")]
    digest = hashlib.sha256()
    for tree, n in cases:
        for k in (n, n + 1):
            for fmt in ("text", "json"):
                code, out, _ = run_cli(capsys, "magnus", "--tree", tree,
                                       "--truncate", str(k), "--format", fmt)
                digest.update(json.dumps([code, out]).encode() + b"\n")
    assert digest.hexdigest() == (
        "255aaf003acc950ea676c73bdb33d66d0bda50b4a4ace739c33a5adaae487579")


def test_magnus_truncation_usage_error(capsys):
    code, _, err = run_cli(capsys, "magnus", "--tree", "[1,2]", "--truncate", "1")
    assert code == 2
    assert "truncation" in err


def test_magnus_beyond_desk_scale_aborts_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("magnus expanded beyond desk scale")

    monkeypatch.setattr(cli.magnus, "magnus_expand", refuse)
    cap = max(cli.METHOD_CAPS.values())
    for tree in ("[1,2]", "[[[[[[[[1,2],3],4],5],6],7],8],9]"):
        argv = ("magnus", "--tree", tree, "--truncate", str(cap + 4))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and not out
        assert "truncation" in err and "desk scale" in err


def test_outputs_do_not_depend_on_the_hash_seed():
    # tree hashes are str hashes, which PYTHONHASHSEED salts
    env = cli_env()
    stu2 = ("reduce", "--expr", "1*[[[[1,2],3],4],5] 2*[[1,[2,5]],[3,4]]",
            "--relations", "as,ihx,stu2", "--parity", "odd")
    for argv in (("table", "--max-n", "5", "--format", "csv"), stu2):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "jacobitrees", *argv],
                env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1], argv
        assert outs[0]


def test_stu2_audit_script_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "stu2_audit.py"), "--max-n", "4"],
        env=cli_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    quotients = [ln.strip() for ln in proc.stdout.splitlines() if "quotient:" in ln]
    assert quotients == [
        "quotient: rank 1, torsion none",  # degree 3, odd
        "quotient: rank 1, torsion none",  # degree 3, even
        "quotient: rank 2, torsion none",  # degree 4, odd
        "quotient: rank 0, torsion [2, 2]",  # degree 4, even
    ]
    # and every instance line before them
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "08ff93039a2fa65a51647aad08b7665adc98f22eb6343e42b0454268f585cdee"
    )


def test_flags_a_command_does_not_read_are_usage_errors(capsys):
    for argv in (
        ("enum", "--n", "2", "--cache-dir", "x"),
        ("enum", "--n", "2", "--seed", "1"),
        ("rank", "--n", "2", "--seed", "1"),
        ("rank", "--n", "2", "--cache-dir", "x"),
        ("table", "--max-n", "2", "--seed", "1"),
        ("table", "--max-n", "2", "--cache-dir", "x"),
        ("reduce", "--expr", "1*[1,2]", "--format", "json"),
        ("reduce", "--expr", "1*[1,2]", "--cache-dir", "x"),
        ("reduce", "--expr", "1*[1,2]", "--seed", "1"),
        ("magnus", "--tree", "[1,2]", "--truncate", "2", "--format", "csv"),
        ("magnus", "--tree", "[1,2]", "--truncate", "2", "--cache-dir", "x"),
        ("magnus", "--tree", "[1,2]", "--truncate", "2", "--seed", "1"),
        ("verify", "--max-n", "1"),  # no such command
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and not out, argv


def test_json_format_rank(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "3", "--relations", "as,ihx", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["free_rank"] == 2
    assert obj["certification"] == "exact over Z"
    assert "wall" not in json.dumps(obj)


# Every value is drawn from a bounded pool, so no example runs a heavy
# computation: degrees stay at most 4 or are out of range, and a decoration
# exponent of more than words.MAX_EXPONENT is refused when parsed.
COMMAND_FLAGS = {
    "enum": ("--n", "--format"),
    "rank": ("--n", "--relations", "--parity", "--method", "--format"),
    "table": ("--max-n", "--method", "--format"),
    "reduce": ("--expr", "--relations", "--parity", "--group"),
    "magnus": ("--tree", "--truncate", "--format"),
}
TEXT = st.one_of(
    st.sampled_from((
        "[1,2]", "[[1,2],3]", "1*[1,2] 1*[2,1]", "-2*[3,[1,2]] +1*[[1,3],2]",
        "[[1,2],[3,4]]", "1*[1{a},2{b^-1}]", "[1{a b},2{}]", "[1{a^4},[2,3{b}]]",
    )),
    st.text(alphabet="[],{}1234ab^-*+ ", max_size=30),
)
DEGREES = st.sampled_from(("-1", "0", "1", "2", "3", "4", "9"))
FLAG_VALUES = {
    "--n": DEGREES,
    "--truncate": DEGREES,
    "--max-n": st.sampled_from(("-1", "0", "1", "2", "3", "9")),
    "--method": st.sampled_from(("auto", "snf", "lyndon", "modular", "exact", "")),
    "--relations": st.lists(
        st.sampled_from(("as", "ihx", "stu2", "AS", "Stu2", "foo", " ")), max_size=4
    ).map(",".join),
    "--parity": st.sampled_from(("odd", "even", "both", "")),
    "--format": st.sampled_from(("text", "json", "csv", "xml")),
    "--group": st.sampled_from(("a,b", "b", "a,a", "1x", ",", "")),
    "--expr": TEXT,
    "--tree": TEXT,
}


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from((*COMMAND_FLAGS, "bogus")))
    flags = [f for f in COMMAND_FLAGS.get(command, ()) if draw(st.integers(0, 3))]
    flags += draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=1))
    argv = [command] + [f"{f}={draw(FLAG_VALUES[f])}" for f in flags]
    if command == "reduce" and draw(st.booleans()):
        argv.append("INPUT")
    return argv, draw(TEXT)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_inputs())
def test_cli_only_exits_0_2_or_3(drawn):
    argv, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "file"), "w") as fh:
            fh.write(text)
        argv = [os.path.join(tmp, "file") if a == "INPUT" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    assert code in (0, 2, 3), argv


# Values of each flag that both parsers accept; magnus takes --format text
# or json only.  A value led by "-" is written --flag=value, the one form in
# which argparse takes it.
VALID_VALUES = {
    "--n": ("1", "4", "0", "-2", "+7"),
    "--max-n": ("1", "6", "-1"),
    "--truncate": ("3", "0", "12"),
    "--method": ("auto", "snf", "lyndon", "modular"),
    "--format": ("text", "json", "csv"),
    "--relations": ("as,ihx", "AS,Ihx,stu2", "stu2", "", " as , ihx ,"),
    "--parity": ("odd", "even"),
    "--group": ("a,b", "x1", ",", " a , b "),
    "--expr": ("1*[1,2] 1*[2,1]", "[1{a b},2]", "-1*[1,2]", "a=b", "", "--help"),
    "--tree": ("[[1,2],3]", "-x", "t=1", ""),
}
REQUIRED_FLAGS = {"--n", "--max-n", "--tree", "--truncate"}


def valid_argv(rng, command):
    """Every required flag of command and some optional ones, in shuffled
    order, each as --flag value or --flag=value, one of them repeated."""
    flags = [f for f in COMMAND_FLAGS[command] if f in REQUIRED_FLAGS or rng.random() < 0.6]
    flags += rng.sample(flags, min(1, len(flags)))
    rng.shuffle(flags)
    tokens = []
    for flag in flags:
        values = VALID_VALUES[flag][:2] if (command, flag) == ("magnus", "--format") \
            else VALID_VALUES[flag]
        value = rng.choice(values)
        tokens.append([f"{flag}={value}"] if value.startswith("-") or rng.random() < 0.5
                      else [flag, value])
    if command == "reduce" and rng.random() < 0.5:
        tokens.insert(rng.randrange(len(tokens) + 1), [rng.choice(("vec.txt", ""))])
    return [command, *(t for pair in tokens for t in pair)]


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_the_flag_tables_parse_as_argparse_did(command):
    rng = random.Random(command)
    for _ in range(200):
        argv = valid_argv(rng, command)
        assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv)), argv


INVALID_ARGVS = (
    [],  # missing command
    ["bogus"],
    ["rank", "--n", "3", "--bogus", "1"],  # unknown flag
    ["rank", "--n", "3", "--tree", "[1,2]"],  # another command's flag
    ["table", "--max-n", "2", "--relations", "as"],
    ["reduce", "--expr", "[1,2]", "--format=json"],
    ["rank", "--n"],  # missing value
    ["magnus", "--tree", "[1,2]", "--truncate"],
    ["rank", "--n", "x"],  # not an integer
    ["table", "--max-n=2.0"],
    ["magnus", "--tree", "[1,2]", "--truncate", ""],
    ["rank", "--n", "3", "--method", "exact"],  # bad choice
    ["rank", "--n", "3", "--parity", "both"],
    ["magnus", "--tree", "[1,2]", "--truncate", "2", "--format", "csv"],
    ["rank", "--n", "3", "--relations", "as,foo"],
    ["rank"],  # missing required flag
    ["magnus", "--truncate", "3"],
    ["reduce", "a.txt", "b.txt"],  # extra positional
    ["enum", "--n", "2", "extra"],
)


@pytest.mark.parametrize("argv", INVALID_ARGVS, ids=" ".join)
def test_a_malformed_argv_is_one_usage_error_line_under_both_parsers(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_only_exact_flag_names_are_read(capsys):
    # argparse took an unambiguous prefix; the flag tables take none
    for argv in (("rank", "--n", "3", "--rel", "as"), ("table", "--max", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage error: "), argv
    # the token after a flag is its value, whatever it starts with
    args = cli.parse_args(["reduce", "--expr", "-1*[1,2]", "--group", "--help"])
    assert (args.expr, args.group) == ("-1*[1,2]", ("--help",))


def readme_flags():
    """The flags each command takes, from README's table."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", readme, re.M)
    return {command: re.findall(r"--[a-z-]+", flags) for command, flags in rows}


def test_help_lists_the_flags_of_readmes_table(capsys):
    table = readme_flags()
    assert list(table) == list(COMMAND_FLAGS)
    for flag in ("--help", "-h"):
        code, out, err = run_cli(capsys, flag)
        assert code == 0 and not err
        usages = re.findall(r"^usage: jacobitrees (\w+)(.*)$", out, re.M)
        assert {command: re.findall(r"--[a-z-]+", u) for command, u in usages} == table
    for command, flags in table.items():
        for argv in ((command, "--help"), (command, "-h"), (command, f"{flags[0]}=1", "-h")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and not err, argv
            assert out.startswith(f"usage: jacobitrees {command} "), argv
            assert re.findall(r"--[a-z-]+", out) == flags, argv


def test_the_module_prints_help_and_refuses_a_bad_integer():
    run = functools.partial(subprocess.run, env=cli_env(), capture_output=True, text=True)
    helped = run([sys.executable, "-m", "jacobitrees", "--help"])
    assert helped.returncode == 0 and not helped.stderr
    assert helped.stdout.startswith("usage: jacobitrees enum ")
    refused = run([sys.executable, "-m", "jacobitrees", "rank", "--n", "x"])
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr == "usage error: --n takes an integer, not 'x'\n"
