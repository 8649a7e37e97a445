import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jacobitrees import cli, intlinalg
from jacobitrees.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_cache_hits_match_fresh(tmp_path, capsys):
    args = (
        "rank", "--n", "4", "--relations", "as,ihx,stu2", "--parity", "odd",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)
    assert list(tmp_path.glob("*.json"))


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    args = ("rank", "--n", "3", "--format", "csv", "--cache-dir", str(tmp_path))
    code1, out1, _ = run_cli(capsys, *args)
    (entry,) = tmp_path.glob("*.json")
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out2 == out1
    assert entry.read_text() == text  # recomputed and rewritten


def test_cache_entry_of_other_code_is_a_miss(tmp_path, capsys, monkeypatch):
    computed = []
    compute = cli.compute_quotient

    def counting(*args):
        computed.append(args)
        return compute(*args)

    monkeypatch.setattr(cli, "compute_quotient", counting)
    args = ("rank", "--n", "3", "--format", "csv", "--cache-dir", str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr(cli, "code_fingerprint", lambda: "other code")
        _, stale, _ = run_cli(capsys, *args)
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and out == stale
    assert len(computed) == 2
    assert len(list(tmp_path.glob("*.json"))) == 2
    run_cli(capsys, *args)
    assert len(computed) == 2  # the entry of this code is a hit


def test_unwritable_cache_dir_keeps_the_result(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _, fresh, _ = run_cli(capsys, "rank", "--n", "3", "--format", "csv")
    code, out, err = run_cli(
        capsys, "rank", "--n", "3", "--format", "csv", "--cache-dir", str(blocker / "sub")
    )
    assert code == 0 and out == fresh
    assert "cache not written" in err


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


def test_magnus_command(capsys):
    code, out, _ = run_cli(capsys, "magnus", "--tree", "[1,2]", "--truncate", "2")
    assert code == 0
    assert "x1 x2 x1^-1 x2^-1" in out
    assert "PASS" in out


def test_magnus_degree3(capsys):
    code, out, _ = run_cli(capsys, "magnus", "--tree", "[[1,2],3]", "--truncate", "3")
    assert code == 0
    assert "PASS" in out


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
        assert "desk scale" in err


def test_verify_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failure(s)" in out


def test_verify_max_n_below_one_is_usage_error(capsys):
    for max_n in ("0", "-2"):
        code, out, err = run_cli(capsys, "verify", "--max-n", max_n)
        assert code == 2 and not out
        assert "--max-n" in err


def test_verify_max_n_beyond_desk_scale_aborts(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "9")
    assert code == 3 and not out
    assert "desk scale" in err


def test_verify_max_n_beyond_its_cap_aborts_before_any_work(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("verify enumerated trees beyond its cap")

    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    for max_n in range(cli.VERIFY_CAP + 1, max(cli.METHOD_CAPS.values()) + 1):
        code, out, err = run_cli(capsys, "verify", "--max-n", str(max_n))
        assert code == 3 and not out
        assert f"cap {cli.VERIFY_CAP}" in err


def test_outputs_do_not_depend_on_the_hash_seed():
    # tree hashes are str hashes, which PYTHONHASHSEED salts
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
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
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "stu2_audit.py"), "--max-n", "4"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    quotients = [ln.strip() for ln in proc.stdout.splitlines() if "quotient:" in ln]
    assert quotients == [
        "quotient: rank 1, torsion none",  # degree 3, odd
        "quotient: rank 1, torsion none",  # degree 3, even
        "quotient: rank 2, torsion none",  # degree 4, odd
        "quotient: rank 0, torsion [2, 2]",  # degree 4, even
    ]


def test_flags_a_command_does_not_read_are_usage_errors(capsys):
    for argv in (
        ("enum", "--n", "2", "--cache-dir", "x"),
        ("enum", "--n", "2", "--seed", "1"),
        ("rank", "--n", "2", "--seed", "1"),
        ("table", "--max-n", "2", "--seed", "1"),
        ("reduce", "--expr", "1*[1,2]", "--format", "json"),
        ("reduce", "--expr", "1*[1,2]", "--cache-dir", "x"),
        ("reduce", "--expr", "1*[1,2]", "--seed", "1"),
        ("magnus", "--tree", "[1,2]", "--truncate", "2", "--format", "csv"),
        ("magnus", "--tree", "[1,2]", "--truncate", "2", "--cache-dir", "x"),
        ("magnus", "--tree", "[1,2]", "--truncate", "2", "--seed", "1"),
        ("verify", "--max-n", "1", "--format", "json"),
        ("verify", "--max-n", "1", "--cache-dir", "x"),
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
    "rank": ("--n", "--relations", "--parity", "--method", "--format", "--cache-dir"),
    "table": ("--max-n", "--method", "--format", "--cache-dir"),
    "reduce": ("--expr", "--relations", "--parity", "--group"),
    "magnus": ("--tree", "--truncate", "--format"),
    "verify": ("--max-n", "--seed"),
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
    "--seed": st.sampled_from(("0", "7", "-1", "x")),
    "--cache-dir": st.sampled_from(("CACHE", "CACHE/file/sub")),
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
        argv = [
            a.replace("CACHE", tmp) if a.startswith("--cache-dir=") else a for a in argv
        ]
        argv = [os.path.join(tmp, "file") if a == "INPUT" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    assert code in (0, 2, 3), argv
