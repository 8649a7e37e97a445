import json

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
    assert "cap" in err


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


def test_verify_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failure(s)" in out


def test_json_format_rank(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "3", "--relations", "as,ihx", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["free_rank"] == 2
    assert obj["certification"] == "exact over Z"
    assert "wall" not in json.dumps(obj)
