"""Command-line interface: commands, exit codes, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedpi.cli as cli
from gradedpi.algebras import catalog
from gradedpi.specfile import serialize_algebra


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


def test_catalog_list(capsys, cache_args):
    code, out, _ = run(cache_args + ["catalog", "list"], capsys)
    assert code == 0
    assert "H4" in out and "pauli(n,k)" in out


def test_module_form_runs_the_command_line():
    # `python3 -m gradedpi` prints what `python3 -m gradedpi.cli` prints
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    outs = []
    for module in ("gradedpi", "gradedpi.cli"):
        done = subprocess.run([sys.executable, "-m", module, "catalog", "list"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1] and "pauli(n,k)" in outs[0]


def test_classify_table_output(capsys, cache_args):
    code, out, err = run(cache_args + ["classify", "catalog:M2C_Z4"], capsys)
    assert code == 0
    assert "type: II" in out
    assert "quotient" in out
    # the elapsed time goes to stderr, so stdout does not depend on it
    assert "time:" in err and "time:" not in out


def test_classify_json_output(capsys, cache_args):
    code, out, _ = run(cache_args + ["--json", "classify", "catalog:H4"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["type"] == "I"
    assert doc["report"]["bicharacter"]["matrix"][1][2] == "-1"
    assert "time" not in out


def test_json_output_is_deterministic(capsys, cache_args):
    argv = cache_args + ["--json", "equiv", "--mode", "brute",
                         "--max-degree", "2", "catalog:H4", "catalog:M2_4"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    json.loads(out1)


def test_bichar_command(capsys, cache_args):
    code, out, _ = run(cache_args + ["bichar", "catalog:H4"], capsys)
    assert code == 0
    assert "flavor: real" in out
    code, out, _ = run(cache_args + ["--json", "bichar", "catalog:pauli(3,1)"],
                       capsys)
    doc = json.loads(out)
    assert doc["flavor"] == "complex" and doc["type"] == "IV"


def test_idspace_command(capsys, cache_args):
    code, out, _ = run(cache_args + ["idspace", "catalog:H4",
                                     "--tuple", "(1,0),(0,1)"], capsys)
    assert code == 0
    assert "dimension: 1" in out


def test_check_verdict_exit_codes(capsys, cache_args):
    code, out, _ = run(cache_args + ["check", "catalog:M2_4",
                                     "--poly", "[x[e,1],y[e,2]]"], capsys)
    assert code == 0 and "verdict: True" in out
    code, out, _ = run(cache_args + ["check", "catalog:M4_4",
                                     "--poly", "[x[e,1],y[e,2]]"], capsys)
    assert code == 1 and "verdict: False" in out


def test_equiv_both_mode_agreement(capsys, cache_args):
    code, out, _ = run(cache_args + ["equiv", "--max-degree", "3",
                                     "catalog:M2_4", "catalog:H4"], capsys)
    assert code == 0
    assert "agreement: True" in out and "verdict: True" in out


def test_equiv_false_verdict_carries_witness(capsys, cache_args):
    code, out, _ = run(cache_args + ["equiv", "--max-degree", "2",
                                     "catalog:M2_4", "catalog:M4_4"], capsys)
    assert code == 1
    assert "witness" in out and "witness_substitution" in out


def test_equiv_structural_only(capsys, cache_args):
    code, out, _ = run(cache_args + ["equiv", "--mode", "structural",
                                     "catalog:H2", "catalog:M2_2"], capsys)
    assert code == 0
    assert "brute" not in out


def test_equiv_disagreement_is_exit_4(capsys, cache_args, monkeypatch):
    # force a wrong structural verdict to exercise the cross-check path
    def lying(args):
        return {"verdict": False, "reason": "forced for the test"}
    monkeypatch.setattr(cli, "_structural_equiv", lying)
    code, out, _ = run(cache_args + ["equiv", "--max-degree", "2",
                                     "catalog:H4", "catalog:M2_4"], capsys)
    assert code == 4
    assert "agreement: False" in out


def test_normalize_command(capsys, cache_args):
    code, out, _ = run(cache_args + ["normalize", "catalog:H2"], capsys)
    assert code == 0
    assert "type_before: II" in out and "changed: True" in out
    code, out, _ = run(cache_args + ["--json", "normalize", "catalog:H4"],
                       capsys)
    doc = json.loads(out)
    assert doc["changed"] is False and doc["type_before"] == "I"


def test_parse_error_exits_2(capsys, cache_args):
    code, _, err = run(cache_args + ["check", "catalog:H4",
                                     "--poly", "[x[e,1]"], capsys)
    assert code == 2 and "parse error" in err
    code, _, err = run(cache_args + ["classify", "tensor(catalog(H4)"],
                       capsys)
    assert code == 2 and "parse error" in err


def test_precondition_error_exits_3(capsys, cache_args):
    code, _, err = run(cache_args + ["classify",
                                     "matrix(D=trivial(Z2), H=[e], "
                                     "tuple=[(0),(1)])"], capsys)
    assert code == 3 and "division" in err
    code, _, err = run(cache_args + ["equiv", "--mode", "brute",
                                     "catalog:C2", "catalog:H4"], capsys)
    assert code == 3 and "different groups" in err


def test_missing_file_exits_3(capsys, cache_args):
    code, _, err = run(cache_args + ["classify", "file:/nope/missing.galg"],
                       capsys)
    assert code == 3


def test_file_reference_round_trip(tmp_path, capsys, cache_args):
    p = tmp_path / "alg.galg"
    p.write_text(serialize_algebra(catalog("H4")))
    code, out, _ = run(cache_args + ["check", "--poly", "[x[e,1],y[(1,0),2]]",
                                     f"file:{p}"], capsys)
    assert code == 0


def test_file_triple_reads_nested_files_beside_it(tmp_path, monkeypatch, capsys,
                                                  cache_args):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "d.galg").write_text(serialize_algebra(catalog("H2")))
    (sub / "t.galg").write_text('matrix(D=file("d.galg"), H=[(1)], tuple=[(0)])\n')
    monkeypatch.chdir(tmp_path)
    code, out, err = run(cache_args + ["normalize", "file:sub/t.galg"], capsys)
    assert code == 0, err
    assert "changed: True" in out


def test_invalid_file_table_exits_3(tmp_path, capsys, cache_args):
    p = tmp_path / "bad.galg"
    p.write_text("group Z1\nconductor 1\nbasis u x y\ndeg u = e\ndeg x = e\n"
                 "deg y = e\nmul u u = 1*u\nmul u x = 1*x\nmul u y = 1*y\n"
                 "mul x u = 1*x\nmul y u = 1*y\nmul x x = 1*y\n"
                 "mul x y = 1*u\nunit = 1*u\n")
    code, _, err = run(cache_args + ["classify", f"file:{p}"], capsys)
    assert code == 3 and "inconsistent" in err


# u of degree (1) with u*u = 2*u: the product leaves its component
BAD_Z2_TABLE = ("group Z2\nconductor 1\nbasis one u\ndeg one = e\n"
                "deg u = (1)\nmul one one = 1*one\nmul one u = 1*u\n"
                "mul u one = 1*u\nmul u u = 2*u\nunit = 1*one\n")


@pytest.mark.parametrize("argv", [
    ["classify", "file:bad.galg"],
    ["idspace", 'regrade(file("bad.galg"), into=Z2, images=[(1)])',
     "--tuple", "(1),(1)"],
    ["normalize", 'matrix(D=file("bad.galg"), H=[(1)], tuple=[(0)])'],
    ["classify", BAD_Z2_TABLE],
], ids=["file", "nested-in-regrade", "nested-in-matrix", "inline"])
def test_every_inconsistent_table_exits_3(tmp_path, monkeypatch, capsys,
                                          cache_args, argv):
    # top-level, nested and inline tables are validated as they are parsed
    (tmp_path / "bad.galg").write_text(BAD_Z2_TABLE)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(cache_args + argv, capsys)
    assert code == 3 and out == ""
    assert "algebra table is inconsistent: degree violation: u*u hits u" in err


def test_inline_matrix_triple_in_equiv(capsys, cache_args):
    code, out, _ = run(cache_args + [
        "equiv", "--max-degree", "3", "catalog:M2_2",
        "matrix(D=trivial(Z2), H=[e], tuple=[e,1])"], capsys)
    assert code == 0
    assert "verdict: True" in out


def test_cache_reuse_across_invocations(tmp_path, capsys):
    d = str(tmp_path / "cache")
    argv = ["--cache-dir", d, "idspace", "catalog:H4", "--tuple", "e,e,e"]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    import os
    assert os.listdir(d)
    code, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_no_cache_flag_skips_disk(tmp_path, capsys):
    d = str(tmp_path / "cache")
    code, _, _ = run(["--cache-dir", d, "--no-cache", "idspace",
                      "catalog:C2", "--tuple", "1,1"], capsys)
    assert code == 0
    import os
    assert not os.path.isdir(d) or not os.listdir(d)


def test_selftest_json_carries_per_pair_seconds(capsys, cache_args):
    code, out, _ = run(cache_args + ["--json", "selftest", "--max-degree", "2"],
                       capsys)
    assert code == 0
    sections = {s["name"]: s for s in json.loads(out)["sections"]}
    oracle = sections["oracle agreement (division pairs)"]
    matrix = sections["matrix-over-division vs brute force"]
    # one entry per pair or triple decided by brute force
    assert len(oracle["pairs"]) == oracle["checks"] == 58
    assert len(matrix["pairs"]) == matrix["checks"] == 6
    assert oracle["pairs"][0]["name"] == "[Z2] H2 vs M2_2"
    # passthrough (Type I/IV) triples are not compared
    assert [p["name"] for p in sections["normalize preserves identities"]["pairs"]] \
        == ["normalize M2_2", "normalize H2", "normalize M2C_Z4",
            "normalize M4_4", "normalize quat_trivial"]
    assert sections["catalog validation"]["pairs"] == []
    assert all(p["seconds"] >= 0 for s in sections.values() for p in s["pairs"])


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    d = str(tmp_path / "cache")
    run(["catalog", "list"], capsys)

    classify = ["--cache-dir", d, "classify", "catalog:H4"]
    code, out, _ = run(["--json"] + classify, capsys)
    assert code == 0 and json.loads(out)["report"]["type"] == "I"
    code, out, err = run(classify, capsys)
    assert code == 0 and out.startswith("command: classify\n")
    assert "type: I\n" in out and "time:" in err

    idspace = ["--cache-dir", d, "idspace", "catalog:H4",
               "--tuple", "(1,0),(0,1)"]
    code, uncached, _ = run(["--no-cache"] + idspace, capsys)
    assert code == 0 and not os.path.exists(d)
    code, cached, _ = run(idspace, capsys)
    assert code == 0 and cached == uncached and os.listdir(d)

    with pytest.raises(SystemExit) as exc:
        cli.main(["--json", "equiv", "--max-degree", "3", "--mode", "nope",
                  "catalog:H4", "catalog:M2_4"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    pair = ["catalog:H4", "catalog:M2_4"]
    code, out, _ = run(["--cache-dir", d, "--json", "equiv", "--mode",
                        "structural"] + pair, capsys)
    doc = json.loads(out)
    assert code == 0 and doc["mode"] == "structural" and "brute" not in doc
    code, out, _ = run(["--cache-dir", d, "equiv", "--max-degree", "2"] + pair,
                       capsys)
    assert code == 0 and "mode: both\n" in out and "max_degree: 2\n" in out
    # one parser served every call
    assert cli.build_parser.cache_info().misses == 1


def test_cache_dir_help_names_the_variable(tmp_path, capsys, monkeypatch):
    helps = []
    for name in ("first", "second"):
        monkeypatch.setenv("GRADEDPI_CACHE_DIR", str(tmp_path / name))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "$GRADEDPI_CACHE_DIR" in helps[0] and str(tmp_path) not in helps[0]
