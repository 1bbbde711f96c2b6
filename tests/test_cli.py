"""Command-line interface: commands, exit codes, output formats."""

import json

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


def test_classify_table_output(capsys, cache_args):
    code, out, _ = run(cache_args + ["classify", "catalog:M2C_Z4"], capsys)
    assert code == 0
    assert "type: II" in out
    assert "quotient" in out
    assert "time:" in out


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
    # identical apart from the timing trailer
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("time:")]
    assert strip(out1) == strip(out2)


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
