"""Tests of the benchmark itself: fast workload configurations whose checks
pass, and oracles that reject wrong answers.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import expected  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_round(wl, seed=0):
    """Build, run one round, check every answer; returns (label, value)s."""
    wl.build()
    results = [(label, thunk()) for label, thunk in wl.round(random.Random(seed))]
    for label, value in results:
        wl.check(label, value)
    return results


@pytest.fixture(scope="module")
def brute():
    wl = workloads.BruteIdentities(
        division=(("Z2", "H2", "M2_2", 3), ("Z2", "H2", "C2", 3)),
        matrix=(("R (e,a)", "R (a,e)", 2),))
    return wl, dict(one_round(wl))


@pytest.fixture(scope="module")
def structural():
    wl = workloads.StructuralDecide(
        classify=("H4", "M2C_Z4", "M4_4"),
        equiv=(("H4", "M2_4"), ("H4", "M4_4")),
        matrix=(("R (e,a)", "R (a,e)"), ("R (e,e)", "R (e,a)")))
    return wl, dict(one_round(wl))


@pytest.fixture()
def cli_wl(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADEDPI_CACHE_DIR", str(tmp_path / "env"))
    wl = workloads.CliCache(str(tmp_path / "cache"), replays=2, commands=(
        ("equiv", "catalog:M2_2", "catalog:C2"),
        ("idspace", "catalog:H4", "--tuple", "(1,0),(0,1)"),
        ("check", "catalog:M4_4", "--poly", "[x[e,1],y[e,2]]"),
        ("classify", "catalog:M2C_Z4"),
        ("normalize", "catalog:H2"),
    ))
    return wl, one_round(wl)


# -- fast configurations pass --------------------------------------------------


def test_brute_round_passes(brute):
    _, results = brute
    assert len(results) == 3


def test_structural_round_passes(structural):
    _, results = structural
    assert len(results) == 7


def test_cli_round_passes_and_warm_reads_hit(cli_wl):
    wl, results = cli_wl
    assert len(results) == 10
    assert all(code in (0, 1) for code, _, _ in dict(results).values())


def test_every_query_gets_fresh_algebras():
    wl = workloads.BruteIdentities(division=(("Z2", "H2", "M2_2", 2),) * 2,
                                   matrix=())
    wl.build()
    values = [thunk() for _, thunk in wl.round(random.Random(0))]
    (_, a1, b1), (_, a2, b2) = values
    assert len({id(a1), id(b1), id(a2), id(b2)}) == 4


# -- oracles reject wrong answers ---------------------------------------------


def test_flipped_brute_verdict_is_rejected(brute):
    wl, results = brute
    label = ("division", "H2", "M2_2", 3)
    rep, a, b = results[label]
    flipped = dataclasses.replace(rep, equal=not rep.equal)
    with pytest.raises(OracleError, match="expected True"):
        wl.check(label, (flipped, a, b))


def test_dimension_off_by_one_is_rejected(brute):
    wl, results = brute
    _, a, _ = results[("division", "H2", "M2_2", 3)]
    key, space = next((k, s) for k, s in a._mul_cache.items()
                      if isinstance(k, tuple))
    wl.dims.check_space("H2", a, key, space.dimension)
    with pytest.raises(OracleError, match="float rank"):
        wl.dims.check_space("H2", a, key, space.dimension + 1)


def test_witness_must_vanish_where_it_holds(brute):
    wl, results = brute
    label = ("division", "H2", "C2", 3)
    rep, a, b = results[label]
    assert not rep.equal
    swapped = dataclasses.replace(rep, holds_in=rep.fails_in,
                                  fails_in=rep.holds_in)
    with pytest.raises(OracleError):
        wl.check(label, (swapped, a, b))


def test_flipped_structural_verdict_is_rejected(structural):
    wl, results = structural
    label = ("equiv", "H4", "M4_4")
    rep = results[label]
    with pytest.raises(OracleError, match="expected False"):
        wl.check(label, dataclasses.replace(rep, verdict=True))


def test_wrong_type_tag_is_rejected(structural):
    wl, results = structural
    rep = results[("classify", "H4")]
    with pytest.raises(OracleError, match="expected I"):
        wl.check(("classify", "H4"), dataclasses.replace(rep, type_tag="II"))


def test_broken_bicharacter_is_rejected(structural):
    _, results = structural
    table = results[("classify", "H4")].bichar
    oracles.check_bicharacter(table)
    g, h = table.domain[1], table.domain[2]
    values = dict(table.values)
    values[(g, h)] = -values[(g, h)]
    with pytest.raises(OracleError, match="skew"):
        oracles.check_bicharacter(dataclasses.replace(table, values=values))


def test_flipped_cli_verdict_is_rejected(cli_wl):
    wl, results = cli_wl
    (replay, cmd), (code, out, err) = next(
        r for r in results if r[0][1][0] == "equiv" and r[0][0] == 1)
    doc = json.loads(out)
    doc["verdict"] = not doc["verdict"]
    with pytest.raises(OracleError):
        wl.check((replay, cmd), (1 - code, json.dumps(doc), err))


def test_cli_dimension_off_by_one_is_rejected(cli_wl):
    wl, results = cli_wl
    wl.first_docs = {}
    label, (code, out, err) = next(r for r in results
                                   if r[0][1][0] == "idspace")
    doc = json.loads(out)
    doc["dimension"] += 1
    doc["basis"].append("0")
    with pytest.raises(OracleError, match="float rank"):
        wl.check(label, (code, json.dumps(doc), err))


def test_cli_exit_4_is_rejected(cli_wl):
    wl, results = cli_wl
    label, (_, out, _) = next(r for r in results if r[0][1][0] == "equiv")
    with pytest.raises(OracleError, match="exit 4"):
        wl.check(label, (4, out, "disagree"))


def test_expected_tables_are_symmetric_in_classes():
    assert expected.division_verdict("H4", "M2_4")[0]
    assert not expected.division_verdict("M2_4", "H4 x H4")[0]
    for name in expected.TYPE_TAGS:
        assert expected.division_verdict(name, name)[0]


# -- calibration ---------------------------------------------------------------


def test_calibration_unit_is_fixed_work():
    assert len({calibrate.unit() for _ in range(3)}) == 1
    meter = calibrate.Meter()
    meter.sample(0.0)
    assert meter.units == 1 and meter.factor() > 0


def test_round_timings_are_scaled_by_the_speed_factor():
    """A round's latencies and rate are its CPU times over its speed factor."""
    ticks = iter(range(1000))

    class Fixed:
        def round(self, rng):
            return [("q", lambda: None)] * 4

        def check(self, label, value):
            pass

    clock, real_unit = run.CLOCK, calibrate.unit
    run.CLOCK = lambda: next(ticks) * 0.001  # every reading is 1 ms later
    calibrate.unit = lambda: 0
    try:
        res = run.run_rounds(Fixed(), seed=0, seconds=0.0)
    finally:
        run.CLOCK, calibrate.unit = clock, real_unit
    # a query reads the clock twice (1 ms), a calibration sample of one unit
    # reads it three times and counts 2 ms for its unit: factor 2 on both
    # sides of every query
    assert res["factors"] == [pytest.approx(2.0)] * res["rounds"]
    assert res["latencies"] == [pytest.approx(0.0005)] * len(res["latencies"])
    assert res["round_rates"][0] == pytest.approx(4 / 0.002)


# -- metric names --------------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == list(run.END_TO_END_UNITS)
    for m in BENCHMARK["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]


def test_traced_call_reports_every_per_layer_metric():
    code = (
        "import sys, json\n"
        f"sys.path[:0] = [{str(HERE.parent / 'src')!r}, {str(HERE)!r}]\n"
        "import tracing\n"
        "t = tracing.Tracer(); t.install(); t.query = 0\n"
        "import gradedpi.structure as s, gradedpi.algebras as a\n"
        "s.classify(a.catalog('M2C_Z4'))\n"
        "print(json.dumps(t.per_layer(1, 1)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    values = json.loads(out)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(values) == set(declared)
    assert all(tracing.metric_unit(k) == u for k, u in declared.items())
    assert values["structure.classify.calls"] == 1
    assert values["algebras.catalog.calls"] == 1
    assert values["scalars.CycloScalar.mul.calls"] > 0
    assert values["structure.classify.s"] >= values["structure.find_complex_unit.s"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cache",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
