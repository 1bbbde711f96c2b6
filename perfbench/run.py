"""Benchmark entry point for gradedpi.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process, from the package sources under `src/` of
the checkout that holds this file, and prints as its last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
and writes the span file under `perfbench/out/`.  `--workload all` runs
every workload, each in its own process, one after the other.

A run is a closed loop with one client: set-up builds the inputs (three
times, the median build is reported), then whole rounds of queries run back
to back until at least `--seconds` seconds of queries and at least 100
queries have run.  Answers are checked between rounds, outside the timed
intervals.  Times are the process's CPU time, expressed at a fixed reference
speed of the machine (see `calibrate.py`): each round, and set-up, is
divided by the speed factor of the calibration units run beside it.
`queries_per_s` is the median over the rounds of a round's queries divided
by its scaled time; the latency percentiles are taken over every query of
the run.
"""

import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded numpy in the oracles

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_QUERIES = 100
SETUP_BUILDS = 3
# no new round starts after this much wall time, so a run on a slow
# machine still ends within its time limit
MAX_WALL_S = 120.0
# Timings are CPU time of this single-threaded process, so time it spends
# waiting (for other processes, or for the host) does not count; the drift
# of the host's speed itself is taken out by calibration (calibrate.py).
CLOCK = time.process_time
# calibration time after each query, as a share of the query's time
CALIBRATION_SHARE = 0.25
# calibration time after the import and after each set-up build
SETUP_CALIBRATION_S = 0.2

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "queries/s",
                    "query_p50_ms": "ms", "query_p90_ms": "ms",
                    "peak_rss_mb": "MB"}


def import_package():
    """Import gradedpi from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gradedpi
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import gradedpi from {src}: {err}")
    if Path(gradedpi.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: gradedpi was imported from "
                         f"{gradedpi.__file__}, not from {src}")


def run_rounds(wl, seed: int, seconds: float, tracer=None):
    """Whole rounds until `seconds` of queries and MIN_QUERIES have run.

    Calibration units run before a round's first query and after each
    query, for CALIBRATION_SHARE of its time (outside the timed intervals).
    A query's latency is expressed at the reference speed with the mean of
    the speed factors of the samples just before and just after it: the
    host's speed drifts over tens of milliseconds and more, and samples a
    few milliseconds apart agree closely.  A round's rate is its queries
    over the sum of its scaled latencies.
    """
    from calibrate import Meter
    from oracles import OracleError

    rng = random.Random(seed)
    latencies, round_rates, factors, wrong, errors = [], [], [], [], []
    busy = wall = 0.0
    rounds = attempted = failed = 0
    start = time.perf_counter()
    while rounds == 0 or ((busy < seconds or len(latencies) < MIN_QUERIES)
                          and time.perf_counter() - start < MAX_WALL_S):
        queries = wl.round(rng)
        results, round_lat = [], []
        meter = Meter(CLOCK)
        if tracer:
            tracer.enabled = True
        w_round = time.perf_counter()
        took = scaled = 0.0
        before = meter.sample(0.0)
        for label, thunk in queries:
            if tracer:
                tracer.query = attempted + len(results)
            t = CLOCK()
            try:
                value = thunk()
            except Exception as err:  # a failed query is counted, not fatal
                value = err
            d = CLOCK() - t
            results.append((label, value))
            after = meter.sample(CALIBRATION_SHARE * d)  # calls nothing traced
            took += d
            scaled += d / ((before + after) / 2)
            if not isinstance(value, Exception):
                round_lat.append(d / ((before + after) / 2))
            before = after
        wall += time.perf_counter() - w_round
        busy += took
        factors.append(took / scaled)
        latencies.extend(round_lat)
        round_rates.append(len(queries) / scaled)
        if tracer:
            tracer.enabled = False
        for label, value in results:
            attempted += 1
            if isinstance(value, Exception):
                failed += 1
                errors.append(f"{label}: {value!r}")
                continue
            try:
                wl.check(label, value)
            except OracleError as err:
                wrong.append(f"{label}: {err}")
        rounds += 1
    return {"latencies": latencies, "round_rates": round_rates,
            "factors": factors, "busy": busy, "wall": wall, "rounds": rounds,
            "attempted": attempted, "failed": failed, "wrong": wrong,
            "errors": errors}


def run_workload(args) -> dict:
    import_package()
    t_import = CLOCK()  # CPU time since the process started
    sys.path.insert(0, str(HERE))
    import calibrate
    import tracing
    import workloads

    setup_meter = calibrate.Meter(CLOCK)
    setup_meter.sample(SETUP_CALIBRATION_S)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cache_dir = OUT / f"cache-{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, str(cache_dir))
    builds = []
    for _ in range(SETUP_BUILDS):
        t = CLOCK()
        wl.build()
        builds.append(CLOCK() - t)
        setup_meter.sample(SETUP_CALIBRATION_S)
    setup_factor = setup_meter.factor()
    setup_s = (t_import + statistics.median(builds)) / setup_factor
    if tracer:
        tracer.enabled = False
    try:
        res = run_rounds(wl, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    for line in res["errors"] + res["wrong"]:
        print(f"perfbench: {line}", file=sys.stderr)
    if tracer:
        values = tracer.per_layer(SETUP_BUILDS, res["rounds"])
        units = {k: tracing.metric_unit(k) for k in values}
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        lat_ms = [x * 1000.0 for x in res["latencies"]]
        values = {
            "setup_s": setup_s,
            "queries_per_s": statistics.median(res["round_rates"]),
            "query_p50_ms": statistics.median(lat_ms),
            "query_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(f"{args.workload}: seed {args.seed}, {res['rounds']} rounds, "
          f"{res['attempted']} queries, {res['failed']} failed, "
          f"{len(res['wrong'])} wrong, {res['busy']:.2f} s of queries "
          f"(CPU; {res['wall']:.2f} s wall with calibration), speed factor "
          f"{setup_factor:.3f} in set-up; rounds (speed factor, "
          f"unscaled queries/s): " + " ".join(
              f"{f:.3f},{r / f:.3f}"
              for f, r in zip(res["factors"], res["round_rates"])))
    return {"correct": not res["wrong"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in ("brute_identities", "structural_decide", "cli_cache"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}")
            worst = worst or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("brute_identities", "structural_decide",
                             "cli_cache", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
