"""The measuring process: set-up, closed loops, output checks, traced passes.

run.py starts this process once per run (and again, with --setup-only, to
sample set-up time). Protocol on stdout: the line ``ready`` once set-up
is done, then one JSON object as the last line. The program's own output
is captured, so stdout carries nothing else.

Load comes from this one process: each workload is a closed loop that
issues its next request only when the previous one has finished, and each
request uses at most two worker processes.
"""

from __future__ import annotations

import argparse
import contextlib
import io as textio
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

from stepturn import cli, experiments, inference, movement, nnet, summaries  # noqa: E402
from stepturn import io as stio  # noqa: E402

WORKERS = 2
REFTABLE_ROWS = 1000
REFTABLE_SHARD = 50  # 20 shards: both workers stay busy, uneven row costs still show
CROSSVAL_REPS = 2
#: crossval replicates are fixed inputs: the held-out row decides the network's
#: iteration count, so one replicate costs 2.6-12.9 s; seed-drawn replicates
#: would spread the runs far beyond any bound at this run length
CROSSVAL_SEED = 0
CROSSVAL_METHODS = ("rejection", "loclinear", "neuralnet")
CROSSVAL_EPSILONS = (0.01, 0.005, 0.001)
FIT_METHODS = ("rejection", "loclinear")
FIT_EPSILONS = (0.001, 0.01, 0.1)
FIT_MIN_OPS = 102  # >= 100 samples, so >= 10 lie beyond p90; whole rounds of 6
FIT_TRACE_ROUNDS = 10
COLLAPSE_TOL = 1e-6

DESK_CSV = inputs.INPUT_DIR / "desk_table.csv"
STATE_PATH = inputs.WORK_DIR / "state.json"


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# inputs


def prepare(workload, seed):
    """Write the desk table CSV (once per checkout) and the fit tracks (once
    per seed). The CSV is written by the program's own writer from the
    frozen arrays, so the values are fixed while the file format stays the
    program's."""
    if not DESK_CSV.exists():
        params, summ, resampled = inputs.load_desk_table()
        table = inference.ReferenceTable(
            params=params, summaries=summ, prior=inference.PriorSpec(),
            config=inference.SimConfig(dt=inputs.DT, min_obs=inputs.N_OBS),
            seed=inputs.DESK_SEED, n_resampled=resampled,
        )
        tmp = inputs.INPUT_DIR / f".csv-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        stio.write_reference_table(tmp / DESK_CSV.name, table)
        os.replace(tmp / DESK_CSV.with_suffix(".json").name, DESK_CSV.with_suffix(".json"))
        os.replace(tmp / DESK_CSV.name, DESK_CSV)
        tmp.rmdir()
    if workload == "fit":
        inputs.ensure_tracks(seed)


def input_digests(workload, seed):
    digests = {
        "desk_table_arrays": inputs.DESK_TABLE_SHA256,
        "desk_table_csv": inputs.file_digest(DESK_CSV),
    }
    if workload == "fit":
        digests["fit_tracks"] = inputs.file_digest(inputs.tracks_path(seed))
    if workload == "reftable":
        digests["reftable_seed"] = seed
    return digests


def load_fit_tracks(seed):
    _, positions, counts = inputs.load_tracks(seed)
    return [movement.ObservedTrack(dt=inputs.DT, positions=p, change_counts=c)
            for p, c in zip(positions, counts)]


# ---------------------------------------------------------------------------
# requests


class Scratch:
    """Fresh output directories for one run; removed when the run ends."""

    def __init__(self):
        self.root = inputs.WORK_DIR / "runs" / str(os.getpid())
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.count = 0

    def fresh(self, label):
        self.count += 1
        return self.root / f"{label}-{self.count:04d}"

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def run_cli(argv):
    """(exit code, wall s) of one in-process `stepturn` command."""
    captured = textio.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except Exception:  # an uncaught error is a failed request, not a crash
        log(traceback.format_exc())
        code = -1
    return code, time.perf_counter() - started


def reftable_request(scratch, seed, workers):
    out = scratch.fresh(f"reftable-w{workers}")
    code, wall = run_cli([
        "reftable", "--n-sims", str(REFTABLE_ROWS), "--shard-size", str(REFTABLE_SHARD),
        "--seed", str(seed), "--workers", str(workers), "--out", str(out),
    ])
    digest = inputs.file_digest(out / "table.csv") if code == 0 else None
    return {"code": code, "wall": wall, "digest": digest, "out": out,
            "ops": REFTABLE_ROWS}


def crossval_request(scratch, workers):
    out = scratch.fresh(f"crossval-w{workers}")
    code, wall = run_cli([
        "crossval", "--table", str(DESK_CSV),
        "--methods", *CROSSVAL_METHODS,
        "--epsilons", *(str(e) for e in CROSSVAL_EPSILONS),
        "--n-rep", str(CROSSVAL_REPS), "--seed", str(CROSSVAL_SEED),
        "--workers", str(workers), "--out", str(out),
    ])
    digest, records = None, 0
    if code == 0:
        csv_path = out / "crossval.csv"
        digest = inputs.file_digest(csv_path)
        with open(csv_path) as handle:
            records = sum(1 for _ in handle) - 1
    return {"code": code, "wall": wall, "digest": digest, "records": records, "out": out,
            "ops": CROSSVAL_REPS * len(CROSSVAL_METHODS) * len(CROSSVAL_EPSILONS)}


def fit_operation(table, track, method, epsilon):
    """One fit operation; returns (latency s, problems found by the checks)."""
    started = time.perf_counter()
    try:
        s_obs = summaries.summarize(track).as_array()
        post = inference.fit(table, s_obs, method, epsilon)
        stats = [(inference.weighted_quantile(post, k, 0.5),
                  inference.hpd_interval(post, k, 0.95)) for k in (0, 1)]
    except Exception:  # an error is a failed operation; the loop goes on
        log(traceback.format_exc())
        return time.perf_counter() - started, ["raised"]
    latency = time.perf_counter() - started
    problems = []
    if not np.all(np.isfinite(post.draws)):
        problems.append("non-finite draws")
    if abs(float(np.sum(post.weights)) - 1.0) > 1e-12:
        problems.append("weights do not sum to 1")
    for median, (lo, hi) in stats:
        if not lo <= median <= hi:
            problems.append(f"median {median} outside HPD [{lo}, {hi}]")
    return latency, problems


def fit_round(index, n_tracks):
    """One round: every (method, epsilon) on one track, cycling the tracks."""
    return [(index % n_tracks, m, e) for m in FIT_METHODS for e in FIT_EPSILONS]


# ---------------------------------------------------------------------------
# checks shared across runs of one checkout


class SteadyDigests:
    """First digest seen for each key in this checkout; later runs must match."""

    def __init__(self):
        self.seen = json.loads(STATE_PATH.read_text()) if STATE_PATH.exists() else {}

    def expected(self, key, fallback):
        return self.seen.get(key, fallback)

    def record(self, key, digest):
        if digest is not None and key not in self.seen:
            self.seen[key] = digest
            tmp = STATE_PATH.with_name(f".state-{os.getpid()}.json")
            tmp.write_text(json.dumps(self.seen, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, STATE_PATH)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(latencies_s, ops, loop_wall):
    ms = [1e3 * v for v in latencies_s]
    return {
        "ops_per_s": ops / loop_wall,
        "request_p50_ms": statistics.median(ms),
        "request_p90_ms": p90(ms),
    }


# ---------------------------------------------------------------------------
# untraced closed loops


def closed_loop(issue, seconds):
    """Issue requests back to back until ``seconds`` have passed."""
    done = []
    started = time.perf_counter()
    while not done or time.perf_counter() - started < seconds:
        done.append(issue())
    return done, time.perf_counter() - started


def loop_reftable(seed, seconds, scratch, steady):
    timed, wall = closed_loop(lambda: reftable_request(scratch, seed, WORKERS), seconds)
    rss = peak_rss_mb()
    reference = reftable_request(scratch, seed, 1)
    key = f"reftable:seed={seed}:rows={REFTABLE_ROWS}"
    expected = steady.expected(key, reference["digest"])
    steady.record(key, reference["digest"])
    requests = timed + [reference]
    failed = sum(1 for r in requests if r["code"] != 0 or r["digest"] != expected)
    ok = [r for r in timed if r["code"] == 0 and r["digest"] == expected]
    metrics = latency_metrics([r["wall"] for r in timed], sum(r["ops"] for r in ok), wall)
    metrics["peak_rss_mb"] = rss
    samples = {"requests_timed": len(timed), "rows_per_request": REFTABLE_ROWS,
               "table_digest": expected, "one_worker_digest": reference["digest"]}
    return len(requests), failed, metrics, {"samples": samples}


def crossval_ok(request, expected):
    return (request["code"] == 0 and request["digest"] == expected
            and request["records"] == request["ops"] * 2)


def loop_crossval(seconds, scratch, steady):
    timed, wall = closed_loop(lambda: crossval_request(scratch, WORKERS), seconds)
    rss = peak_rss_mb()
    key = f"crossval:seed={CROSSVAL_SEED}:reps={CROSSVAL_REPS}"
    first = next((r["digest"] for r in timed if r["digest"]), None)
    expected = steady.expected(key, first)
    steady.record(key, first)
    failed = sum(1 for r in timed if not crossval_ok(r, expected))
    ok = [r for r in timed if crossval_ok(r, expected)]
    metrics = latency_metrics([r["wall"] for r in timed], sum(r["ops"] for r in ok), wall)
    metrics["peak_rss_mb"] = rss
    samples = {"requests_timed": len(timed), "fits_per_request": timed[0]["ops"],
               "crossval_csv_digest": expected}
    return len(timed), failed, metrics, {"samples": samples}


def run_fit_plan(table, tracks, plan):
    latencies, failed = [], 0
    for track_index, method, epsilon in plan:
        latency, problems = fit_operation(table, tracks[track_index], method, epsilon)
        latencies.append(latency)
        if problems:
            log(f"fit check failed (track {track_index}, {method}, {epsilon}): {problems}")
            failed += 1
    return latencies, failed


def loop_fit(table, tracks, seconds):
    latencies, failed, rounds = [], 0, 0
    started = time.perf_counter()
    while len(latencies) < FIT_MIN_OPS or time.perf_counter() - started < seconds:
        lat, bad = run_fit_plan(table, tracks, fit_round(rounds, len(tracks)))
        latencies += lat
        failed += bad
        rounds += 1
    wall = time.perf_counter() - started
    attempted = len(latencies)
    metrics = latency_metrics(latencies, attempted - failed, wall)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return attempted, failed, metrics, {"samples": {"operations": attempted, "rounds": rounds}}


# ---------------------------------------------------------------------------
# traced passes


def install_tracing(tracer):
    install = tracer.install
    install(movement, "simulate_until", "movement",
            tag=lambda args, result: (args[0].lam, len(result.durations)))
    install(movement, "observe", "movement")
    install(summaries, "summarize", "summaries")
    install(inference, "reference_rows", "inference",
            tag=lambda args, result: (args[4] - args[3], result[1]))
    for name in ("summary_scales", "standardized_distances", "abc_reject",
                 "loclinear_adjust", "fit", "weighted_quantile"):
        install(inference, name, "inference")
    install(inference, "neuralnet_adjust", "inference", tag=lambda args, result: args[0].n_draws)
    install(inference, "hpd_interval", "inference", tag=lambda args, result: args[0].n_draws)
    install(inference.ReferenceTable, "without_row", "inference")
    install(nnet, "train", "nnet", tag=lambda args, result: (args[0], args[1], result))
    install(nnet, "loss_and_grad", "nnet", count_only=True)
    install(experiments, "cross_validate", "experiments")
    install(experiments, "coverage_pvalue", "experiments")
    for name in ("read_reference_table", "write_reference_table", "write_crossval_csv",
                 "sha256_file", "append_manifest", "write_sidecar"):
        install(stio, name, "io")
    install(cli, "main", "cli")


def traced(pass_fn):
    """Run ``pass_fn`` under the tracer; returns (tracer, wall s, result)."""
    tracer = Tracer()
    install_tracing(tracer)
    try:
        started = time.perf_counter()
        result = pass_fn()
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return tracer, wall, result


def mean_ms(spans, self_s=None):
    if not spans:
        return 0.0
    if self_s is None:
        return 1e3 * float(np.mean([s.duration for s in spans]))
    return 1e3 * float(np.mean([self_s[id(s)] for s in spans]))


def percentile_ms(spans, q):
    return 1e3 * float(np.percentile([s.duration for s in spans], q)) if spans else 0.0


def collapsed(span):
    x, y, (flat, shapes) = span.tag
    y = np.asarray(y, dtype=float).reshape(len(x), -1)
    fitted = nnet.predict(flat, shapes, np.asarray(x, dtype=float))
    return bool(np.all(np.std(fitted, axis=0) <= COLLAPSE_TOL * np.std(y, axis=0)))


def per(count, base):
    return count / base if base else 0.0


def layer_metrics(tracer, wall, untraced_wall, observations, pool, table_bytes):
    """Every per-layer metric from one traced pass (0 where a layer is idle)."""
    named = tracer.named
    self_s = tracer.self_times()
    m = {}

    sims = named("movement.simulate_until")
    for key, (lo, hi) in {"lam_0_5": (0, 5), "lam_5_25": (5, 25),
                          "lam_25_50": (25, np.inf)}.items():
        m[f"movement.simulate_until_ms.{key}"] = mean_ms([s for s in sims if lo <= s.tag[0] < hi])
    m["movement.observe_ms"] = mean_ms(named("movement.observe"))
    m["movement.steps_per_row"] = per(sum(s.tag[1] for s in sims), len(sims))
    m["summaries.summarize_ms"] = mean_ms(named("summaries.summarize"))
    row_spans = named("inference.reference_rows")
    rows = sum(s.tag[0] for s in row_spans)
    m["inference.reference_rows_ms_per_row"] = per(
        1e3 * sum(s.duration for s in row_spans), rows)
    m["inference.resampled_ratio"] = per(sum(s.tag[1] for s in row_spans), rows)
    m["cli.reftable_pool_efficiency"] = pool.get("reftable", 0.0)
    m["experiments.crossval_pool_efficiency"] = pool.get("crossval", 0.0)

    scales = named("inference.summary_scales")
    rejects = named("inference.abc_reject")
    fits = named("inference.fit")
    m["inference.summary_scales_ms"] = mean_ms(scales)
    m["inference.summary_scales_calls_per_obs"] = per(len(scales), observations)
    m["inference.standardized_distances_self_ms"] = mean_ms(
        named("inference.standardized_distances"), self_s)
    m["inference.abc_reject_self_ms"] = mean_ms(rejects, self_s)
    m["inference.reject_passes_per_obs"] = per(len(rejects), observations)
    m["inference.without_row_ms"] = mean_ms(named("inference.without_row"))
    m["inference.loclinear_adjust_ms"] = mean_ms(named("inference.loclinear_adjust"))
    nets = named("inference.neuralnet_adjust")
    for size in (100, 500, 1000):
        m[f"inference.neuralnet_adjust_ms.m{size}"] = mean_ms([s for s in nets if s.tag == size])
    trains = named("nnet.train")
    m["nnet.train_ms.p50"] = percentile_ms(trains, 50)
    m["nnet.train_ms.p90"] = percentile_ms(trains, 90)
    m["nnet.loss_and_grad_calls_per_train"] = per(
        sum(tracer.calls_in("nnet.loss_and_grad", s) for s in trains), len(trains))
    m["nnet.collapsed_ratio"] = per(sum(collapsed(s) for s in trains), len(trains))
    hpd = named("inference.hpd_interval")
    m["inference.weighted_quantile_ms"] = mean_ms(named("inference.weighted_quantile"))
    for size in (100, 10000):
        m[f"inference.hpd_interval_ms.m{size}"] = mean_ms([s for s in hpd if s.tag == size])
    m["inference.hpd_calls_per_fit"] = per(len(hpd), len(fits))
    m["experiments.coverage_pvalue_ms"] = mean_ms(named("experiments.coverage_pvalue"))

    m["io.write_reference_table_ms"] = mean_ms(named("io.write_reference_table"))
    m["io.table_csv_bytes"] = table_bytes
    m["io.sha256_file_ms"] = mean_ms(named("io.sha256_file"))
    m["io.sha256_file_calls"] = len(named("io.sha256_file"))
    m["io.read_reference_table_ms"] = mean_ms(named("io.read_reference_table"))
    m["io.write_crossval_csv_ms"] = mean_ms(named("io.write_crossval_csv"))

    per_layer, uncovered, residual, consistent = tracer.layer_report(wall)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * per_layer[layer]
    m["trace.uncovered_ms"] = 1e3 * uncovered
    m["trace.wall_ms"] = 1e3 * wall
    m["trace.overhead_ratio"] = wall / untraced_wall - 1.0
    check = {"consistent": consistent, "residual_ms": 1e3 * residual,
             "layer_self_ms_sum": 1e3 * sum(per_layer.values()), "uncovered_ms": 1e3 * uncovered,
             "wall_ms": 1e3 * wall}
    samples = {"nnet_trainings": len(trains), "fits": len(fits), "spans": len(tracer.spans),
               "simulated_rows": len(sims), "observations": observations}
    return m, {"self_check": check, "samples": samples}


def trace_command(request, digest_of):
    """Untraced 2-worker, untraced 1-worker and traced 1-worker runs of one command."""
    two = request(WORKERS)
    one = request(1)
    tracer, wall, traced_req = traced(lambda: request(1))
    requests = [two, one, traced_req]
    expected = digest_of(two)
    failed = sum(1 for r in requests if r["code"] != 0 or digest_of(r) != expected)
    return tracer, wall, requests, failed, one["wall"] / (2.0 * two["wall"])


def trace_reftable(seed, scratch, steady):
    tracer, wall, requests, failed, efficiency = trace_command(
        lambda w: reftable_request(scratch, seed, w), lambda r: r["digest"])
    key = f"reftable:seed={seed}:rows={REFTABLE_ROWS}"
    if steady.expected(key, requests[0]["digest"]) != requests[0]["digest"]:
        failed = len(requests)
    steady.record(key, requests[0]["digest"])
    traced_req = requests[2]
    table_bytes = (traced_req["out"] / "table.csv").stat().st_size if traced_req["code"] == 0 else 0
    metrics, extra = layer_metrics(tracer, wall, requests[1]["wall"], 0,
                                   {"reftable": efficiency}, table_bytes)
    return len(requests), failed, metrics, extra


def trace_crossval(scratch, steady):
    tracer, wall, requests, failed, efficiency = trace_command(
        lambda w: crossval_request(scratch, w),
        lambda r: r["digest"] if r["records"] == r["ops"] * 2 else None)
    key = f"crossval:seed={CROSSVAL_SEED}:reps={CROSSVAL_REPS}"
    if steady.expected(key, requests[0]["digest"]) != requests[0]["digest"]:
        failed = len(requests)
    steady.record(key, requests[0]["digest"])
    metrics, extra = layer_metrics(tracer, wall, requests[1]["wall"], CROSSVAL_REPS,
                                   {"crossval": efficiency}, DESK_CSV.stat().st_size)
    return len(requests), failed, metrics, extra


def trace_fit(tracks):
    plan = [op for r in range(FIT_TRACE_ROUNDS) for op in fit_round(r, len(tracks))]

    def one_pass():
        table = stio.read_reference_table(DESK_CSV)
        return run_fit_plan(table, tracks, plan)

    started = time.perf_counter()
    _, failed_untraced = one_pass()
    untraced_wall = time.perf_counter() - started
    tracer, wall, (_, failed_traced) = traced(one_pass)
    metrics, extra = layer_metrics(tracer, wall, untraced_wall, len(plan), {},
                                   DESK_CSV.stat().st_size)
    return 2 * len(plan), failed_untraced + failed_traced, metrics, extra


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("reftable", "crossval", "fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help="build inputs and exit")
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)
    if args.prepare:
        prepare(args.workload, args.seed)
        return 0

    # set-up: everything before the first timed request
    table = tracks = None
    if args.workload == "reftable":
        inference.reference_rows(inference.PriorSpec(), inference.SimConfig(), args.seed, 0, 1)
    elif args.workload == "crossval":
        if not DESK_CSV.exists():
            raise FileNotFoundError(DESK_CSV)
    else:
        table = stio.read_reference_table(DESK_CSV)
        tracks = load_fit_tracks(args.seed)
        fit_operation(table, tracks[0], FIT_METHODS[0], FIT_EPSILONS[0])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    scratch = Scratch()
    steady = SteadyDigests()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": input_digests(args.workload, args.seed)}
    runs = {
        ("reftable", 0): lambda: loop_reftable(args.seed, args.seconds, scratch, steady),
        ("crossval", 0): lambda: loop_crossval(args.seconds, scratch, steady),
        ("fit", 0): lambda: loop_fit(table, tracks, args.seconds),
        ("reftable", 1): lambda: trace_reftable(args.seed, scratch, steady),
        ("crossval", 1): lambda: trace_crossval(scratch, steady),
        ("fit", 1): lambda: trace_fit(tracks),
    }
    try:
        attempted, failed, metrics, extra = runs[(args.workload, args.trace)]()
    finally:
        scratch.close()
    consistent = extra.get("self_check", {}).get("consistent", True)
    result.update(extra, attempted=attempted, failed=failed, metrics=metrics,
                  correct=failed == 0 and consistent)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
