"""The benchmark's design: workloads, metrics, bounds and layer predictions.

This module is the one source of the metric names the benchmark prints.
``python3 perfbench/design.py`` writes ``BENCHMARK.json`` at the repository
root from it; the predictions and exclusions below, which that file has no
keys for, travel with every result file instead.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

WORKLOADS = {
    "reftable": (
        "The only workload that simulates at scale: movement and summaries do nearly "
        "all the work and shards and the table CSV are written. Row cost rises ~18x "
        "across the lambda prior."
    ),
    "crossval": (
        "Nine fits (3 methods x 3 eps) share each held-out row, where one shared "
        "rejection pass would act; the network is ~80% of the time. Nothing is "
        "simulated."
    ),
    "fit": (
        "One process, one track at a time: summarize, rejection or loclinear fit, "
        "median and HPD. No network, no pool; MAD scales, distances and sort "
        "dominate each operation."
    ),
}

#: a request is what the client waits on: a `stepturn reftable` command, a
#: `stepturn crossval` command, or one fit operation
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "about": "process start to ready (imports, input load, warm-up); median of 3 fresh processes"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "about": "rows/s on reftable (incl. shard and table CSV writes), (replicate x method x eps) "
              "fits/s on crossval (incl. median, HPD, p-value, CSV), fit operations/s on fit"},
    {"name": "request_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "about": "median request latency"},
    {"name": "request_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "about": "90th-percentile request latency; a tail estimate on fit (>= 102 samples), "
              "the slowest of 1-3 commands on reftable and crossval"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05,
     "about": "larger of the measuring process's and its pool children's peak RSS"},
]

R = "ops_per_s@reftable"
C = "ops_per_s@crossval"
F50 = "request_p50_ms@fit"
F90 = "request_p90_ms@fit"
S = "setup_s@fit"

#: (name, unit, better, end-to-end metrics it should move, prediction note)
PER_LAYER = [
    ("movement.simulate_until_ms.lam_0_5", "ms", "lower", [R], "no change on crossval"),
    ("movement.simulate_until_ms.lam_5_25", "ms", "lower", [R], "no change on crossval"),
    ("movement.simulate_until_ms.lam_25_50", "ms", "lower", [R], "no change on crossval"),
    ("movement.observe_ms", "ms", "lower", [R], "no change on crossval"),
    ("movement.steps_per_row", "count", "lower", [R], "input property; moves only with the random stream"),
    ("summaries.summarize_ms", "ms", "lower", [R], "no visible change on fit (~0.5% of an operation)"),
    ("inference.reference_rows_ms_per_row", "ms", "lower", [R], ""),
    ("inference.resampled_ratio", "ratio", "lower", [R], "resampled draws / rows"),
    ("cli.reftable_pool_efficiency", "ratio", "higher", [R],
     "untraced 1-worker wall / (2 x untraced 2-worker wall)"),
    ("experiments.crossval_pool_efficiency", "ratio", "higher", [C],
     "untraced 1-worker wall / (2 x untraced 2-worker wall)"),
    ("inference.summary_scales_ms", "ms", "lower", [F50, C], ""),
    ("inference.summary_scales_calls_per_obs", "count", "lower", [F50, C], "2 per fit today"),
    ("inference.standardized_distances_self_ms", "ms", "lower", [F50, C], ""),
    ("inference.abc_reject_self_ms", "ms", "lower", [F50, C], "sort and copies"),
    ("inference.reject_passes_per_obs", "count", "lower", [C], "9 on crossval, 1 on fit today"),
    ("inference.without_row_ms", "ms", "lower", [C], ""),
    ("inference.loclinear_adjust_ms", "ms", "lower", [F50], ""),
    ("inference.neuralnet_adjust_ms.m100", "ms", "lower", [C], "no change on fit or reftable"),
    ("inference.neuralnet_adjust_ms.m500", "ms", "lower", [C], "no change on fit or reftable"),
    ("inference.neuralnet_adjust_ms.m1000", "ms", "lower", [C], "no change on fit or reftable"),
    ("nnet.train_ms.p50", "ms", "lower", [C], "no change on fit or reftable"),
    ("nnet.train_ms.p90", "ms", "lower", [C], "no change on fit or reftable"),
    ("nnet.loss_and_grad_calls_per_train", "count", "lower", [C], ""),
    ("nnet.collapsed_ratio", "ratio", "lower", [],
     "correctness ratio: trainings whose fitted outputs are constant; not a speed metric"),
    ("inference.weighted_quantile_ms", "ms", "lower", [F90, C], ""),
    ("inference.hpd_interval_ms.m100", "ms", "lower", [F90, C], ""),
    ("inference.hpd_interval_ms.m10000", "ms", "lower", [F90], "only fit reaches 1e4 accepted draws"),
    ("inference.hpd_calls_per_fit", "count", "lower", [F90, C], "4 per fit on crossval today"),
    ("experiments.coverage_pvalue_ms", "ms", "lower", [C], ""),
    ("io.write_reference_table_ms", "ms", "lower", [R], ""),
    ("io.table_csv_bytes", "bytes", "lower", [R], "computed: size of the table CSV written or read"),
    ("io.sha256_file_ms", "ms", "lower", [R], ""),
    ("io.sha256_file_calls", "count", "lower", [R], ""),
    ("io.read_reference_table_ms", "ms", "lower", [S, C], ""),
    ("io.write_crossval_csv_ms", "ms", "lower", [C], ""),
    ("movement.self_ms", "ms", "lower", [R], "layer self time over the traced pass"),
    ("summaries.self_ms", "ms", "lower", [R], "layer self time over the traced pass"),
    ("inference.self_ms", "ms", "lower", [F50, C], "layer self time over the traced pass"),
    ("nnet.self_ms", "ms", "lower", [C], "layer self time over the traced pass"),
    ("experiments.self_ms", "ms", "lower", [C], "layer self time over the traced pass"),
    ("io.self_ms", "ms", "lower", [R, C, S], "layer self time over the traced pass"),
    ("cli.self_ms", "ms", "lower", [R, C], "layer self time over the traced pass"),
    ("trace.uncovered_ms", "ms", "lower", [],
     "traced wall time no span covers (benchmark loop, checks)"),
    ("trace.wall_ms", "ms", "lower", [], "traced pass wall time; layer self times + uncovered"),
    ("trace.overhead_ratio", "ratio", "lower", [],
     "traced 1-worker wall / untraced 1-worker wall - 1"),
]

EXCLUDED = {
    "rscan": ("not a workload: its traced split (nnet 81%, rejection 19%, simulate + observe "
              "+ summarize < 0.2%) duplicates crossval, so no layer goes unmeasured without it"),
    "crossval eps=0.1": ("left out: one network fit on 1e4 accepted rows takes ~43 s alone, "
                         "longer than a whole run"),
}


def prediction_table():
    return {name: {"unit": unit, "moves": moves, "note": note}
            for name, unit, _, moves, note in PER_LAYER}


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}")
