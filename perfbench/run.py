"""stepturn benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload {reftable,crossval,fit} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the traced passes and reports the per-layer
metrics. Every metric is printed by name and unit on stderr, the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``, and the
full result (environment, input digests, sample counts, checks, layer
predictions) is written under ``perfbench/_work/results/``.

This launcher pins BLAS to one thread in every process it starts (two pool
workers on two cores would otherwise each start two OpenBLAS threads),
builds the fixed inputs on first use, and measures set-up time as the
median over fresh processes. It exits non-zero without a result when the
package sources are missing or a measuring process fails or times out.

Every process the benchmark starts ends before the launcher does: the
launcher is a child subreaper, so orphaned pool workers or helpers of its
children are re-parented to it, and after each child it kills and reaps
whatever is left below it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINNING)  # before numpy loads, here and in every child

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import design  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 880.0
PR_SET_CHILD_SUBREAPER = 36


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def become_subreaper():
    """Have orphaned descendants re-parented to this process, not to init."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchmarkError(f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")


def own_children():
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        with contextlib.suppress(FileNotFoundError):
            pids.update(int(pid) for pid in (task / "children").read_text().split())
    return pids


def stop_descendants():
    """Kill and reap every process still below this one.

    Killing a child re-parents its own children here, so repeat until
    none is left.
    """
    while children := own_children():
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def run_step(cmd, deadline):
    """Run one input-building process to its end; its output goes to stderr."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"input step timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop_descendants()
    if code != 0:
        raise BenchmarkError(f"input step exited with {code}: {' '.join(cmd)}")


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
        else:
            commit = ref
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_PINNING,
        "commit": commit or "unknown (not a git checkout)",
    }


def measure_cmd(args, *extra):
    return [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def run_measuring(cmd, deadline):
    """Start one measuring process; returns (set-up s, last stdout line).

    Set-up time runs from the start of the process to its ``ready`` line.
    The process is killed if it outlives ``deadline``.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready_at, lines, buffer = None, [], ""
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchmarkError(f"measuring process timed out: {' '.join(cmd)}")
            readable, _, _ = select.select([proc.stdout], [], [], min(remaining, 1.0))
            if not readable:
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16).decode()
            if not chunk:
                break
            buffer += chunk
            *complete, buffer = buffer.split("\n")
            for line in complete:
                if line == "ready" and ready_at is None:
                    ready_at = time.perf_counter()
                lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        stop_descendants()
    if buffer:
        lines.append(buffer)
    if code != 0 or ready_at is None:
        raise BenchmarkError(f"measuring process exited with {code}: {' '.join(cmd)}")
    return ready_at - started, lines[-1]


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(design.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=design.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stepturn" / "__init__.py").is_file():
        raise BenchmarkError(f"package sources not found under {ROOT / 'src'}")

    started = time.perf_counter()
    limit = RUN_LIMIT_S
    if not inputs.desk_table_path().exists():
        print("building the fixed desk table (first run in this checkout)", file=sys.stderr)
        limit = BUILD_LIMIT_S
        run_step([sys.executable, str(HERE / "inputs.py")], started + limit)
    deadline = started + limit
    desk_csv = inputs.INPUT_DIR / "desk_table.csv"
    if not desk_csv.exists() or (args.workload == "fit"
                                 and not inputs.tracks_path(args.seed).exists()):
        run_step(measure_cmd(args, "--prepare"), deadline)

    setup_s, last = run_measuring(measure_cmd(args), deadline)
    result = json.loads(last)
    metrics = result["metrics"]
    if not args.trace:
        samples = [setup_s] + [run_measuring(measure_cmd(args, "--setup-only"), deadline)[0]
                               for _ in range(SETUP_SAMPLES - 1)]
        result["setup_samples_s"] = samples
        metrics["setup_s"] = statistics.median(samples)
        wanted = [m["name"] for m in design.END_TO_END]
        units = {m["name"]: m["unit"] for m in design.END_TO_END}
        result["definitions"] = {m["name"]: m["about"] for m in design.END_TO_END}
    else:
        wanted = [name for name, *_ in design.PER_LAYER]
        units = {name: unit for name, unit, *_ in design.PER_LAYER}
        result["predictions"] = design.prediction_table()
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchmarkError(f"measuring process did not report {missing}")

    result["environment"] = environment()
    result["excluded"] = design.EXCLUDED
    out_dir = inputs.WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")

    summary = {name: {"value": metrics[name], "unit": units[name]} for name in wanted}
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"correct {result['correct']}; full result in {out.relative_to(ROOT)}",
          file=sys.stderr)
    print_metrics({n: metrics[n] for n in wanted}, units)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": summary}))
    return 0


def on_signal(signum, _frame):
    raise BenchmarkError(f"stopped by signal {signum}")


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        become_subreaper()
        sys.exit(main())
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
    finally:
        stop_descendants()
