"""Command-line orchestration of the pipeline.

Subcommands: simulate, observe, summarize, reftable, fit, crossval,
coverage, rscan, directfit, oracle-check. Exit codes: 0 success,
1 validation error (a bad flag or config value, or a malformed input
file: CSV headers must match their schema exactly), 2 runtime error,
3 acceptance-check failure.

Each flag is declared once, with the default ``--help`` shows. ``--seed``
exists where a command draws random numbers and ``--workers`` where it
spreads work over processes (default: $STEPTURN_WORKERS or 1).
``--config`` names a JSON object whose keys the subcommand defines become
its defaults, checked as the flags are (explicit flags win). Every artifact
is recorded in an append-only manifest, and every CSV has a JSON sidecar with
the config that reproduces it: the command's flags less --out, --config,
--workers, --check and --gnuplot, which do not change an artifact's content,
plus the sha256 of the --table a command reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import densities, io
from .errors import (
    DegenerateTrackError,
    ImproperPosteriorError,
    InsufficientPathError,
    SchemaError,
    StepturnError,
    TrackTooShortError,
)
from .experiments import (
    DEFAULT_CONSTRAINT,
    INTERVAL_MASS,
    coverage_report,
    cross_validate,
    direct_fit,
    r_scan,
)
from .inference import (
    METHODS,
    MIN_OBS,
    PARAM_NAMES,
    SIMULATOR_VERSION,
    TRANSFORMS,
    PriorSpec,
    ReferenceTable,
    SimConfig,
    chunk_bounds,
    fit,
    hpd_interval,
    reference_chunks,
    weighted_quantile,
)
from .movement import MovementParams, observe, simulate_until
from .streams import stream
from .summaries import decompose, summarize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3

WORKERS_ENV = "STEPTURN_WORKERS"

# entries of a command's namespace that do not change an artifact's content
# ("started" is the command's start time, which main adds)
UNRECORDED = {"command", "started", "out", "config", "workers", "check", "gnuplot"}

# flags that count rows, replicates, tracks, observations or draws, and
# their floors: at least 1, or the library's own floor
COUNT_FLAGS = {"n_sims": 1, "shard_size": 1, "n_rep": 1, "n_per_cell": 1, "n_obs": 1,
               "min_obs": MIN_OBS, "n_draws": densities.MIN_MC_DRAWS}

# flags that set a walk's kappa or lambda, and the MovementParams field each
# sets: an R of --r-values is lambda * dt, and every dt is > 0
WALK_FLAGS = {"kappa": ("--kappa", "kappa"), "lam": ("--lambda", "lam"),
              "kappa_values": ("--kappa-values", "kappa"), "r_values": ("--r-values", "lam")}


class ValidationError(ValueError):
    """Bad command line or config."""


class CheckFailure(Exception):
    """An acceptance-tagged check failed; exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we want 1
        raise ValidationError(message)


def _add_holdout(p, epsilons, kappa_max, lambda_max):
    """Flags shared by crossval and coverage, which run the same held-out fits."""
    p.add_argument("--table", help="reference table CSV")
    p.add_argument("--methods", nargs="+", default=list(METHODS), choices=METHODS,
                   help="ABC methods")
    p.add_argument("--epsilons", type=float, nargs="+", default=epsilons,
                   help="accepted table fractions")
    p.add_argument("--n-rep", type=int, default=100, help="held-out rows")
    p.add_argument("--kappa-max", type=float, default=kappa_max, help="bound on held-out kappa")
    p.add_argument("--lambda-max", type=float, default=lambda_max, help="bound on held-out lambda")
    p.add_argument("--gnuplot", action="store_true", help="write a companion plot script")


def build_parser():
    parser = _Parser(prog="stepturn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output directory")
    common.add_argument("--config", help="JSON object of defaults for this subcommand")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base seed")
    pooled = _Parser(add_help=False)
    pooled.add_argument("--workers", type=int,
                        help=f"worker processes; unset means ${WORKERS_ENV} or 1")

    def command(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[*parents, common], **kwargs,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = command("simulate", seeded, help="simulate one latent path and its observation")
    p.add_argument("--kappa", type=float, help="turning concentration (required)")
    p.add_argument("--lambda", dest="lam", type=float, help="turn rate (required)")
    p.add_argument("--dt", type=float, default=SimConfig.dt, help="observation interval")
    p.add_argument("--n-obs", type=int, default=SimConfig.min_obs, help="number of observations")

    p = command("observe", help="observe a stored latent path at regular times")
    p.add_argument("--latent", help="latent path CSV")
    p.add_argument("--dt", type=float, default=SimConfig.dt, help="observation interval")
    p.add_argument("--n-obs", type=int, default=SimConfig.min_obs, help="number of observations")

    p = command("summarize", help="summary statistics of a stored track")
    p.add_argument("--track", help="observed track CSV")
    p.add_argument("--dt", type=float, default=SimConfig.dt, help="observation interval")

    p = command("reftable", seeded, pooled, help="generate a prior-predictive reference table")
    p.add_argument("--n-sims", type=int, default=100_000, help="table rows")
    p.add_argument("--kappa-range", type=float, nargs=2, default=PriorSpec.kappa_range,
                   help="prior bounds")
    p.add_argument("--lambda-range", type=float, nargs=2, default=PriorSpec.lambda_range,
                   help="prior bounds")
    p.add_argument("--dt", type=float, default=SimConfig.dt, help="observation interval")
    p.add_argument("--min-obs", type=int, default=SimConfig.min_obs, help="observations per row")
    p.add_argument("--shard-size", type=int, default=1000, help="rows per resumable shard")

    p = command("fit", help="ABC fit of a track or summary against a table")
    p.add_argument("--table", help="reference table CSV")
    p.add_argument("--track", help="observed track CSV (or --summary)")
    p.add_argument("--summary", help="summary CSV (or --track)")
    p.add_argument("--method", default="loclinear", choices=METHODS, help="ABC method")
    p.add_argument("--epsilon", type=float, default=0.001, help="accepted table fraction")
    p.add_argument("--transform", default="none", choices=TRANSFORMS,
                   help="parameter transform for the regression")

    p = command("crossval", seeded, pooled, help="leave-one-out cross validation")
    _add_holdout(p, [0.1, 0.01, 0.005, 0.001], *DEFAULT_CONSTRAINT)
    p.add_argument("--no-constraint", action="store_true",
                   help="draw held-out truths from the whole table (the prior), "
                        "ignoring the bounds")
    p.add_argument("--check", action="store_true",
                   help="exit 3 unless rejection errors shrink with epsilon")

    p = command(
        "coverage", seeded, pooled, help="empirical coverage and uniformity test",
        description="Empirical HPD coverage and the uniformity test of the coverage "
                    "p-values (posterior mass below the truth). Both presume truths "
                    "drawn from the prior, so held-out truths come from the whole "
                    "table unless --kappa-max or --lambda-max bounds them.")
    _add_holdout(p, [0.1, 0.001], None, None)
    p.add_argument("--check", action="store_true",
                   help="exit 3 unless all empirical coverages reach 0.90")

    p = command("rscan", seeded, pooled, help="error scan over the observation-scale ratio R")
    p.add_argument("--table", help="reference table CSV")
    p.add_argument("--r-values", type=float, nargs="+", default=[0.25, 1.0, 4.5],
                   help="ratios R = lambda * dt")
    p.add_argument("--kappa-values", type=float, nargs="+", default=[10.0, 40.0, 70.0],
                   help="true kappa of each cell")
    p.add_argument("--n-per-cell", type=int, default=50, help="tracks per (R, kappa) cell")
    p.add_argument("--methods", nargs="+", default=list(METHODS), choices=METHODS,
                   help="ABC methods")
    p.add_argument("--epsilon", type=float, default=0.001, help="accepted table fraction")
    p.add_argument("--check", action="store_true",
                   help="exit 3 unless errors grow from the smallest to the largest R")
    p.add_argument("--gnuplot", action="store_true", help="write a companion plot script")

    p = command("directfit", help="conjugate/grid fit on a stored latent path")
    p.add_argument("--latent", help="latent path CSV")
    p.add_argument("--a0", type=float, default=1.0, help="Gamma prior shape on lambda")
    p.add_argument("--b0", type=float, default=0.0, help="Gamma prior rate on lambda")
    p.add_argument("--kappa-grid-max", type=float, default=200.0,
                   help="upper end of the kappa grid")

    p = command("oracle-check", seeded, help="density normalization and MC suite")
    p.add_argument("--n-draws", type=int, default=100_000, help="Monte Carlo draws per density")
    return parser


def _parse(argv):
    """Parse ``argv``; a --config object's keys become the subcommand's defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        path = Path(args.config)
        if not path.is_file():  # missing, or a directory
            raise ValidationError(f"--config names no file: {path}" if path.exists()
                                  else f"config file not found: {path}")
        try:
            config = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        subparser = parser.subcommands[args.command]
        try:
            checked = vars(subparser.parse_args(_config_tokens(subparser, config)))
        except ValidationError as exc:
            raise ValidationError(f"config file {path}: {exc}") from None
        # edits flag objects that subcommands share, hence a fresh parser per call
        subparser.set_defaults(**{key: checked[key] for key in config.keys() & checked})
        args = parser.parse_args(argv)
    _check_counts(vars(args))
    return args


def _check_counts(resolved):
    """Refuse a count below its floor, a --dt that is not positive or not
    finite (or spans no finite time over the observation count), a
    --kappa-grid-max that is not positive or not finite, an --epsilon or
    --epsilons value outside (0, 1], or a walk or prior value that
    MovementParams or PriorSpec refuses, each checked with the other fields
    valid."""
    for key, floor in COUNT_FLAGS.items():
        if resolved.get(key, floor) < floor:
            raise ValidationError(
                f"--{key.replace('_', '-')} must be >= {floor}, got {resolved[key]}")
    dt = resolved.get("dt", 1.0)
    if not dt > 0:  # also refuses NaN
        raise ValidationError(f"--dt must be > 0, got {dt}")
    if not np.isfinite(dt):
        raise ValidationError(f"--dt must be finite, got {dt}")
    count = resolved.get("n_obs") or resolved.get("min_obs")
    if count and not np.isfinite(dt * count):
        raise ValidationError(f"--dt {dt} over {count} observations spans no finite time")
    grid_max = resolved.get("kappa_grid_max", 1.0)
    if not 0 < grid_max < np.inf:  # also refuses NaN
        raise ValidationError(f"--kappa-grid-max must be finite and > 0, got {grid_max}")
    for key in ("epsilon", "epsilons"):
        for value in np.atleast_1d(resolved.get(key, 1.0)):
            if not 0 < value <= 1:  # also refuses NaN
                raise ValidationError(f"--{key} must be in (0, 1], got {value}")
    for key, (flag, name) in WALK_FLAGS.items():
        values = resolved.get(key)
        for value in () if values is None else np.atleast_1d(values):
            _owned(flag, MovementParams, **{"kappa": 0.0, "lam": 1.0, name: value})
    for key in ("kappa_range", "lambda_range"):
        if key in resolved:
            _owned(f"--{key.replace('_', '-')}", PriorSpec, **{key: tuple(resolved[key])})


def _owned(flag, owner, **fields):
    """Build ``owner(**fields)``; its ValueError becomes a ValidationError naming ``flag``."""
    try:
        owner(**fields)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _config_tokens(subparser, config):
    """The config values of ``subparser``'s flags as command-line tokens, so
    each value passes its flag's type, choices and nargs checks."""
    tokens = []
    for action in subparser._actions:
        value = config.get(action.dest)
        if value is None or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch
            if not isinstance(value, bool):
                raise ValidationError(f"key {action.dest!r} must be true or false")
            tokens += [flag] * value
        elif isinstance(value, list) != (action.nargs is not None):
            kind = "a single value" if action.nargs is None else "a list"
            raise ValidationError(f"key {action.dest!r} must be {kind}")
        else:
            tokens += [flag, *map(str, value)] if action.nargs else [f"{flag}={value}"]
    return tokens


def _workers(resolved):
    """--workers, else $STEPTURN_WORKERS, else 1; each must be a positive integer."""
    workers = resolved.get("workers")
    if workers is not None:
        if workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return 1
    if not env.isdecimal() or int(env) < 1:
        raise ValidationError(f"${WORKERS_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _out_dir(resolved):
    out = resolved.get("out")
    if out is None:
        raise ValidationError("--out is required for this command")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _input(resolved, key):
    """The path of the required input file named by ``--<key>``."""
    path = resolved.get(key)
    if not path:
        raise ValidationError(f"--{key} is required")
    if not Path(path).is_file():
        raise ValidationError(f"--{key} names no file: {path}")
    return path


def _table(resolved):
    """The reference table named by --table; its sha256 joins the recorded
    config, so an artifact names the table by content as well as by path,
    and keys the table's parsed binary twin (see ``io``)."""
    path = _input(resolved, "table")
    resolved["table_sha256"] = io.sha256_file(path)
    return io.read_reference_table(path, resolved["table_sha256"])


def _recorded_config(resolved):
    """The config an artifact records: the command's values less those that do
    not change its content (UNRECORDED), as JSON values (a tuple default
    becomes a list), so it equals the config read back from ``shards.json``."""
    return json.loads(json.dumps(
        {key: value for key, value in resolved.items() if key not in UNRECORDED}))


def _json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _emit(resolved, name, write, sidecar=True):
    """Write the artifact ``name`` into --out, by ``write(path)`` or as the
    text ``write``; give a CSV the command's sidecar unless its writer writes
    its own (``sidecar=False``); and record the artifact in the manifest.
    Returns the manifest record."""
    out_dir = _out_dir(resolved)
    path = out_dir / name
    if callable(write):
        write(path)
    else:
        path.write_text(write)
    command, config = resolved["command"], _recorded_config(resolved)
    if sidecar and path.suffix == ".csv":
        io.write_sidecar(path, command, config)
    return io.append_manifest(out_dir, path, command, config,
                              time.monotonic() - resolved["started"])


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_simulate(args):
    resolved = vars(args)
    if resolved["kappa"] is None or resolved["lam"] is None:
        raise ValidationError("simulate requires --kappa and --lambda")
    out = _out_dir(resolved)
    params = MovementParams(kappa=resolved["kappa"], lam=resolved["lam"])
    rng = stream(resolved["seed"], 0)
    path = simulate_until(params, resolved["n_obs"] * resolved["dt"], rng)
    track = observe(path, resolved["dt"], resolved["n_obs"])
    _emit(resolved, "latent.csv", lambda p: io.write_latent_csv(p, path))
    _emit(resolved, "track.csv", lambda p: io.write_track_csv(p, track))
    print(f"wrote {out / 'latent.csv'} ({path.n_steps} steps) and "
          f"{out / 'track.csv'} ({track.n_obs} observations)")
    return EXIT_OK


def cmd_observe(args):
    resolved = vars(args)
    path = _input(resolved, "latent")
    try:
        track = observe(io.read_latent_csv(path), resolved["dt"], resolved["n_obs"])
    except InsufficientPathError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    out = _out_dir(resolved)
    _emit(resolved, "track.csv", lambda p: io.write_track_csv(p, track))
    print(f"wrote {out / 'track.csv'} ({track.n_obs} observations)")
    return EXIT_OK


def _track_summaries(resolved, dt):
    """The --track and its summaries; undefined ones are a SchemaError naming the file."""
    path = _input(resolved, "track")
    track = io.read_track_csv(path, dt)
    try:
        return track, summarize(track)
    except (TrackTooShortError, DegenerateTrackError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _design_summaries(resolved, sim):
    """The --track's summaries; a SchemaError naming the file unless the track
    has a table row's ``sim.min_obs`` observations and, at unit speed, no step
    longer than ``sim.dt`` beyond rounding (3.3e-13 relative at most on 300
    simulated tracks: kappa 0 to 1e6, lambda 0.01 to 49, dt 0.25 to 2). A
    finer interval than the table's cannot be seen this way."""
    track, summary = _track_summaries(resolved, sim.dt)
    longest = float(decompose(track).step_lengths.max())
    if track.n_obs != sim.min_obs or longest > sim.dt * (1 + 1e-9):
        raise SchemaError(f"{resolved['track']}: {track.n_obs} observations, steps up to "
                          f"{longest}; the table's rows: {sim.min_obs}, dt {sim.dt}")
    return summary


def cmd_summarize(args):
    resolved = vars(args)
    _, summary = _track_summaries(resolved, resolved["dt"])
    print(",".join(io.SUMMARY_HEADER))
    print(",".join(io.fmt(v) for v in summary.as_array()))
    if resolved["out"]:
        _emit(resolved, "summary.csv", lambda p: io.write_summary_csv(p, summary))
    return EXIT_OK


def cmd_reftable(args):
    resolved = vars(args)
    workers = _workers(resolved)
    out = _out_dir(resolved)
    prior = PriorSpec(tuple(resolved["kappa_range"]), tuple(resolved["lambda_range"]))
    sim = SimConfig(dt=resolved["dt"], min_obs=resolved["min_obs"])
    table = _sharded_reftable(out, prior, sim, resolved, workers)
    record = _emit(resolved, "table.csv", lambda p: io.write_reference_table(p, table),
                   sidecar=False)
    print(f"wrote {out / 'table.csv'}: {table.n_rows} rows, "
          f"{table.n_resampled} resampled, digest {record['sha256'][:12]}")
    return EXIT_OK


def _sharded_reftable(out, prior, sim, resolved, workers):
    """Resumable shard-by-shard generation with digest verification."""
    n_sims, shard_size, seed = resolved["n_sims"], resolved["shard_size"], resolved["seed"]
    config = _recorded_config(resolved)
    shard_dir = out / "shards"
    shard_dir.mkdir(exist_ok=True)
    state_path = shard_dir / "shards.json"
    state = {"config": config, "simulator_version": SIMULATOR_VERSION, "shards": {}}
    if state_path.exists():
        # the sidecar checks; the .json file's sidecar is itself
        previous = io.read_sidecar(state_path, {"shards": io.SHARD_RECORDS})
        version = previous.get("simulator_version")
        if version != SIMULATOR_VERSION:
            raise ValidationError(
                f"existing shards in {shard_dir} were built by simulator version "
                f"{version}, this is version {SIMULATOR_VERSION}; remove them or change --out"
            )
        if previous.get("config") != config:
            raise ValidationError(
                f"existing shards in {shard_dir} were built with a different config; "
                "remove them or change --out"
            )
        state = previous
    bounds = chunk_bounds(n_sims, shard_size)
    names = [f"shard_{index:05d}.npz" for index in range(len(bounds))]
    pending = []
    for name, span in zip(names, bounds):
        path = shard_dir / name
        record = state["shards"].get(name)
        if record is not None and path.exists():
            digest = io.sha256_file(path)
            if digest != record["sha256"]:
                raise RuntimeError(
                    f"shard digest mismatch on resume: {path} has {digest[:12]}, "
                    f"manifest says {record['sha256'][:12]}; refusing to reuse it"
                )
            continue
        pending.append((name, span))

    done = len(bounds) - len(pending)
    chunks = reference_chunks(prior, sim, seed, [span for _, span in pending], workers)
    # chunks arrive in shard order, so each finished shard checkpoints at once
    for (rows, resamples), (name, _) in zip(chunks, pending):
        path = shard_dir / name
        np.savez(path, rows=rows, resamples=resamples)
        state["shards"][name] = {"sha256": io.sha256_file(path), "rows": len(rows)}
        state_path.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n")
        done += 1
        print(f"shard {name}: {len(rows)} rows ({done}/{len(bounds)})", flush=True)
    all_rows, total_resamples = [], 0
    for name in names:
        with np.load(shard_dir / name) as data:
            all_rows.append(data["rows"])
            total_resamples += int(data["resamples"])
    return ReferenceTable.from_rows(np.vstack(all_rows), prior, sim, seed, total_resamples)


def cmd_fit(args):
    resolved = vars(args)
    table = _table(resolved)
    if bool(resolved["track"]) == bool(resolved["summary"]):
        raise ValidationError("fit requires exactly one of --track or --summary")
    s_obs = (_design_summaries(resolved, table.config) if resolved["track"]
             else io.read_summary_csv(_input(resolved, "summary")))
    _out_dir(resolved)
    posterior = fit(table, s_obs, resolved["method"], resolved["epsilon"],
                    transform=resolved["transform"])
    _emit(resolved, "posterior.csv",
          lambda p: io.write_posterior(p, posterior, _recorded_config(resolved)),
          sidecar=False)
    for name in ("kappa", "lambda"):
        median = weighted_quantile(posterior, name, 0.5)
        lo, hi = hpd_interval(posterior, name, INTERVAL_MASS)
        print(f"{name}: median {median:.6g}, {INTERVAL_MASS:.0%} HPD [{lo:.6g}, {hi:.6g}]")
    return EXIT_OK


def _holdout_run(resolved):
    """The held-out fits of crossval and coverage; an unset bound is no bound."""
    _check_labels(resolved["epsilons"])
    workers = _workers(resolved)
    table = _table(resolved)
    _out_dir(resolved)
    bounds = (resolved["kappa_max"], resolved["lambda_max"])
    constraint = (None if resolved.get("no_constraint")
                  else tuple(np.inf if bound is None else bound for bound in bounds))
    return cross_validate(table, methods=resolved["methods"], epsilons=resolved["epsilons"],
                          n_rep=resolved["n_rep"], constraint=constraint,
                          seed=resolved["seed"], workers=workers)


def cmd_crossval(args):
    resolved = vars(args)
    if resolved["check"]:
        if "rejection" not in resolved["methods"]:
            raise ValidationError("--check compares rejection errors; --methods lacks rejection")
        _check_distinct(resolved, "epsilons")
    report = _holdout_run(resolved)
    _emit(resolved, "crossval.csv", lambda p: io.write_crossval_csv(p, report.records))
    metrics = {}  # in the run order of --methods, --epsilons and parameter
    for cell in product(resolved["methods"], resolved["epsilons"], PARAM_NAMES):
        label = _cell_label(*cell)
        metrics[label] = {
            "prediction_error": report.prediction_error(*cell),
            "md_index": report.md_index(*cell),
        }
        print(f"{label}: error {metrics[label]['prediction_error']:.4g}, "
              f"MD {metrics[label]['md_index']:.4g}")
    _emit(resolved, "crossval_metrics.json", _json(metrics))
    if resolved["gnuplot"]:
        _emit(resolved, "crossval.gp", io.gnuplot_crossval("crossval.csv"))
    if resolved["check"]:
        eps_sorted = sorted(resolved["epsilons"], reverse=True)
        for param in ("kappa", "lambda"):
            coarse = report.prediction_error("rejection", eps_sorted[0], param)
            fine = report.prediction_error("rejection", eps_sorted[-1], param)
            if not coarse > fine:
                raise CheckFailure(
                    f"rejection {param} error at eps={eps_sorted[0]:g} ({coarse:.4g}) "
                    f"does not exceed eps={eps_sorted[-1]:g} ({fine:.4g})"
                )
    return EXIT_OK


def _cell_label(method, epsilon, param):
    """A cell's key in ``crossval_metrics.json`` and ``coverage_summary.json``."""
    return f"{method}:eps={epsilon:g}:{param}"


def _check_labels(epsilons):
    """Refuse two --epsilons that one ``_cell_label`` names: the later cell's
    JSON entry would overwrite the earlier's."""
    named = {}
    for value in epsilons:
        label = f"{value:g}"
        if label in named:
            raise ValidationError(
                f"--epsilons {named[label]!r} and {value!r} share the label eps={label}")
        named[label] = value


def _check_distinct(resolved, key):
    """--check compares the smallest and the largest of the --<key> values."""
    if len(set(resolved[key])) < 2:
        raise ValidationError(f"--check needs two distinct --{key.replace('_', '-')}, "
                              f"got {' '.join(f'{v:g}' for v in resolved[key])}")


def cmd_coverage(args):
    resolved = vars(args)
    crossval = _holdout_run(resolved)
    summary = {_cell_label(*key): entry for key, entry in coverage_report(crossval).items()}
    _emit(resolved, "coverage.csv", lambda p: io.write_crossval_csv(p, crossval.records))
    for label, entry in summary.items():
        print(f"{label}: coverage {entry['empirical_coverage']:.3f}, "
              f"KS p {entry['ks_pvalue']:.3g}, mean p {entry['mean_p']:.3f}")
    _emit(resolved, "coverage_summary.json", _json(summary))
    if resolved["gnuplot"]:
        _emit(resolved, "coverage.gp", io.gnuplot_coverage("coverage.csv"))
    if resolved["check"]:
        for label, entry in summary.items():
            if entry["empirical_coverage"] < 0.90:
                raise CheckFailure(
                    f"{label}: empirical coverage {entry['empirical_coverage']:.3f} < 0.90"
                )
    return EXIT_OK


def cmd_rscan(args):
    resolved = vars(args)
    if resolved["check"]:
        _check_distinct(resolved, "r_values")
    workers = _workers(resolved)
    table = _table(resolved)
    _out_dir(resolved)
    report = r_scan(
        table,
        r_values=resolved["r_values"],
        kappa_values=resolved["kappa_values"],
        n_per_cell=resolved["n_per_cell"],
        methods=resolved["methods"],
        epsilon=resolved["epsilon"],
        seed=resolved["seed"],
        workers=workers,
    )
    _emit(resolved, "rscan.csv", lambda p: io.write_rscan_csv(p, report.records))
    scanned = {record.r_value for record in report.records}
    for method in resolved["methods"]:
        for r_value in resolved["r_values"]:
            if r_value not in scanned:
                print(f"{method}: R={r_value:g} skipped, every cell lies outside the prior")
                continue
            err = report.prediction_error(method, r_value, "lambda")
            print(f"{method}: R={r_value:g} lambda error {err:.4g}")
    if resolved["gnuplot"]:
        _emit(resolved, "rscan.gp", io.gnuplot_rscan("rscan.csv"))
    if resolved["check"]:
        r_lo, r_hi = min(resolved["r_values"]), max(resolved["r_values"])
        for r_value in (r_lo, r_hi):
            if r_value not in scanned:
                raise CheckFailure(
                    f"no records at R={r_value:g}: every cell lies outside the prior")
        for method in resolved["methods"]:
            low = report.prediction_error(method, r_lo, "lambda")
            high = report.prediction_error(method, r_hi, "lambda")
            if not high > low:
                raise CheckFailure(
                    f"{method}: lambda error at R={r_hi:g} ({high:.4g}) does not exceed "
                    f"R={r_lo:g} ({low:.4g})"
                )
    return EXIT_OK


def cmd_directfit(args):
    resolved = vars(args)
    latent = io.read_latent_csv(_input(resolved, "latent"))
    try:
        result = direct_fit(latent.durations, latent.turns, a0=resolved["a0"],
                            b0=resolved["b0"], kappa_grid_max=resolved["kappa_grid_max"])
    except ImproperPosteriorError as exc:
        raise ValidationError(
            f"--a0 {resolved['a0']!r} and --b0 {resolved['b0']!r}: {exc}") from None
    payload = {
        "lambda": {"median": result.lambda_median,
                   "interval": list(result.lambda_interval),
                   "point": result.lambda_point},
        "kappa": {"median": result.kappa_median,
                  "interval": list(result.kappa_interval),
                  "point": result.kappa_point,
                  "at_grid_bound": result.at_grid_bound},
    }
    print(json.dumps(payload, indent=2))
    if resolved["out"]:
        _emit(resolved, "directfit.json", _json(payload))
    return EXIT_OK


ORACLE_SETTINGS = {
    "f_V": [{"kappa": 0.5}, {"kappa": 2.0}, {"kappa": 10.0}],
    "f_Z": [{"kappa": 0.0, "lam": 1.0}, {"kappa": 5.0, "lam": 2.0},
            {"kappa": 20.0, "lam": 0.5}],
    "f_S": [{"kappa": 5.0, "lam": 2.0, "n": 3, "c": 4.0},
            {"kappa": 0.0, "lam": 1.0, "n": 1, "c": 2.0},
            {"kappa": 10.0, "lam": 3.0, "n": 5, "c": 3.0}],
}

# grid, sampler and normalization (called with a setting), normalization tolerance
ORACLE_DENSITIES = {
    "f_V": (densities.f_v_grid, densities.cos_vm_sampler,
            densities.f_v_normalization, 1e-6),
    "f_Z": (densities.f_z_grid, densities.cos_vm_exp_sampler,
            densities.f_z_normalization, 1e-5),
    "f_S": (densities.f_s_grid, densities.cos_vm_shifted_gamma_sampler,
            densities.f_s_normalization, 1e-5),
}


def cmd_oracle_check(args):
    resolved = vars(args)
    _out_dir(resolved)
    n_draws = resolved["n_draws"]
    results = {}
    settings = [(name, index, setting) for name, group in ORACLE_SETTINGS.items()
                for index, setting in enumerate(group)]
    for task, (name, index, setting) in enumerate(settings):  # one stream per setting
        grid_of, sampler_of, normalization_of, norm_tol = ORACLE_DENSITIES[name]
        grid = grid_of(**setting)
        norm = normalization_of(**setting)
        check = densities.density_mc_check(
            grid, sampler_of(**setting), n_draws, stream(resolved["seed"], task))
        label = f"{name}[{index}]"
        ok = check.passed and abs(norm - 1.0) <= norm_tol
        results[label] = {
            "setting": setting,
            "normalization": norm,
            "ks_distance": check.ks_distance,
            "ks_critical": check.critical,
            "passed": ok,
        }
        _emit(resolved, f"density_{name.lower()}_{index}.csv",
              lambda p: io.write_density_grid_csv(p, grid), sidecar=False)
        print(f"{label}: normalization {norm:.8f}, KS {check.ks_distance:.5f} "
              f"(crit {check.critical:.5f}) -> {'pass' if ok else 'FAIL'}")
    _emit(resolved, "oracle_check.json", _json(results))
    failures = [label for label, result in results.items() if not result["passed"]]
    if failures:
        raise CheckFailure("density checks failed: " + ", ".join(failures))
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "observe": cmd_observe,
    "summarize": cmd_summarize,
    "reftable": cmd_reftable,
    "fit": cmd_fit,
    "crossval": cmd_crossval,
    "coverage": cmd_coverage,
    "rscan": cmd_rscan,
    "directfit": cmd_directfit,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None):
    try:
        args = _parse(argv)
        args.started = time.monotonic()  # each manifest duration counts from here
        return COMMANDS[args.command](args)
    except (ValidationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (StepturnError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
