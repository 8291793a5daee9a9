"""File formats: CSV wire schemas, JSON sidecars, digests and the manifest.

Floats are written with 17 significant digits so every file round-trips
bit-exactly. Each artifact gets a JSON sidecar (same stem, ``.json``)
carrying the full producing configuration, and an append-only
``manifest.jsonl`` in the output directory records path, content digest,
command, config digest and wall-clock duration.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .experiments import ReplicateRecord, RScanRecord
from .inference import (
    SIMULATOR_VERSION,
    PriorSpec,
    ReferenceTable,
    SimConfig,
    WeightedPosterior,
)
from .movement import LatentPath, ObservedTrack
from .summaries import SummaryVector


def fmt(value):
    """17-significant-digit text for a float (exact float64 round trip)."""
    return f"{float(value):.17g}"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_digest(config):
    return sha256_text(json.dumps(config, sort_keys=True))


def write_sidecar(path, command, config, extra=None):
    """JSON sidecar next to ``path`` with the full producing config."""
    sidecar = Path(path).with_suffix(".json")
    payload = {"command": command, "config": config}
    if extra:
        payload.update(extra)
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return sidecar


def read_sidecar(path):
    return json.loads(Path(path).with_suffix(".json").read_text())


def append_manifest(out_dir, path, command, config, duration_s):
    record = {
        "path": str(Path(path).resolve()),
        "sha256": sha256_file(path),
        "command": command,
        "config_sha256": config_digest(config),
        "duration_s": round(float(duration_s), 6),
    }
    manifest = Path(out_dir) / "manifest.jsonl"
    with open(manifest, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


# ---------------------------------------------------------------------------
# tracks and latent paths


def write_track_csv(path, track):
    """Observed track as ``j,x,y,nj`` (nj = -1 on the j = 0 row)."""
    if track.change_counts is None:
        raise ValueError("track has no change counts; produce it with observe()")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["j", "x", "y", "nj"])
        writer.writerow([0, fmt(track.positions[0, 0]), fmt(track.positions[0, 1]), -1])
        for j in range(1, len(track.positions)):
            writer.writerow(
                [
                    j,
                    fmt(track.positions[j, 0]),
                    fmt(track.positions[j, 1]),
                    int(track.change_counts[j - 1]),
                ]
            )


def read_track_csv(path, dt):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    positions = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    counts = np.array([int(r["nj"]) for r in rows[1:]], dtype=int)
    return ObservedTrack(dt=dt, positions=positions, change_counts=counts)


def write_latent_csv(path, latent):
    """Latent path as ``i,x,y,phi,t_dur,omega`` (cells empty where a row
    has no heading/duration/turn)."""
    n = latent.n_steps
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "x", "y", "phi", "t_dur", "omega"])
        for i in range(n + 1):
            writer.writerow(
                [
                    i,
                    fmt(latent.positions[i, 0]),
                    fmt(latent.positions[i, 1]),
                    fmt(latent.headings[i]) if i < n else "",
                    fmt(latent.durations[i]) if i < n else "",
                    fmt(latent.turns[i - 1]) if 1 <= i < n else "",
                ]
            )


def read_latent_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    positions = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    headings = np.array([float(r["phi"]) for r in rows if r["phi"] != ""])
    durations = np.array([float(r["t_dur"]) for r in rows if r["t_dur"] != ""])
    turns = np.array([float(r["omega"]) for r in rows if r["omega"] != ""])
    return LatentPath(
        positions=positions, headings=headings, durations=durations, turns=turns
    )


# ---------------------------------------------------------------------------
# summaries, reference tables, posteriors


def write_summary_csv(path, summary):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["s1", "s2", "s3", "s4"])
        writer.writerow([fmt(v) for v in summary.as_array()])


def read_summary_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != 1:
        raise ValueError(f"expected one summary row in {path}, got {len(rows)}")
    return SummaryVector.from_array([float(rows[0][k]) for k in ("s1", "s2", "s3", "s4")])


def reference_table_config(table):
    return {
        "n_sims": table.n_rows,
        "seed": table.seed,
        "prior": {
            "kappa_range": list(table.prior.kappa_range),
            "lambda_range": list(table.prior.lambda_range),
        },
        "sim": {"dt": table.config.dt, "min_obs": table.config.min_obs},
    }


def write_reference_table(path, table, command="reftable"):
    """Table as ``kappa,lambda,s1,s2,s3,s4`` plus a JSON sidecar holding the
    simulation config and base seed, the resample count and the
    ``SIMULATOR_VERSION`` of the writing package."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kappa", "lambda", "s1", "s2", "s3", "s4"])
        for i in range(table.n_rows):
            writer.writerow(
                [fmt(v) for v in table.params[i]] + [fmt(v) for v in table.summaries[i]]
            )
    write_sidecar(
        path,
        command,
        reference_table_config(table),
        extra={"n_resampled": table.n_resampled, "simulator_version": SIMULATOR_VERSION},
    )


def read_reference_table(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["kappa", "lambda", "s1", "s2", "s3", "s4"]:
            raise ValueError(f"unexpected reference table header in {path}: {header}")
        rows = np.array([[float(v) for v in row] for row in reader])
    sidecar = read_sidecar(path)
    config = sidecar["config"]
    return ReferenceTable.from_rows(
        rows,
        PriorSpec(
            kappa_range=tuple(config["prior"]["kappa_range"]),
            lambda_range=tuple(config["prior"]["lambda_range"]),
        ),
        SimConfig(dt=config["sim"]["dt"], min_obs=config["sim"]["min_obs"]),
        config["seed"],
        sidecar.get("n_resampled", 0),
    )


def write_posterior(path, posterior, command="fit", config=None):
    """Posterior as ``kappa,lambda,weight`` plus JSON metadata."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kappa", "lambda", "weight"])
        for i in range(posterior.n_draws):
            writer.writerow(
                [fmt(posterior.draws[i, 0]), fmt(posterior.draws[i, 1]), fmt(posterior.weights[i])]
            )
    write_sidecar(
        path,
        command,
        config or {},
        extra={
            "method": posterior.method,
            "epsilon": posterior.epsilon,
            "delta": posterior.delta,
            "n_projected": posterior.n_projected,
        },
    )


def read_posterior(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    meta = read_sidecar(path)
    return WeightedPosterior(
        draws=rows[:, :2],
        weights=rows[:, 2],
        method=meta["method"],
        epsilon=meta["epsilon"],
        delta=meta["delta"],
        n_projected=meta.get("n_projected", 0),
    )


# ---------------------------------------------------------------------------
# experiment reports (long format)

CROSSVAL_HEADER = [
    "method", "epsilon", "rep", "param", "truth", "median", "hpd_lo", "hpd_hi", "p",
]
RSCAN_HEADER = ["method", "R", "kappa_true", "rep", "param", "truth", "median"]


def write_crossval_csv(path, records):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CROSSVAL_HEADER)
        for r in records:
            writer.writerow(
                [r.method, fmt(r.epsilon), r.rep, r.param, fmt(r.truth), fmt(r.median),
                 fmt(r.hpd_lo), fmt(r.hpd_hi), fmt(r.p)]
            )


def read_crossval_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        ReplicateRecord(
            method=r["method"],
            epsilon=float(r["epsilon"]),
            rep=int(r["rep"]),
            param=r["param"],
            truth=float(r["truth"]),
            median=float(r["median"]),
            hpd_lo=float(r["hpd_lo"]),
            hpd_hi=float(r["hpd_hi"]),
            p=float(r["p"]),
        )
        for r in rows
    ]


def write_rscan_csv(path, records):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RSCAN_HEADER)
        for r in records:
            writer.writerow(
                [r.method, fmt(r.r_value), fmt(r.kappa_true), r.rep, r.param,
                 fmt(r.truth), fmt(r.median)]
            )


def read_rscan_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        RScanRecord(
            method=r["method"],
            r_value=float(r["R"]),
            kappa_true=float(r["kappa_true"]),
            rep=int(r["rep"]),
            param=r["param"],
            truth=float(r["truth"]),
            median=float(r["median"]),
        )
        for r in rows
    ]


def write_density_grid_csv(path, grid):
    """Grid as ``x,f`` with a JSON header sidecar (params, tolerance,
    achieved normalization)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "f"])
        for x, f in zip(grid.nodes, grid.values):
            writer.writerow([fmt(x), fmt(f)])
    write_sidecar(
        path,
        "oracle-check",
        {
            "support": list(grid.support),
            "quadrature_tol": grid.quadrature_tol,
            **{k: v for k, v in grid.meta.items()},
        },
        extra={"trapezoid_mass": grid.trapezoid_mass()},
    )


# ---------------------------------------------------------------------------
# gnuplot companions


def gnuplot_crossval(csv_name):
    return f"""# companion plot script (requires gnuplot and awk)
set datafile separator ","
set key outside
set xlabel "true value"
set ylabel "posterior median"
set title "cross-validation: median vs truth"
plot "< awk -F, 'NR==1 || $4==\\"kappa\\"' {csv_name}" using 5:6 title "kappa", \\
     "< awk -F, 'NR==1 || $4==\\"lambda\\"' {csv_name}" using 5:6 title "lambda", \\
     x notitle dt 2 lc "black"
"""


def gnuplot_coverage(csv_name):
    return f"""# companion plot script (requires gnuplot and awk)
set datafile separator ","
binw = 0.05
bin(x) = binw * (floor(x / binw) + 0.5)
set boxwidth binw
set style fill solid 0.4
set xlabel "coverage p-value"
set ylabel "count"
plot "< awk -F, 'NR==1 || $4==\\"kappa\\"' {csv_name}" using (bin($9)):(1.0) \\
     smooth freq with boxes title "kappa", \\
     "< awk -F, 'NR==1 || $4==\\"lambda\\"' {csv_name}" using (bin($9)):(1.0) \\
     smooth freq with boxes title "lambda"
"""


def gnuplot_rscan(csv_name):
    return f"""# companion plot script (requires gnuplot and awk)
set datafile separator ","
set xlabel "R = lambda * dt"
set ylabel "|median - truth|"
set key outside
plot "< awk -F, 'NR==1 || $5==\\"lambda\\"' {csv_name}" using 2:(abs($7-$6)) \\
     title "lambda error", \\
     "< awk -F, 'NR==1 || $5==\\"kappa\\"' {csv_name}" using 2:(abs($7-$6)) \\
     title "kappa error"
"""
