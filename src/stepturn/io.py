"""File formats: CSV wire schemas, JSON sidecars, digests and the manifest.

Floats are written with 17 significant digits so every file round-trips
bit-exactly. Every CSV is written by ``_write_csv`` and read by
``_read_csv``: a reader accepts only the exact header of its schema and
one field per column in each row (a track or latent path also only an index
column counting 0, 1, ... in file order), and raises SchemaError, naming
the file, on any fault. Each CSV gets a JSON sidecar (same stem, ``.json``)
carrying the full producing configuration; the table and posterior
readers also raise SchemaError when the sidecar is missing, is not a JSON
object, lacks a key they read or holds a value of the wrong kind there.
An append-only ``manifest.jsonl`` in the output directory records path,
content digest, command, config digest and wall-clock duration.

A reference table CSV is parsed once per content: the first read saves the
parsed float64 rows as a binary twin beside the CSV,
``.<name>.<sha256 of the CSV>.npy``, and later reads of the same bytes load
the twin instead of parsing the text. The header check and the sidecar
checks still run on every read. A twin is a cache, not an artifact: it is
never recorded in a manifest, a missing or malformed one is rebuilt from the
CSV, a write that fails (a read-only directory) leaves the parsed table in
use, and a new twin removes those left by earlier contents of the same CSV.
Deleting a twin is always safe.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import astuple, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import SchemaError
from .experiments import ReplicateRecord, RScanRecord
from .inference import (
    METHODS,
    PARAM_NAMES,
    SIMULATOR_VERSION,
    PriorSpec,
    ReferenceTable,
    SimConfig,
    WeightedPosterior,
)
from .movement import LatentPath, ObservedTrack
from .summaries import SUMMARY_NAMES, SummaryVector


def fmt(value):
    """17-significant-digit text for a float (exact float64 round trip)."""
    return f"{float(value):.17g}"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def config_digest(config):
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def write_sidecar(path, command, config, extra=None):
    """JSON sidecar next to ``path`` with the full producing config."""
    sidecar = Path(path).with_suffix(".json")
    payload = {"command": command, "config": config}
    if extra:
        payload.update(extra)
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return sidecar


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_integer(value) or (isinstance(value, float) and math.isfinite(value))


# the kinds a sidecar value can be required to have: (name, check)
INTEGER = ("an integer", _is_integer)
NUMBER = ("a finite number", _is_number)
RANGE = ("a list of two finite numbers",
         lambda value: isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)))
METHOD = (f"one of {', '.join(METHODS)}", lambda value: value in METHODS)
SHARD_RECORDS = ("an object of records with a string sha256",  # shards.json's "shards"
                 lambda value: isinstance(value, dict) and all(
                     isinstance(record, dict) and isinstance(record.get("sha256"), str)
                     for record in value.values()))


def read_sidecar(path, kinds=None, defaults=None):
    """The JSON sidecar of ``path``; raises SchemaError naming the sidecar when
    it is missing, is not a JSON object, lacks one of the keys of ``kinds``,
    each a dotted path such as ``"config.seed"``, or holds a value of another
    kind than the one (``INTEGER``, ``NUMBER``, ``RANGE``, ...) that ``kinds``
    maps its key to. ``defaults`` gives the value of each top-level key the
    sidecar may leave out; a value it holds is checked all the same."""
    sidecar = Path(path).with_suffix(".json")
    try:
        payload = json.loads(sidecar.read_text())
    except FileNotFoundError:
        raise SchemaError(f"sidecar {sidecar} is missing") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"sidecar {sidecar} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"sidecar {sidecar} is not a JSON object")
    payload = {**(defaults or {}), **payload}
    for key, (kind, check) in (kinds or {}).items():
        node = payload
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise SchemaError(f"sidecar {sidecar} lacks the key {key!r}")
            node = node[part]
        if not check(node):
            raise SchemaError(f"sidecar {sidecar} key {key!r} must be {kind}, "
                              f"found {node!r}")
    return payload


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
# CSV: one writer and one reader behind every schema

TRACK_HEADER = ["j", "x", "y", "nj"]
LATENT_HEADER = ["i", "x", "y", "phi", "t_dur", "omega"]
# the summary set and its order are owned by stepturn.summaries
SUMMARY_HEADER = list(SUMMARY_NAMES)
TABLE_HEADER = [*PARAM_NAMES, *SUMMARY_NAMES]
POSTERIOR_HEADER = [*PARAM_NAMES, "weight"]
# a report's columns are its record's fields; the scan's r_value is written as R
CROSSVAL_HEADER = [f.name for f in fields(ReplicateRecord)]
RSCAN_HEADER = [{"r_value": "R"}.get(f.name, f.name) for f in fields(RScanRecord)]


def _write_csv(path, header, rows):
    """``header`` then ``rows``; every cell that is not text or an integer
    is a float and is written by :func:`fmt`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, (str, int)) else fmt(cell) for cell in row]
            for row in rows
        )


def _check_header(handle, header):
    """Read the first line of ``handle``; raise ValueError unless it is ``header``."""
    found = handle.readline().rstrip("\r\n")
    if found != ",".join(header):
        raise ValueError(f"expected header {','.join(header)!r}, found {found!r}")


def _read_csv(path, header, dtype=float, min_rows=1):
    """The data rows of the CSV at ``path`` as one 2-d ``dtype`` array; raises
    ValueError unless the first line is exactly ``header``, every row has one
    field per column, every cell parses as ``dtype`` (a finite one, for float)
    and there are at least ``min_rows`` rows."""
    with open(path, newline="") as handle:
        _check_header(handle, header)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: counted below
            rows = np.loadtxt(handle, dtype=dtype, delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
    if len(rows) < min_rows:
        raise ValueError(f"{len(rows)} data rows, expected at least {min_rows}")
    if len(rows) and rows.shape[1] != len(header):
        raise ValueError(f"rows have {rows.shape[1]} fields, the header {len(header)}")
    return _finite(rows) if dtype is float else rows


def _finite(cells):
    """``cells`` as floats; raises ValueError unless each is finite."""
    values = np.asarray(cells, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("numeric cells must hold finite numbers")
    return values


def _check_index(column, name):
    """Raise ValueError unless the index column ``column`` counts 0, 1, ..."""
    if not np.array_equal(_finite(column), np.arange(len(column))):
        raise ValueError(f"{name} must count 0, 1, ..., {len(column) - 1} in file order")


def _reader(read):
    """Re-raise a ValueError of ``read(path, ...)`` as a SchemaError naming ``path``."""
    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from exc

    return checked


def _read_records(path, header, record):
    """The rows of a report CSV as ``record`` instances (none if header-only)."""
    kinds = [get_type_hints(record)[f.name] for f in fields(record)]
    kinds = [(lambda cell: float(_finite(cell))) if kind is float else kind for kind in kinds]
    rows = _read_csv(path, header, dtype=str, min_rows=0).tolist()
    return [record(*(kind(cell) for kind, cell in zip(kinds, row))) for row in rows]


# ---------------------------------------------------------------------------
# tracks and latent paths


def write_track_csv(path, track):
    """Observed track as ``j,x,y,nj`` (nj = -1 on the j = 0 row)."""
    if track.change_counts is None:
        raise ValueError("track has no change counts; produce it with observe()")
    x, y = track.positions.T.tolist()
    _write_csv(path, TRACK_HEADER, zip(range(len(x)), x, y, [-1, *track.change_counts.tolist()]))


@_reader
def read_track_csv(path, dt):
    rows = _read_csv(path, TRACK_HEADER)
    _check_index(rows[:, 0], "j")
    if rows[0, 3] != -1:
        raise ValueError(f"nj must be -1 on the j = 0 row, found {rows[0, 3]:g}")
    counts = rows[1:, 3]
    if not np.all(counts == np.trunc(counts)):
        raise ValueError("nj must hold integers")
    return ObservedTrack(dt=dt, positions=rows[:, 1:3].copy(), change_counts=counts.astype(int))


def write_latent_csv(path, latent):
    """Latent path as ``i,x,y,phi,t_dur,omega`` (cells empty where a row
    has no heading/duration/turn)."""
    x, y = latent.positions.T.tolist()
    phi = [*latent.headings.tolist(), ""]
    t_dur = [*latent.durations.tolist(), ""]
    omega = ["", *latent.turns.tolist(), ""]
    _write_csv(path, LATENT_HEADER, zip(range(len(x)), x, y, phi, t_dur, omega))


@_reader
def read_latent_csv(path):
    rows = _read_csv(path, LATENT_HEADER, dtype=str)
    _check_index(rows[:, 0], "i")
    empty = np.zeros((len(rows), 3), dtype=bool)
    empty[-1] = empty[0, 2] = True
    if not np.array_equal(rows[:, 3:] == "", empty):
        raise ValueError("phi and t_dur must be empty on the last row only, "
                         "omega on the first and last rows only")
    return LatentPath(positions=_finite(rows[:, 1:3]), headings=_finite(rows[:-1, 3]),
                      durations=_finite(rows[:-1, 4]), turns=_finite(rows[1:-1, 5]))


# ---------------------------------------------------------------------------
# summaries, reference tables, posteriors


def write_summary_csv(path, summary):
    _write_csv(path, SUMMARY_HEADER, [summary.as_array().tolist()])


@_reader
def read_summary_csv(path):
    rows = _read_csv(path, SUMMARY_HEADER)
    if len(rows) != 1:
        raise ValueError(f"expected one summary row, got {len(rows)}")
    return SummaryVector.from_array(rows[0])


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


def write_reference_table(path, table):
    """Table under :data:`TABLE_HEADER` plus a JSON sidecar holding the
    simulation config and base seed, the resample count and the
    ``SIMULATOR_VERSION`` of the writing package."""
    rows = np.column_stack([table.params, table.summaries])
    _write_csv(path, TABLE_HEADER, (row.tolist() for row in rows))
    write_sidecar(
        path,
        "reftable",
        reference_table_config(table),
        extra={"n_resampled": table.n_resampled, "simulator_version": SIMULATOR_VERSION},
    )


def _load_twin(twin):
    """The rows stored in ``twin``, or None when it is missing, unreadable or
    not a float64 array of at least one row with one column per table field.
    ``read_array`` reads only the ``.npy`` format and raises ValueError on any
    malformed file (``np.load`` would open a zip archive, and raise EOFError
    on an empty file)."""
    try:
        with open(twin, "rb") as handle:
            rows = np.lib.format.read_array(handle, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == len(TABLE_HEADER):
        return rows if len(rows) else None
    return None


def _save_twin(path, twin, rows):
    """Write ``rows`` to ``twin`` through a temporary file in its directory,
    then remove the twins of the CSV at ``path`` that carry other digests.
    An OSError (a read-only directory, a full disk) leaves no twin."""
    tmp = twin.with_name(f"{twin.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            np.save(handle, rows, allow_pickle=False)
        os.replace(tmp, twin)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        return
    stale = re.compile(rf"\.{re.escape(path.name)}\.[0-9a-f]{{64}}\.npy")
    for other in twin.parent.iterdir():
        if other.name != twin.name and stale.fullmatch(other.name):
            with contextlib.suppress(OSError):
                other.unlink()


@_reader
def read_reference_table(path, sha256=None):
    """The table at ``path``. ``sha256`` is the digest of its bytes, computed
    here when not given; it names the binary twin that spares the parse of
    content read before (see the module docstring)."""
    path = Path(path)
    twin = path.with_name(f".{path.name}.{sha256 or sha256_file(path)}.npy")
    rows = _load_twin(twin)
    parsed = rows is None
    if parsed:
        rows = _read_csv(path, TABLE_HEADER)
    else:  # the twin spares the parse, not the header check
        with open(path, newline="") as handle:
            _check_header(handle, TABLE_HEADER)
    sidecar = read_sidecar(path, {
        "config.seed": INTEGER, "config.prior.kappa_range": RANGE,
        "config.prior.lambda_range": RANGE, "config.sim.dt": NUMBER, "config.sim.min_obs": INTEGER,
        "n_resampled": INTEGER,
    }, defaults={"n_resampled": 0})
    config, prior = sidecar["config"], sidecar["config"]["prior"]
    table = ReferenceTable.from_rows(
        rows,
        PriorSpec(tuple(prior["kappa_range"]), tuple(prior["lambda_range"])),
        SimConfig(dt=config["sim"]["dt"], min_obs=config["sim"]["min_obs"]),
        config["seed"],
        sidecar["n_resampled"],
    )
    if parsed:  # only a table that passed every check is saved
        _save_twin(path, twin, rows)
    return table


def write_posterior(path, posterior, config=None):
    """Posterior under :data:`POSTERIOR_HEADER` plus JSON metadata."""
    rows = np.column_stack([posterior.draws, posterior.weights])
    _write_csv(path, POSTERIOR_HEADER, (row.tolist() for row in rows))
    write_sidecar(
        path,
        "fit",
        config or {},
        extra={
            "method": posterior.method,
            "epsilon": posterior.epsilon,
            "delta": posterior.delta,
            "n_projected": posterior.n_projected,
        },
    )


@_reader
def read_posterior(path):
    rows = _read_csv(path, POSTERIOR_HEADER)
    meta = read_sidecar(path, {"method": METHOD, "epsilon": NUMBER, "delta": NUMBER,
                               "n_projected": INTEGER})
    return WeightedPosterior(
        draws=rows[:, :-1],
        weights=rows[:, -1],
        method=meta["method"],
        epsilon=meta["epsilon"],
        delta=meta["delta"],
        n_projected=meta["n_projected"],
    )


# ---------------------------------------------------------------------------
# experiment reports (long format, one column per record field)


def write_crossval_csv(path, records):
    _write_csv(path, CROSSVAL_HEADER, map(astuple, records))


@_reader
def read_crossval_csv(path):
    return _read_records(path, CROSSVAL_HEADER, ReplicateRecord)


def write_rscan_csv(path, records):
    """Scale-scan records under :data:`RSCAN_HEADER`."""
    _write_csv(path, RSCAN_HEADER, map(astuple, records))


@_reader
def read_rscan_csv(path):
    return _read_records(path, RSCAN_HEADER, RScanRecord)


def write_density_grid_csv(path, grid):
    """Grid as ``x,f`` with a JSON header sidecar (params, tolerance,
    achieved normalization)."""
    _write_csv(path, ["x", "f"], zip(grid.nodes.tolist(), grid.values.tolist()))
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


def _plot(csv_name, header, params, using):
    """A gnuplot ``plot`` of the rows of ``csv_name`` whose param column holds each
    name in ``params``, ``using`` a format of the name ({0}) and of the columns,
    each by its field in ``header`` and counted from 1, as awk and gnuplot count."""
    columns = {field: index + 1 for index, field in enumerate(header)}
    return "plot " + ", \\\n     ".join(
        f"\"< awk -F, 'NR==1 || ${columns['param']}==\\\"{name}\\\"' {csv_name}\" "
        + using.format(name, **columns) for name in params)


def gnuplot_crossval(csv_name):
    plot = _plot(csv_name, CROSSVAL_HEADER, PARAM_NAMES, 'using {truth}:{median} title "{0}"')
    return f"""# companion plot script (requires gnuplot and awk)
set datafile separator ","
set key outside
set xlabel "true value"
set ylabel "posterior median"
set title "cross-validation: median vs truth"
{plot}, \\
     x notitle dt 2 lc "black"
"""


def gnuplot_coverage(csv_name):
    plot = _plot(csv_name, CROSSVAL_HEADER, PARAM_NAMES,
                 'using (bin(${p})):(1.0) \\\n     smooth freq with boxes title "{0}"')
    return f"""# companion plot script (requires gnuplot and awk)
set datafile separator ","
binw = 0.05
bin(x) = binw * (floor(x / binw) + 0.5)
set boxwidth binw
set style fill solid 0.4
set xlabel "coverage p-value"
set ylabel "count"
{plot}
"""


def gnuplot_rscan(csv_name):
    rate = PARAM_NAMES[1]  # the parameter R scales; its error is plotted first
    plot = _plot(csv_name, RSCAN_HEADER, reversed(PARAM_NAMES),
                 'using {R}:(abs(${median}-${truth})) \\\n     title "{0} error"')
    return f"""# companion plot script (requires gnuplot and awk)
set datafile separator ","
set xlabel "R = {rate} * dt"
set ylabel "|median - truth|"
set key outside
{plot}
"""
