"""Fixed benchmark inputs and the frozen simulator that builds them.

The ``crossval`` and ``fit`` workloads read a 1e5-row desk reference table
(desk prior, dt 0.5, 1500 observations) and the ``fit`` workload fits
pre-generated tracks. Both commits of a comparison must see these inputs
byte for byte, even when a change moves the package's random streams, so
they are simulated here by a frozen copy of the package's row simulator
(``stepturn.inference._reference_row`` and the functions it calls, as of
the commit that defined this benchmark) and never by ``src/``. The table
equals the acceptance suite's desk table (seed 11); ``DESK_TABLE_SHA256``
pins its bits, and a build that does not reproduce them is refused.

Inputs are built once per checkout (the table) and once per workload seed
(the tracks), cached under ``perfbench/_work/inputs``, and never timed.

Run ``python3 perfbench/inputs.py`` to build the table ahead of time.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import i0e, i1e

WORK_DIR = Path(__file__).resolve().parent / "_work"
INPUT_DIR = WORK_DIR / "inputs"

DESK_SEED = 11
DESK_ROWS = 100_000
DESK_KAPPA = (0.0, 100.0)
DESK_LAMBDA = (0.0, 50.0)
DT = 0.5
N_OBS = 1500
#: sha256 over the float64 bytes of params (K, 2) then summaries (K, 4)
DESK_TABLE_SHA256 = "c23ade7e3dd0750ed3b6db37e254253c21ef596d8431ba5d5bcc00536bf441db"

#: pseudo-observation region of the fit tracks (the crossval constraint)
TRACK_KAPPA_MAX = 70.0
TRACK_LAMBDA_MAX = 25.0
N_TRACKS = 32

BUILD_CHUNK = 1000
BUILD_WORKERS = 2

# ---------------------------------------------------------------------------
# frozen simulator: same operations, in the same order, as the package's
# row simulator, so the bits match it at the defining commit


def _wrap(theta):
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def _exponential(lam, rng, size):
    draws = rng.exponential(scale=1.0 / lam, size=size)
    while True:
        bad = draws <= 0.0
        if not bad.any():
            return draws
        draws[bad] = rng.exponential(scale=1.0 / lam, size=int(bad.sum()))


def simulate_track(kappa, lam, rng, dt=DT, n_obs=N_OBS):
    """Observed positions (n_obs + 1, 2) and change counts (n_obs,) of one
    walk covering n_obs * dt."""
    total_time = n_obs * dt
    chunks, covered = [], 0.0
    while covered < total_time:
        est = max(16, int(1.2 * lam * (total_time - covered)) + 8)
        draw = _exponential(lam, rng, est)
        chunks.append(draw)
        covered += float(draw.sum())
    durations = np.concatenate(chunks)
    cumsum = np.cumsum(durations)
    n = int(np.searchsorted(cumsum, total_time, side="left")) + 1
    durations, cumsum = durations[:n], cumsum[:n]
    turns = _wrap(rng.vonmises(0.0, kappa, size=n - 1)) if n > 1 else np.empty(0)
    heads_raw = np.concatenate(([0.0], np.cumsum(_wrap(turns))))
    steps = durations[:, None] * np.column_stack((np.cos(heads_raw), np.sin(heads_raw)))
    corners = np.vstack(([0.0, 0.0], np.cumsum(steps, axis=0)))
    headings = _wrap(heads_raw)

    tau = dt * np.arange(1, n_obs + 1)
    counts = np.searchsorted(cumsum, tau, side="right") - 1
    anchor = counts + 1
    residual = tau - np.concatenate(([0.0], cumsum))[anchor]
    head = headings[np.minimum(anchor, n - 1)]
    observed = corners[anchor] + residual[:, None] * np.column_stack((np.cos(head), np.sin(head)))
    return np.vstack((corners[0], observed)), counts


def _bessel_ratio_inverse(y):
    if y == 0.0:
        return 0.0
    if y < 0.53:
        x = 2.0 * y + y**3 + 5.0 * y**5 / 6.0
    elif y < 0.85:
        x = -0.4 + 1.39 * y + 0.43 / (1.0 - y)
    elif y < 0.9:
        x = 1.0 / (y**3 - 4.0 * y**2 + 3.0 * y)
    else:
        r = 1.0 - y
        x = 0.5 / (r - 0.5 * r * r - 0.5 * r**3)
    for _ in range(100):
        a = float(i1e(x) / i0e(x))
        err = a - y
        if abs(err) < 1e-13:
            break
        if x < 1e-6:
            slope = 0.5
        elif x > 1e8:
            slope = 0.5 / (x * x) + 0.25 / (x * x * x)
        else:
            slope = 1.0 - a * a - a / x
        x_new = x - err / slope
        if not np.isfinite(x_new) or x_new <= 0.0:
            x_new = 0.5 * x
        if x_new == x:
            break
        x = x_new
    return x


def track_summaries(positions):
    """The four track summaries (s1..s4), or None for a degenerate track."""
    deltas = np.diff(positions, axis=0)
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    headings = _wrap(np.arctan2(deltas[:, 1], deltas[:, 0]))
    turns = _wrap(np.diff(headings))
    mean_len = float(np.mean(lengths))
    if mean_len == 0.0:
        return None
    mean_cos = float(np.mean(np.cos(turns)))
    return np.array([
        1.0 / mean_len,
        _bessel_ratio_inverse(min(max(mean_cos, 0.0), 1.0 - 1e-12)),
        float(np.std(turns, ddof=1)),
        float(np.std(lengths, ddof=1)),
    ])


def _desk_row(index):
    for attempt in range(1000):
        rng = np.random.default_rng((DESK_SEED ^ index) + (attempt << 64))
        kappa = rng.uniform(*DESK_KAPPA)
        lam = rng.uniform(*DESK_LAMBDA)
        if lam <= 0.0:
            continue
        positions, _ = simulate_track(kappa, lam, rng)
        s = track_summaries(positions)
        if s is not None and np.all(np.isfinite(s)):
            return (kappa, lam, *s), attempt
    raise RuntimeError(f"desk row {index}: exhausted resampling attempts")


def _desk_rows(bounds):
    lo, hi = bounds
    rows = [_desk_row(i) for i in range(lo, hi)]
    return np.array([r for r, _ in rows]), sum(a for _, a in rows)


# ---------------------------------------------------------------------------
# builders and the cache


def table_digest(params, summaries):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(params, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(summaries, dtype=np.float64).tobytes())
    return digest.hexdigest()


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _atomic_savez(path, **arrays):
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def desk_table_path():
    return INPUT_DIR / "desk_table.npz"


def build_desk_table():
    """Simulate the desk table with a 2-process pool; refuse wrong bits."""
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    edges = list(range(0, DESK_ROWS, BUILD_CHUNK)) + [DESK_ROWS]
    bounds = list(zip(edges[:-1], edges[1:]))
    parts = []
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=BUILD_WORKERS) as pool:
        for done, part in enumerate(pool.imap(_desk_rows, bounds), start=1):
            parts.append(part)
            if done % 10 == 0 or done == len(bounds):
                print(f"desk table: {edges[done]} / {DESK_ROWS} rows "
                      f"({time.perf_counter() - started:.0f} s)", file=sys.stderr, flush=True)
    rows = np.vstack([r for r, _ in parts])
    resampled = sum(a for _, a in parts)
    params, summ = rows[:, :2].copy(), rows[:, 2:].copy()
    digest = table_digest(params, summ)
    if digest != DESK_TABLE_SHA256:
        raise RuntimeError(
            f"frozen simulator produced desk table {digest[:12]}, expected "
            f"{DESK_TABLE_SHA256[:12]}; the numeric stack differs from the one "
            "that defined the benchmark"
        )
    _atomic_savez(desk_table_path(), params=params, summaries=summ,
                  n_resampled=np.int64(resampled))
    return desk_table_path()


def load_desk_table():
    """(params, summaries, n_resampled) of the cached table, digest-checked."""
    with np.load(desk_table_path()) as data:
        params, summ = data["params"], data["summaries"]
        resampled = int(data["n_resampled"])
    if table_digest(params, summ) != DESK_TABLE_SHA256:
        raise RuntimeError(f"cached desk table {desk_table_path()} has the wrong digest")
    return params, summ, resampled


def tracks_path(seed):
    return INPUT_DIR / f"fit_tracks_seed{seed}.npz"


def build_tracks(seed):
    """N_TRACKS observed tracks with truths drawn from the constrained region."""
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    truths, positions, counts = [], [], []
    for k in range(N_TRACKS):
        rng = np.random.default_rng([seed, k])
        kappa = rng.uniform(0.0, TRACK_KAPPA_MAX)
        lam = rng.uniform(0.0, TRACK_LAMBDA_MAX)
        while lam <= 0.0:
            lam = rng.uniform(0.0, TRACK_LAMBDA_MAX)
        pos, cnt = simulate_track(kappa, lam, rng)
        truths.append((kappa, lam))
        positions.append(pos)
        counts.append(cnt)
    _atomic_savez(tracks_path(seed), truths=np.array(truths),
                  positions=np.array(positions), counts=np.array(counts))
    return tracks_path(seed)


def load_tracks(seed):
    with np.load(tracks_path(seed)) as data:
        return data["truths"], data["positions"], data["counts"]


def ensure_tracks(seed):
    if not tracks_path(seed).exists():
        build_tracks(seed)
    return tracks_path(seed)


if __name__ == "__main__":
    if not desk_table_path().exists():
        build_desk_table()
    print(f"desk table ready: {desk_table_path()}")
