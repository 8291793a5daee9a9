"""Continuous-time "steps and turns" walk and its regular-interval observation.

The latent process alternates straight-line travel at constant speed with
instantaneous reorientations: step durations are exponential, turning
angles are von Mises. The observation process records the walker's
position every ``dt`` time units together with the number of direction
changes completed by each observation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPathError

TWO_PI = 2.0 * np.pi


def wrap_angle(theta):
    """Wrap angle(s) to the interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = theta + np.pi
    # np.mod is the identity on [0, 2pi); most inputs are already there
    if np.any((wrapped < 0.0) | (wrapped >= TWO_PI)):
        wrapped = np.mod(wrapped, TWO_PI)
    wrapped = wrapped - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class MovementParams:
    """Parameters of the walk: turning concentration and turn rate.

    Parameters
    ----------
    kappa : float
        von Mises concentration of the turning angles, >= 0.
    lam : float
        Rate of direction changes (1/time), > 0.

    The walker always travels at unit speed and its mean turning angle
    is 0, as in the paper.
    """

    kappa: float
    lam: float

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")


@dataclass(frozen=True)
class LatentPath:
    """Polyline of the latent walk.

    Attributes
    ----------
    positions : ndarray, shape (n_steps + 1, 2)
        Turn points, starting at the origin.
    headings : ndarray, shape (n_steps,)
        Travel direction of each segment, wrapped to (-pi, pi].
    durations : ndarray, shape (n_steps,)
        Strictly positive duration of each segment.
    turns : ndarray, shape (n_steps - 1,)
        Turning angle at each interior turn point, wrapped to (-pi, pi].
    """

    positions: np.ndarray
    headings: np.ndarray
    durations: np.ndarray
    turns: np.ndarray

    def __post_init__(self):
        n = len(self.durations)
        if n < 1:
            raise ValueError("a path needs at least one segment")
        if self.positions.shape != (n + 1, 2):
            raise ValueError("positions must have shape (n_steps + 1, 2)")
        if self.headings.shape != (n,):
            raise ValueError("headings must have shape (n_steps,)")
        if self.turns.shape != (n - 1,):
            raise ValueError("turns must have shape (n_steps - 1,)")
        if not np.all(self.durations > 0):
            raise ValueError("all durations must be strictly positive")

    @property
    def n_steps(self):
        return len(self.durations)

    @property
    def total_time(self):
        return float(np.sum(self.durations))


@dataclass(frozen=True)
class ObservedTrack:
    """Positions observed every ``dt`` plus the change-count sequence.

    ``change_counts[j-1]`` is the number of completed direction changes by
    observation time ``j * dt`` (counted as the largest step index whose
    cumulative duration is <= j*dt; -1 while still on the first segment).
    ``change_counts`` may be None for tracks assembled directly from
    positions rather than produced by :func:`observe`.
    """

    dt: float
    positions: np.ndarray
    change_counts: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must have shape (n_obs + 1, 2)")
        if self.change_counts is not None:
            if self.change_counts.shape != (len(self.positions) - 1,):
                raise ValueError("change_counts must have length n_obs")
            if np.any(self.change_counts < -1):
                raise ValueError("change counts must be >= -1")
            if np.any(np.diff(self.change_counts) < 0):
                raise ValueError("change counts must be non-decreasing")

    @property
    def n_obs(self):
        return len(self.positions) - 1


def sample_exponential(lam, rng, size):
    """Draw ``size`` exponential step durations with rate ``lam``, as an
    array of strictly positive floats.
    """
    if lam <= 0:
        raise ValueError(f"rate must be > 0, got {lam}")
    draws = rng.exponential(scale=1.0 / lam, size=size)
    # guard against the (measure-zero) exact 0.0 draw
    while True:
        bad = draws <= 0.0
        if not bad.any():
            return draws
        draws[bad] = rng.exponential(scale=1.0 / lam, size=int(bad.sum()))


def sample_von_mises(kappa, rng, size):
    """Draw ``size`` turning angles from vM(0, kappa), wrapped to (-pi, pi].

    kappa = 0 degenerates to the uniform distribution on the circle. The
    underlying sampler is the Best-Fisher rejection scheme with a wrapped
    Cauchy envelope (numpy's Generator.vonmises).
    """
    if kappa < 0:
        raise ValueError(f"concentration must be >= 0, got {kappa}")
    draws = rng.vonmises(0.0, kappa, size=size)
    return wrap_angle(draws)


def latent_from_steps(durations, turns):
    """Assemble a :class:`LatentPath` from step durations and turning angles.

    The walk starts at the origin with heading 0; heading i is the running
    sum of the first i turning angles. ``turns`` must contain exactly
    ``len(durations) - 1`` angles (one per interior turn point); raw angles
    are wrapped to (-pi, pi].
    """
    durations = np.asarray(durations, dtype=float)
    turns = np.asarray(turns, dtype=float)
    if durations.ndim != 1 or len(durations) < 1:
        raise ValueError("durations must be a non-empty 1-d sequence")
    if turns.shape != (len(durations) - 1,):
        raise ValueError(
            f"expected {len(durations) - 1} turning angles for "
            f"{len(durations)} durations, got {len(turns)}"
        )
    turns = wrap_angle(turns)
    heads_raw = np.concatenate(([0.0], np.cumsum(turns)))
    positions = np.zeros((len(durations) + 1, 2))
    np.cumsum(durations * np.cos(heads_raw), out=positions[1:, 0])
    np.cumsum(durations * np.sin(heads_raw), out=positions[1:, 1])
    return LatentPath(
        positions=positions,
        headings=wrap_angle(heads_raw),
        durations=durations,
        turns=turns,
    )


def simulate_latent(params, n_steps, rng):
    """Simulate a latent path with ``n_steps`` segments.

    Deterministic given (params, n_steps) and the state of ``rng``:
    durations are drawn first, then turning angles.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    durations = sample_exponential(params.lam, rng, size=n_steps)
    turns = sample_von_mises(params.kappa, rng, size=len(durations) - 1)  # none for one step
    return latent_from_steps(durations, turns)


def simulate_until(params, total_time, rng):
    """Simulate a latent path that covers at least ``total_time``.

    Durations are drawn in deterministic chunks until their cumulative sum
    reaches ``total_time``, truncated to the minimal covering step count;
    turning angles are drawn afterwards. Deterministic given
    (params, total_time) and the state of ``rng``.
    """
    if not 0 < total_time < np.inf:  # also refuses NaN
        raise ValueError(f"total_time must be finite and > 0, got {total_time}")
    chunks = []
    covered = 0.0
    while covered < total_time:
        est = max(16, int(1.2 * params.lam * (total_time - covered)) + 8)
        draw = sample_exponential(params.lam, rng, size=est)
        chunks.append(draw)
        covered += float(draw.sum())
    durations = np.concatenate(chunks)
    cumsum = np.cumsum(durations)
    n = int(np.searchsorted(cumsum, total_time, side="left")) + 1
    durations = durations[:n]
    turns = sample_von_mises(params.kappa, rng, size=len(durations) - 1)  # none for one step
    return latent_from_steps(durations, turns)


def _counts_from_cumsum(cumsum, dt, n_obs):
    """Change counts N_j for j = 1..n_obs given cumulative step durations."""
    tau = dt * np.arange(1, n_obs + 1)
    if cumsum[-1] < tau[-1]:
        covered = int(np.searchsorted(tau, cumsum[-1], side="right"))
        raise InsufficientPathError(covered + 1, cumsum[-1], tau[covered])
    return np.searchsorted(cumsum, tau, side="right") - 1


def change_counts(durations, dt, n_obs):
    """Number of direction changes completed by each observation time.

    ``N_j = max{m : sum(durations[:m+1]) <= j*dt}`` with the convention
    ``N_j = -1`` while the walker is still on its first segment; ties
    (cumulative sum exactly equal to j*dt) count as completed.
    """
    durations = np.asarray(durations, dtype=float)
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs}")
    if durations.ndim != 1 or len(durations) == 0 or not np.all(durations > 0):
        raise ValueError("durations must be a non-empty sequence of positive times")
    return _counts_from_cumsum(np.cumsum(durations), dt, n_obs)


def observe(path, dt, n_obs):
    """Observe a latent path at times dt, 2*dt, ..., n_obs*dt.

    Each observed position is the point reached after travelling for time
    j*dt along the polyline (unit speed, so arc length equals elapsed
    time): anchor at the last turn point reached at or before j*dt and
    advance along the current heading by the residual time.

    Raises
    ------
    InsufficientPathError
        If the path ends before time ``n_obs * dt``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs}")
    cumsum = np.cumsum(path.durations)
    counts = _counts_from_cumsum(cumsum, dt, n_obs)
    tau = dt * np.arange(1, n_obs + 1)
    anchor_idx = counts + 1  # turn point reached at or before tau
    cum0 = np.concatenate(([0.0], cumsum))
    residual = tau - cum0[anchor_idx]
    head_idx = np.minimum(anchor_idx, path.n_steps - 1)  # residual is 0 past the end
    direction = np.column_stack(
        (np.cos(path.headings[head_idx]), np.sin(path.headings[head_idx]))
    )
    observed = path.positions[anchor_idx] + residual[:, None] * direction
    positions = np.vstack((path.positions[0], observed))
    return ObservedTrack(dt=dt, positions=positions, change_counts=counts)
