"""Summary statistics of an observed track.

Four statistics characterise a track for likelihood-free inference: a
point estimate of the turn rate (inverse mean observed step length), a
point estimate of the turning concentration (inverse Bessel ratio of the
mean cosine of observed turning angles), and the standard deviations of
the observed turning angles and step lengths.

This module owns the summary set: :data:`SUMMARY_NAMES`, read off
:class:`SummaryVector`'s fields, orders every summary array, table column
and file header, and :func:`summary_array` is the one shape check of an
observed summary vector.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import i0e, i1e

from .errors import DegenerateTrackError, TrackTooShortError
from .movement import wrap_angle

#: mean cosine is clamped to [0, 1 - MEANCOS_CLAMP] before inversion
MEANCOS_CLAMP = 1e-12


@dataclass(frozen=True)
class ObservedDecomposition:
    """Steps and turns read off an observed track.

    ``step_lengths[j]`` is the distance between consecutive observed
    positions, ``headings[j]`` the full-quadrant direction of that step,
    and ``turn_angles[j]`` the wrapped difference between consecutive
    headings. Lengths are n_obs, n_obs and n_obs - 1 respectively.
    """

    step_lengths: np.ndarray
    headings: np.ndarray
    turn_angles: np.ndarray


@dataclass(frozen=True)
class SummaryVector:
    """The track summaries, in the fixed wire order of its fields, :data:`SUMMARY_NAMES`."""

    s1: float  # point estimate of the turn rate
    s2: float  # point estimate of the turning concentration, >= 0
    s3: float  # sd of observed turning angles
    s4: float  # sd of observed step lengths

    def as_array(self):
        return np.array([getattr(self, name) for name in SUMMARY_NAMES])

    @classmethod
    def from_array(cls, values):
        return cls(*summary_array(values).tolist())


#: the summaries' names, in the order of every summary array, column and header
SUMMARY_NAMES = tuple(field.name for field in fields(SummaryVector))


def summary_array(values):
    """``values``, a :class:`SummaryVector` or one number per :data:`SUMMARY_NAMES`
    entry, as a float array; ValueError on any other shape."""
    if isinstance(values, SummaryVector):
        return values.as_array()
    values = np.asarray(values, dtype=float)
    if values.shape != (len(SUMMARY_NAMES),):
        raise ValueError(
            f"expected {len(SUMMARY_NAMES)} summary values, got shape {values.shape}")
    return values


def decompose(track):
    """Decompose an observed track into step lengths, headings and turns.

    Headings use the two-argument arctangent of (dy, dx); turning angles
    are heading differences wrapped to (-pi, pi].

    Raises
    ------
    TrackTooShortError
        If the track has fewer than 3 positions.
    """
    positions = np.asarray(track.positions, dtype=float)
    if len(positions) < 3:
        raise TrackTooShortError(
            f"need at least 3 positions to decompose, got {len(positions)}"
        )
    deltas = np.diff(positions, axis=0)
    step_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    headings = wrap_angle(np.arctan2(deltas[:, 1], deltas[:, 0]))
    turn_angles = wrap_angle(np.diff(headings))
    return ObservedDecomposition(step_lengths, headings, turn_angles)


def bessel_ratio(x):
    """Ratio A(x) = I1(x) / I0(x) of modified Bessel functions.

    Monotone increasing from A(0) = 0 toward 1; accurate to better than
    1e-10 relative over [0, 1e4] (exponentially scaled Bessel evaluation).
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("bessel_ratio requires x >= 0")
    out = i1e(arr) / i0e(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _bessel_ratio_derivative(x, a):
    # d/dx I1/I0 = 1 - A^2 - A/x; series limit 1/2 at x = 0, asymptotic
    # 1/(2x^2) form for very large x where the direct form cancels badly.
    if x < 1e-6:
        return 0.5
    if x > 1e8:
        return 0.5 / (x * x) + 0.25 / (x * x * x)
    return 1.0 - a * a - a / x


def bessel_ratio_inverse(y):
    """Numerical inverse of :func:`bessel_ratio` on [0, 1).

    Returns the concentration x with A(x) = y, exact 0 at y = 0. Newton
    iteration from a piecewise initial guess; the round trip
    ``A(bessel_ratio_inverse(y))`` is within 1e-8 of y.
    """
    y = float(y)
    if y < 0.0 or y >= 1.0:
        raise ValueError(f"bessel_ratio_inverse requires 0 <= y < 1, got {y}")
    if y == 0.0:
        return 0.0
    # initial guess: classical circular-statistics approximations below
    # 0.9, second-order asymptotic inversion of 1 - A(x) above
    if y < 0.53:
        x = 2.0 * y + y**3 + 5.0 * y**5 / 6.0
    elif y < 0.85:
        x = -0.4 + 1.39 * y + 0.43 / (1.0 - y)
    elif y < 0.9:
        x = 1.0 / (y**3 - 4.0 * y**2 + 3.0 * y)
    else:
        r = 1.0 - y
        u = r - 0.5 * r * r - 0.5 * r**3
        x = 0.5 / u
    for _ in range(100):
        a = bessel_ratio(x)
        err = a - y
        if abs(err) < 1e-13:
            break
        step = err / _bessel_ratio_derivative(x, a)
        x_new = x - step
        if not np.isfinite(x_new) or x_new <= 0.0:
            x_new = 0.5 * x
        if x_new == x:
            break
        x = x_new
    return x


def kappa_estimate(mean_cos):
    """Inverse Bessel ratio of ``mean_cos`` clamped to [0, 1 - MEANCOS_CLAMP]: always finite."""
    return bessel_ratio_inverse(min(max(mean_cos, 0.0), 1.0 - MEANCOS_CLAMP))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite summary raises below
def summarize(track):
    """Compute the four summary statistics of an observed track.

    s1 is the inverse mean observed step length; s2 is the
    :func:`kappa_estimate` at the mean cosine of the observed turning
    angles; s3 and s4 are sample standard deviations (divisor n - 1) of
    the turning angles and step lengths.

    Raises
    ------
    TrackTooShortError
        Fewer than 2 turning angles (i.e. fewer than 4 positions).
    DegenerateTrackError
        All observed steps have zero length, or a summary is not finite.
    """
    dec = decompose(track)
    if len(dec.turn_angles) < 2:
        raise TrackTooShortError(
            f"need at least 2 turning angles, got {len(dec.turn_angles)}"
        )
    mean_len = float(np.mean(dec.step_lengths))
    if mean_len == 0.0:
        raise DegenerateTrackError("all observed steps have zero length")
    summary = SummaryVector(
        s1=1.0 / mean_len,
        s2=kappa_estimate(float(np.mean(np.cos(dec.turn_angles)))),
        s3=float(np.std(dec.turn_angles, ddof=1)),
        s4=float(np.std(dec.step_lengths, ddof=1)),
    )
    if not np.all(np.isfinite(summary.as_array())):
        raise DegenerateTrackError("a summary is not finite")
    return summary
