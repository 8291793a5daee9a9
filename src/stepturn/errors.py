"""Exception types and value rules shared across the package; a broken rule
raises a ValueError that names the value."""

import numpy as np

INF = float("inf")


def positive(name, value):
    """Refuse a rate, interval or span ``value`` unless finite and > 0 (NaN too)."""
    if not 0 < value < INF:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def nonnegative(name, value):
    """Refuse a concentration ``value`` unless finite and >= 0 (NaN too)."""
    if not 0 <= value < INF:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def at_least(name, value, floor):
    """Refuse ``value`` unless it is >= ``floor`` (NaN too). Under an int ``floor``
    it is a count and must be whole; under a float one, a bound that may be inf."""
    if not value >= floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")
    if isinstance(floor, int) and not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")


def entries(name, values, ok, rule):
    """Refuse the array ``values`` unless ``ok`` holds at every entry; the
    message names the first entry where it fails and its index."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise ValueError(f"{name} must be {rule}, got {values[bad[0]]} at index {bad[0]}")


class StepturnError(Exception):
    """Base class for package-specific errors."""


class InsufficientPathError(StepturnError, ValueError):
    """A latent path is too short to cover the requested observation times.

    ``first_uncovered_j`` is the smallest observation index j whose time
    j*dt lies beyond the end of the path.
    """

    def __init__(self, first_uncovered_j, total_time, needed_time):
        self.first_uncovered_j = int(first_uncovered_j)
        self.total_time = float(total_time)
        self.needed_time = float(needed_time)
        super().__init__(
            f"insufficient path: observation j={self.first_uncovered_j} at time "
            f"{self.needed_time:g} exceeds path duration {self.total_time:g}"
        )


class TrackTooShortError(StepturnError, ValueError):
    """Too few positions (or turning angles) to compute the requested quantity."""


class DegenerateTrackError(StepturnError, ValueError):
    """A track's summaries are undefined: all steps have zero length, or one is not finite."""


class ImproperPosteriorError(StepturnError, ValueError):
    """A conjugate prior leaves the rate posterior improper: its Gamma shape or rate is not > 0."""


class SingularRegressionError(StepturnError, ValueError):
    """The local-linear design matrix is rank deficient.

    ``columns`` names the offending design columns.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "singular regression design; collinear columns: " + ", ".join(self.columns)
        )


class TrainingDivergedError(StepturnError, RuntimeError):
    """Network training produced a non-finite loss or gradient in ``iteration``."""

    def __init__(self, iteration):
        self.iteration = int(iteration)
        super().__init__(f"training diverged: non-finite value at iteration {self.iteration}")


class QuadratureError(StepturnError, RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""

    def __init__(self, achieved, requested):
        self.achieved = float(achieved)
        self.requested = float(requested)
        super().__init__(
            f"quadrature did not converge: achieved error {self.achieved:g} "
            f"exceeds requested {self.requested:g}"
        )


class SchemaError(StepturnError, ValueError):
    """An input file breaks its schema; the message names the file and the fault."""
