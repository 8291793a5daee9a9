"""Reference-table generation and ABC posterior estimation.

A reference table pairs prior parameter draws with the summaries of
trajectories simulated under them. Posteriors come from rejection on a
standardized Euclidean distance, optionally followed by a local-linear or
neural-network regression correction of the accepted draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import nnet, parallel
from .errors import SingularRegressionError, at_least, entries, positive
from .movement import MovementParams, observe_until
from .streams import stream
from .summaries import SUMMARY_NAMES, summarize, summary_array

PARAM_NAMES = ("kappa", "lambda")
METHODS = ("rejection", "loclinear", "neuralnet")
TRANSFORMS = ("none", "log")  # parameter transforms of the regression corrections
MIN_OBS = 4  # fewest observations per row: the summaries need two turning angles
CHUNK_ROWS = 256  # rows per task of generate_reference_table
# About this many table rows pick the column abc_reject searches. Over 232 desk
# observations the slabs picked held at most 0.3% of the rows more than the best
# column's on average (256 rows: 0.4%, 4096: 0.2%), for 57 us per pick on a
# 2-core VM (4096 rows: 200 us).
SAMPLE_ROWS = 1024


@dataclass(frozen=True)
class PriorSpec:
    """Independent uniform priors for (kappa, lambda) on finite ranges."""

    kappa_range: tuple[float, float] = (0.0, 100.0)
    lambda_range: tuple[float, float] = (0.0, 50.0)

    def __post_init__(self):
        for name, (lo, hi) in (
            ("kappa_range", self.kappa_range),
            ("lambda_range", self.lambda_range),
        ):
            if not 0.0 <= lo < hi < np.inf:  # a uniform prior needs finite bounds
                raise ValueError(f"{name} must satisfy 0 <= lo < hi < inf, got ({lo}, {hi})")

    @property
    def bounds(self):
        """Array of [[kappa_lo, kappa_hi], [lambda_lo, lambda_hi]]."""
        return np.array([self.kappa_range, self.lambda_range])

    def contains(self, kappa, lam):
        return (
            self.kappa_range[0] <= kappa <= self.kappa_range[1]
            and self.lambda_range[0] <= lam <= self.lambda_range[1]
        )


@dataclass(frozen=True)
class SimConfig:
    """Shared settings of every simulated trajectory in a table."""

    dt: float = 0.5
    min_obs: int = 1500

    def __post_init__(self):
        positive("dt", self.dt)
        at_least("min_obs", self.min_obs, MIN_OBS)


@dataclass(frozen=True)
class ReferenceTable:
    """Paired (parameter, summary) rows from prior-predictive simulation.

    The summaries are stored once, column-major, and :attr:`columns` is
    their transpose, a view. A table's arrays are treated as immutable once
    it is fitted against: its caches, the distance scales (:attr:`scales`)
    and the row order of each summary column searched (:meth:`order`), are
    computed on first use and kept on the instance, so writing into
    ``params`` or ``summaries`` afterwards leaves them stale.
    ``dataclasses.replace``, and so :meth:`without_row`, returns a new
    instance, which starts with none.
    """

    params: np.ndarray  # (K, 2) columns kappa, lambda
    summaries: np.ndarray  # (K, len(SUMMARY_NAMES)) columns in that order, Fortran-ordered
    prior: PriorSpec
    config: SimConfig
    seed: int
    n_resampled: int = 0
    _orders: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "summaries", np.asfortranarray(self.summaries))
        if len(self.params) != len(self.summaries):
            raise ValueError("params and summaries must have equal row counts")
        if not (np.all(np.isfinite(self.params)) and np.all(np.isfinite(self.summaries))):
            raise ValueError("every parameter and summary row must be finite")

    @classmethod
    def from_rows(cls, rows, prior, config, seed, n_resampled):
        """Table from an array with columns :data:`PARAM_NAMES` then
        :data:`SUMMARY_NAMES`; it copies both blocks (a one-row block is already
        Fortran-ordered)."""
        split = len(PARAM_NAMES)
        return cls(rows[:, :split].copy(), np.array(rows[:, split:], order="F"),
                   prior, config, seed, n_resampled)

    @property
    def n_rows(self):
        return len(self.params)

    @property
    def columns(self):
        """The summaries as a C-contiguous view, one row per summary column."""
        return self.summaries.T

    @cached_property
    def scales(self):
        """Read-only :func:`summary_scales` of this table, computed once."""
        scales = summary_scales(self)
        scales.flags.writeable = False
        return scales

    def order(self, column):
        """Read-only ``np.argsort`` of summary column ``column``, computed once."""
        if column not in self._orders:
            self._orders[column] = np.argsort(self.columns[column])
            self._orders[column].flags.writeable = False
        return self._orders[column]

    def without_row(self, index):
        """Copy of the table with one row removed (for leave-one-out fits)."""
        return replace(self, params=np.delete(self.params, index, axis=0),
                       summaries=np.delete(self.summaries, index, axis=0))


@dataclass(frozen=True)
class WeightedPosterior:
    """Weighted parameter draws from an ABC fit.

    ``delta`` is the realized distance threshold of the rejection step.
    :func:`abc_reject` also sets the accepted rows' summaries, distances and
    table indices and the table's scales and prior: a regression correction
    runs on that accepted set and refuses a posterior without it.

    Like a table's arrays, ``draws`` are treated as immutable: the stable
    ascending order of each draw column (:attr:`orders`), which
    :func:`weighted_quantile` and :func:`hpd_interval` share, is computed on
    first use and cached on the instance. ``dataclasses.replace``, and so
    every correction, returns a new instance, which starts with a fresh cache.
    """

    draws: np.ndarray  # (m, 2) columns kappa, lambda
    weights: np.ndarray  # (m,) nonnegative, summing to 1
    method: str
    epsilon: float
    delta: float
    summaries: np.ndarray | None = None
    distances: np.ndarray | None = None
    indices: np.ndarray | None = None
    scales: np.ndarray | None = field(default=None, repr=False)
    prior: PriorSpec | None = field(default=None, repr=False)
    n_projected: int = 0

    def __post_init__(self):
        if len(self.draws) != len(self.weights):
            raise ValueError("draws and weights must have equal lengths")
        if not np.all(np.isfinite(self.draws)):  # a concentration, a rate: name the column
            for name, column in zip(PARAM_NAMES, self.draws.T):
                entries(f"{name} draws", column, np.isfinite(column), "finite")
        if not np.all(self.weights >= 0):  # also False for NaN
            raise ValueError("weights must be nonnegative, not NaN")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def n_draws(self):
        return len(self.draws)

    @cached_property
    def orders(self):
        """The :func:`_stable_order` of each draw column, computed once."""
        return tuple(_stable_order(column) for column in self.draws.T)


def _param_index(parameter):
    if isinstance(parameter, str):
        try:
            return PARAM_NAMES.index(parameter)
        except ValueError:
            raise ValueError(
                f"unknown parameter {parameter!r}; expected one of {PARAM_NAMES}"
            ) from None
    index = int(parameter)
    if index not in (0, 1):
        raise ValueError(f"parameter index must be 0 or 1, got {index}")
    return index


# ---------------------------------------------------------------------------
# reference-table generation


def simulated_summaries(params, config, rng):
    """Summaries of a walk under ``params`` observed as every table row is, every
    ``config.dt`` for ``config.min_obs`` intervals (DegenerateTrackError if undefined)."""
    return summarize(observe_until(params, config.dt, config.min_obs, rng)).as_array()


def _reference_row(prior, config, base_seed, index):
    """Simulate one table row, resampling a draw of lambda exactly 0 with a
    bumped sub-stream (a simulated unit-speed track's summaries are always
    defined). Returns (kappa, lambda, *summaries, n_resamples)."""
    for attempt in range(1000):
        rng = stream(base_seed, index, bump=attempt)
        kappa = rng.uniform(*prior.kappa_range)
        lam = rng.uniform(*prior.lambda_range)
        if lam == 0.0:  # the walk needs a positive rate
            continue
        s = simulated_summaries(MovementParams(kappa=kappa, lam=lam), config, rng)
        return kappa, lam, *s, attempt
    raise RuntimeError(f"row {index}: exhausted resampling attempts")


# Bump whenever the rows a seed yields move (random streams, simulator or
# summaries), so tables cached under an older version are rebuilt.
SIMULATOR_VERSION = 1


def reference_rows(prior, config, base_seed, lo, hi):
    """Rows lo..hi-1 of the table as (array with columns :data:`PARAM_NAMES`
    then :data:`SUMMARY_NAMES`, total resamples)."""
    rows = np.empty((hi - lo, len(PARAM_NAMES) + len(SUMMARY_NAMES)))
    resamples = 0
    for offset, index in enumerate(range(lo, hi)):
        *values, attempts = _reference_row(prior, config, base_seed, index)
        rows[offset] = values
        resamples += attempts
    return rows, resamples


def chunk_bounds(n_rows, size):
    """(lo, hi) of the consecutive ``size``-row chunks of rows 0..n_rows-1."""
    edges = list(range(0, n_rows, size)) + [n_rows]
    return list(zip(edges[:-1], edges[1:]))


def reference_chunks(prior, config, seed, bounds, workers):
    """Yield ``reference_rows`` of each (lo, hi) in ``bounds``, in order.

    Chunks run on ``workers`` processes; row i draws from the stream
    ``seed XOR i`` alone, so the rows do not depend on the worker count.
    """
    return parallel.ordered_map(_chunk_rows, (prior, config, seed), bounds, workers)


def _chunk_rows(context, bounds):
    prior, config, seed = context
    lo, hi = bounds
    # looked up at call time, so a wrapper installed on the module sees every chunk
    return reference_rows(prior, config, seed, lo, hi)


def generate_reference_table(prior, n_sims, config, seed=0, workers=1):
    """Simulate ``n_sims`` prior-predictive rows, ``CHUNK_ROWS`` per task.

    Row i draws its parameters and trajectory from the stream
    ``seed XOR i``, so the table is bit-identical for any worker count.
    """
    at_least("n_sims", n_sims, 1)
    bounds = chunk_bounds(n_sims, CHUNK_ROWS)
    chunks = list(reference_chunks(prior, config, seed, bounds, workers))
    rows = np.vstack([r for r, _ in chunks])
    return ReferenceTable.from_rows(rows, prior, config, seed, int(sum(c for _, c in chunks)))


# ---------------------------------------------------------------------------
# rejection


def summary_scales(table):
    """Per-column scale for distance standardization.

    Median absolute deviation of each summary column; falls back to the
    sample standard deviation when the MAD is zero, and to 1 when both
    vanish or the column has one row, which has no sample deviation. Both
    medians of a column are :func:`_partition_median`, equal to
    ``np.median`` bit for bit at a fraction of its cost: a table's rows are
    finite, so ``np.median``'s NaN probe, a second partition index, buys
    nothing.
    """
    columns = table.columns
    work = np.empty(columns.shape[1])  # one column's scratch, partitioned by each median
    scales = np.empty(len(columns))
    for k, column in enumerate(columns):
        work[:] = column
        center = _partition_median(work)
        scales[k] = _partition_median(np.abs(np.subtract(column, center, out=work), out=work))
        if scales[k] == 0.0 and len(column) > 1:
            scales[k] = float(np.std(column, ddof=1))
        if scales[k] == 0.0 or not np.isfinite(scales[k]):
            scales[k] = 1.0
    return scales


def _partition_median(values):
    """``np.median`` of a finite 1-d array, which it partitions in place at
    one index: the upper middle. For an even count the lower middle is the
    largest entry left of it. The middles are summed from 0.0 and halved as
    ``np.median``'s mean does, so a median is never -0.0."""
    half = len(values) // 2
    values.partition(half)
    total = 0.0 + values[half]
    if len(values) % 2:
        return total
    return (values[:half].max() + total) / 2


def standardized_distances(table, s_obs, rows=None):
    """Euclidean distance of every table row, or of the rows indexed by
    ``rows``, to ``s_obs``, each summary divided by its
    :attr:`ReferenceTable.scales` entry.

    The squares are summed column by column, in the order of a row-wise sum,
    into one buffer; the only other temporary is the (summaries, n)
    difference, into which ``rows``' columns are gathered. A row's distance
    has the same bits whether it is computed alone, among ``rows`` or in the
    full scan.
    """
    if table.n_rows == 0:
        raise ValueError("reference table is empty")
    s_obs = summary_array(s_obs)
    scales = table.scales  # before z: a first computation of the scales does not overlap it
    if rows is None:
        z = np.subtract(table.columns, s_obs[:, None])
    else:
        z = np.take(table.columns, rows, axis=1)
        z -= s_obs[:, None]
    z /= scales[:, None]
    np.square(z, out=z)
    total = np.add(z[0], z[1])
    for row in z[2:]:
        total += row
    return np.sqrt(total, out=total)


def abc_reject(table, s_obs, epsilon):
    """Accept the ceil(epsilon * K) rows closest to the observed summaries.

    Ties at the acceptance boundary break by row index (stable sort);
    accepted draws carry uniform weights and the realized distance
    threshold delta.

    The result is exact: its indices, distances and delta are byte for byte
    those of ``_closest(standardized_distances(table, s_obs), n)``, the full
    scan. Mostly only the rows of :func:`_slab` reach the distances: 2n
    rows plus a slab around the observation in the row order of the summary
    column whose slab is narrowest, for the cost of sorting each column
    searched once per table (:meth:`ReferenceTable.order`). On the desk
    table the slab holds a median 2.5 / 3.0 / 16% of the rows at
    n = 100 / 1000 / 10000, and the full scan is almost never needed.
    """
    n_accept = _n_accept(epsilon, table.n_rows)
    s_obs = summary_array(s_obs)
    if not np.all(np.isfinite(s_obs)):
        raise ValueError(f"observed summaries must be finite, got {s_obs}")
    rows = _slab(table, s_obs, n_accept)
    distances = standardized_distances(table, s_obs, rows)
    nearest = _closest(distances, n_accept)
    accepted = nearest if rows is None else rows[nearest]
    return WeightedPosterior(
        draws=table.params[accepted],
        weights=np.full(n_accept, 1.0 / n_accept),
        method="rejection",
        epsilon=float(epsilon),
        delta=float(distances[nearest[-1]]),
        summaries=np.take(table.columns, accepted, axis=1).T,  # Fortran-ordered, like the table's
        distances=distances[nearest],
        indices=accepted.copy(),
        scales=table.scales,
        prior=table.prior,
    )


def _slab(table, s_obs, n):
    """Ascending indices of a set of rows holding every row within the n-th
    smallest distance to ``s_obs``, or None where the full scan costs less:
    when 2n rows are not fewer than the table's, or the slab holds more than
    half of them (sorting its indices then costs more than the scan saves).

    The slab lies along the column :func:`_narrowest_column` picks, the
    key. The radius is the n-th smallest distance of the 2n rows nearest
    ``s_obs`` in key order: n real rows lie within it, so it bounds the n-th
    nearest distance from above. Every row within the radius then has
    |key - s_key| <= radius * scale, up to rounding, where scale is the
    key's entry of the scales, because each step of its float distance is
    monotone (subtract, divide, square, a sum of nonnegative terms, sqrt):
    the distance is at least its key term's, which is |key - s_key| / scale
    within a few parts in 1e16, or below 2^-500 when its square underflows.
    The slab's half-width adds a relative 1e-9 and an absolute
    scale * 2^-480 to cover both. Its bounds' own rounding needs no margin:
    rounding is monotone and every key is a float, so a key within the real
    bound is within the rounded one. So any column gives the same result.
    """
    if 2 * n >= table.n_rows:
        return None
    column = _narrowest_column(table, s_obs, n)
    order, key, s_key = table.order(column), table.columns[column], s_obs[column]
    start = int(np.searchsorted(key, s_key, sorter=order)) - n
    start = min(max(start, 0), table.n_rows - 2 * n)
    near = standardized_distances(table, s_obs, order[start:start + 2 * n])
    radius = np.partition(near, n - 1)[n - 1]
    scale = table.scales[column]
    half = radius * scale * (1.0 + 1e-9) + scale * 2.0**-480
    first = np.searchsorted(key, s_key - half, side="left", sorter=order)
    stop = np.searchsorted(key, s_key + half, side="right", sorter=order)
    return np.sort(order[first:stop]) if 2 * (stop - first) <= table.n_rows else None


def _narrowest_column(table, s_obs, n):
    """Index of the summary column whose slab around ``s_obs`` holds the
    fewest rows of a fixed sample, every ceil(K / SAMPLE_ROWS)-th row, at the
    sample's estimate of the radius: the ceil(n m / K)-th smallest of the m
    sampled rows' squared standardized distances. Ties go to the first."""
    sample = table.columns[:, :: -(-table.n_rows // SAMPLE_ROWS)]
    squares = np.square((sample - s_obs[:, None]) / table.scales[:, None])
    squared = squares.sum(axis=0)
    k = -(-n * sample.shape[1] // table.n_rows)
    squared_radius = np.partition(squared, k - 1)[k - 1]
    return int(np.argmin(np.count_nonzero(squares <= squared_radius, axis=1)))


def narrow(accepted, epsilon, n_rows):
    """:func:`abc_reject` at ``epsilon`` from its result ``accepted`` at a
    wider epsilon, against the same ``n_rows``-row table and observation.

    Both accept a prefix of one stable order of the same distances, so the
    narrower posterior is the first ceil(epsilon * n_rows) accepted rows,
    with their own uniform weights and delta. Its row arrays are views of
    ``accepted``'s, which are treated as immutable.
    """
    n_accept = _n_accept(epsilon, n_rows)
    if n_accept > accepted.n_draws:
        raise ValueError(f"epsilon {epsilon} accepts more than the {accepted.n_draws} rows "
                         f"accepted at {accepted.epsilon}")
    return replace(
        accepted,
        draws=accepted.draws[:n_accept],
        weights=np.full(n_accept, 1.0 / n_accept),
        epsilon=float(epsilon),
        delta=float(accepted.distances[n_accept - 1]),
        summaries=accepted.summaries[:n_accept],
        distances=accepted.distances[:n_accept],
        indices=accepted.indices[:n_accept],
    )


def _n_accept(epsilon, n_rows):
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return int(np.ceil(epsilon * n_rows))


def _closest(distances, n):
    """The first ``n`` entries of the stable argsort of ``distances``.

    Only the rows within the n-th smallest distance are sorted; ties keep
    row order, as in the full stable sort.
    """
    near = np.flatnonzero(distances <= np.partition(distances, n - 1)[n - 1])
    return near[_stable_order(distances[near])][:n]


def _stable_order(values):
    """``np.argsort(values, kind="stable")``, by the default sort when it can.

    The default sort's order differs from the stable one only inside runs of
    equal values, so those runs are put in index order by an argsort of the
    unique integer keys ``run * len(values) + index``; there are none when
    the values it ranks strictly increase. NaN falls back to the stable sort.
    """
    order = np.argsort(values)
    ranked = values[order]
    if ranked.size and np.isnan(ranked[-1]):  # NaN sorts last
        return np.argsort(values, kind="stable")
    rises = ranked[1:] > ranked[:-1]
    if np.all(rises):
        return order
    runs = np.zeros(len(order), dtype=order.dtype)
    np.cumsum(rises, out=runs[1:])
    return order[np.argsort(runs * len(order) + order)]


# ---------------------------------------------------------------------------
# regression corrections

_DESIGN_NAMES = ("intercept",) + SUMMARY_NAMES


def _kernel_weights(distances, delta):
    """Epanechnikov weights 1 - (d/delta)^2; unit weights when no accepted row
    lies strictly inside delta (delta is 0, or every distance equals it)."""
    if delta > 0.0 and np.any(distances < delta):
        return np.clip(1.0 - (distances / delta) ** 2, 0.0, None)
    return np.ones_like(distances)


def _collinear_columns(weighted_design):
    # imported here, not at start-up: only a singular regression reaches this,
    # rarely enough that a pool worker importing scipy.linalg (about 60 ms)
    # costs less than every process loading it
    import scipy.linalg

    _, r, pivots = scipy.linalg.qr(weighted_design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag[0] * max(weighted_design.shape) * np.finfo(float).eps if diag[0] else 0.0
    rank = int(np.sum(diag > tol))
    return [_DESIGN_NAMES[c] for c in sorted(pivots[rank:])]


def _prepare_regression(accepted, s_obs, transform):
    s_obs = summary_array(s_obs)
    missing = [name for name in ("summaries", "distances", "scales", "prior")
               if getattr(accepted, name) is None]
    if missing:
        raise ValueError(f"posterior lacks the accepted {', '.join(missing)}; run abc_reject first")
    m, n_cols = accepted.summaries.shape
    if m <= n_cols + 1:
        raise ValueError(
            f"need more than {n_cols + 1} accepted rows for a regression, got {m}"
        )
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    theta = accepted.draws
    if transform == "log":
        if np.any(theta <= 0):
            raise ValueError("log transform requires strictly positive draws")
        theta = np.log(theta)
    z = (accepted.summaries - s_obs) / accepted.scales
    w = _kernel_weights(accepted.distances, accepted.delta)
    return z, theta, w


def _finalize_posterior(accepted, corrected, w, transform, method):
    if transform == "log":
        corrected = np.exp(corrected)
    bounds = accepted.prior.bounds
    clipped = np.clip(corrected, bounds[:, 0], bounds[:, 1])
    n_projected = int(np.sum(np.any(clipped != corrected, axis=1)))
    return replace(
        accepted,
        draws=clipped,
        weights=w / float(np.sum(w)),
        method=method,
        n_projected=n_projected,
    )


def loclinear_adjust(accepted, s_obs, transform="none"):
    """Local-linear regression correction of accepted draws.

    Fits a kernel-weighted linear regression of each parameter on the
    standardized summaries and moves every accepted draw by the fitted
    shift: corrected_i = m(s_obs) + residual_i. Output weights are the
    (normalized) kernel weights; corrected draws outside the prior support
    are projected to its boundary. ``accepted`` must come from :func:`abc_reject`.

    Raises
    ------
    SingularRegressionError
        If the weighted design matrix is rank deficient.
    """
    z, theta, w = _prepare_regression(accepted, s_obs, transform)
    design = np.column_stack((np.ones(len(z)), z))
    sqrt_w = np.sqrt(w)
    a = design * sqrt_w[:, None]
    beta, _, rank, _ = np.linalg.lstsq(a, theta * sqrt_w[:, None], rcond=None)
    if rank < design.shape[1]:
        raise SingularRegressionError(_collinear_columns(a))
    corrected = beta[0] + (theta - design @ beta)
    return _finalize_posterior(accepted, corrected, w, transform, "loclinear")


def neuralnet_adjust(accepted, s_obs, net_config=nnet.NetConfig(), transform="none"):
    """Neural-network regression correction of accepted draws.

    Same correction scheme as :func:`loclinear_adjust` but with the
    conditional mean fitted by a single-hidden-layer network on the
    kernel-weighted data (targets standardized internally). Deterministic
    given the accepted set and the network config.
    """
    z, theta, w = _prepare_regression(accepted, s_obs, transform)
    if len(z) < 10 * net_config.n_hidden:
        raise ValueError(
            f"need at least {10 * net_config.n_hidden} accepted rows for "
            f"{net_config.n_hidden} hidden units, got {len(z)}"
        )
    w_norm = w / float(np.sum(w))
    center = w_norm @ theta
    spread = np.sqrt(w_norm @ (theta - center) ** 2)
    spread[spread == 0.0] = 1.0
    y = (theta - center) / spread
    flat, shapes = nnet.train(z, y, w, net_config)
    fitted = nnet.predict(flat, shapes, z)
    m_obs = nnet.predict(flat, shapes, np.zeros((1, z.shape[1])))[0]
    corrected = (m_obs + (y - fitted)) * spread + center
    return _finalize_posterior(accepted, corrected, w, transform, "neuralnet")


def fit(table, s_obs, method, epsilon, transform="none"):
    """Run one ABC fit: rejection plus the requested correction."""
    _check_method(method)
    return adjust(abc_reject(table, s_obs, epsilon), s_obs, method, transform)


def adjust(accepted, s_obs, method, transform="none"):
    """Apply ``method``'s correction to a rejection posterior.

    One rejection pass can serve every method at its epsilon; "rejection"
    returns ``accepted`` itself.
    """
    _check_method(method)
    if method == "loclinear":
        return loclinear_adjust(accepted, s_obs, transform=transform)
    if method == "neuralnet":
        return neuralnet_adjust(accepted, s_obs, transform=transform)
    return accepted


def _check_method(method):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# posterior functionals


def weighted_quantile(posterior, parameter, q):
    """Smallest draw whose cumulative weight reaches ``q`` (ascending sort)."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got {q}")
    if posterior.n_draws == 0:
        raise ValueError("posterior is empty")
    index = _param_index(parameter)
    values = posterior.draws[:, index]
    order = posterior.orders[index]
    cumulative = np.cumsum(posterior.weights[order])
    cumulative /= cumulative[-1]
    position = int(np.searchsorted(cumulative, q, side="left"))
    return float(values[order[min(position, len(order) - 1)]])


def hpd_interval(posterior, parameter, alpha):
    """Shortest interval between draws containing at least ``alpha`` mass.

    Ties in width resolve to the smallest lower endpoint. Mass comparisons
    carry a 1e-12 slack so float-accumulated weights behave like their
    exact values: the window from sorted draw ``lo`` to ``hi`` holds
    ``alpha`` when ``cumulative[hi + 1] - cumulative[lo] >= alpha - 1e-12``,
    with ``cumulative`` the running weight sum from 0.

    The search is exact and vectorized over ``lo``. A float difference
    grows with its first operand, so for each ``lo`` the windows holding
    ``alpha`` are those whose running sum reaches the smallest float
    ``u`` with ``u - cumulative[lo] >= alpha - 1e-12``. That threshold is
    found by stepping from ``cumulative[lo] + alpha - 1e-12`` one float at
    a time (it lies within a few floats), and one ``searchsorted`` gives
    every ``lo``'s shortest ``hi``. Once no ``hi`` reaches ``alpha``, no
    later ``lo`` does either. If no window holds ``alpha`` (total mass
    below it, a numerical edge), the interval spans every draw.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if posterior.n_draws == 0:
        raise ValueError("posterior is empty")
    index = _param_index(parameter)
    order = posterior.orders[index]
    values = posterior.draws[order, index]
    weights = posterior.weights[order] / float(np.sum(posterior.weights))
    cumulative = np.concatenate(([0.0], np.cumsum(weights)))
    target = alpha - 1e-12
    start = cumulative[:-1]
    reach = start + target
    # NaN weights make both steps' tests false, as they do the mass test
    while np.any(step := reach - start < target):
        reach[step] = np.nextafter(reach[step], np.inf)
    while np.any(step := np.nextafter(reach, -np.inf) - start >= target):
        reach[step] = np.nextafter(reach[step], -np.inf)
    hi = np.maximum(np.searchsorted(cumulative[1:], reach), np.arange(len(values)))
    lo = np.flatnonzero(hi < len(values))
    widths = values[hi[lo]] - values[lo]
    finite = widths < np.inf  # a NaN or infinite width never wins
    if not np.any(finite):  # total mass below alpha (numerical edge)
        return float(values[0]), float(values[-1])
    best = lo[np.argmin(np.where(finite, widths, np.inf))]
    return float(values[best]), float(values[hi[best]])
