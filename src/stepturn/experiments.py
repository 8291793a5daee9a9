"""Evaluation protocol: cross-validation metrics, coverage diagnostics,
observation-scale scans, and a direct conjugate/grid fit on decomposed
steps and turns.

Cross-validation and the r-scan return reports that hold only their flat
records, one per (method, epsilon or R, replicate, parameter), grouped once
into ``cells`` keyed by (method, epsilon or R, parameter); the prediction
error, the MD index and each ``coverage_report`` entry, the one
``coverage_summary.json`` holds, read one cell.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.special import gammaincinv, i0e

from .densities import trapezoid_cdf
from .errors import INF, ImproperPosteriorError, at_least, distinct, positive
from .inference import (
    METHODS,
    PARAM_NAMES,
    _param_index,
    abc_reject,
    adjust,
    hpd_interval,
    narrow,
    simulated_summaries,
    weighted_quantile,
)
from .movement import MovementParams, check_steps
from .parallel import ordered_map
from .streams import stream
from .summaries import kappa_estimate

DEFAULT_CONSTRAINT = (70.0, 25.0)  # kappa_max, lambda_max for pseudo-observations
KAPPA_GRID_POINTS = 4001  # nodes of direct_fit's concentration grid
INTERVAL_MASS = 0.95  # mass of every posterior interval, as in the paper


def _paired(true_values, medians):
    """Both as float arrays, checked to be equal-length, non-empty and 1-d."""
    true_values = np.asarray(true_values, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if true_values.shape != medians.shape or true_values.ndim != 1 or len(true_values) == 0:
        raise ValueError("true_values and medians must be equal-length non-empty 1-d")
    return true_values, medians


def prediction_error(true_values, medians):
    """Root mean squared deviation of posterior medians from the truth."""
    true_values, medians = _paired(true_values, medians)
    return float(np.sqrt(np.sum((medians - true_values) ** 2) / len(true_values)))


def md_index(true_values, medians):
    """Mean absolute deviation of the medians relative to the truth."""
    true_values, medians = _paired(true_values, medians)
    if np.any(true_values == 0):
        raise ValueError("md_index requires all true values nonzero")
    return float(np.mean(np.abs(medians - true_values) / np.abs(true_values)))


def coverage_pvalue(posterior, parameter, truth):
    """Posterior mass strictly below ``truth`` plus half the mass at it."""
    values = posterior.draws[:, _param_index(parameter)]
    weights = posterior.weights / float(np.sum(posterior.weights))
    below = float(np.sum(weights[values < truth]))
    at = float(np.sum(weights[values == truth]))
    return below + 0.5 * at


def _truths_and_medians(records):
    return [r.truth for r in records], [r.median for r in records]


@dataclass(frozen=True)
class _Report:
    """Records keyed by (method, the value of the record column ``_column``,
    param); ``cells`` groups them once, and each metric reads one cell."""

    records: list

    @cached_property
    def cells(self):
        """The records of each (method, ``_column`` value, param), in sorted key order."""
        if not self.records:
            raise ValueError("no replicate records")
        groups = defaultdict(list)
        for r in self.records:
            groups[(r.method, getattr(r, self._column), r.param)].append(r)
        return {key: groups[key] for key in sorted(groups)}

    def prediction_error(self, method, value, param):
        return prediction_error(*_truths_and_medians(self.cells[method, value, param]))

    def md_index(self, method, value, param):
        return md_index(*_truths_and_medians(self.cells[method, value, param]))


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class ReplicateRecord:
    method: str
    epsilon: float
    rep: int
    param: str
    truth: float
    median: float
    hpd_lo: float
    hpd_hi: float
    p: float


@dataclass(frozen=True)
class CrossValReport(_Report):
    _column = "epsilon"


def _fits(table, s_obs, methods, epsilons):
    """Yield ``(method, epsilon, posterior)`` for every pair, fitted against
    ``table``; one rejection pass, at the widest epsilon, serves them all."""
    widest = abc_reject(table, s_obs, max(epsilons))
    accepted = [narrow(widest, epsilon, table.n_rows) for epsilon in epsilons]
    for method in methods:
        for epsilon, sample in zip(epsilons, accepted):
            yield method, epsilon, adjust(sample, method)


def _crossval_replicate(context, task):
    rep, row = task
    table, methods, epsilons = context
    truth = table.params[row]
    s_obs = table.summaries[row]
    records = []
    for method, epsilon, post in _fits(table.without_row(row), s_obs, methods, epsilons):
        for k, name in enumerate(PARAM_NAMES):
            hpd_lo, hpd_hi = hpd_interval(post, k, INTERVAL_MASS)
            records.append(
                ReplicateRecord(
                    method=method,
                    epsilon=float(epsilon),
                    rep=rep,
                    param=name,
                    truth=float(truth[k]),
                    median=weighted_quantile(post, k, 0.5),
                    hpd_lo=hpd_lo,
                    hpd_hi=hpd_hi,
                    p=coverage_pvalue(post, k, truth[k]),
                )
            )
    return records


def cross_validate(
    table,
    methods=METHODS,
    epsilons=(0.1, 0.01, 0.005, 0.001),
    n_rep=100,
    constraint=DEFAULT_CONSTRAINT,
    seed=0,
    workers=1,
):
    """Leave-one-out assessment over pseudo-observations from the table.

    Each replicate removes one constrained row, treats its summaries as
    the observation, and fits every (method, epsilon) combination against
    the remaining rows; all of them share one rejection pass, at the
    widest epsilon. A repeated method or epsilon raises ValueError.
    ``constraint = (kappa_max, lambda_max)`` keeps pseudo-observations
    away from the upper prior limits; pass None to sample from the whole
    table.

    The constraint is meant for prediction-error cross-validation.
    Empirical coverage and the uniformity of the coverage p-values
    (``coverage_report``) presume truths drawn from the prior the
    posterior uses, so compute them with ``constraint=None``: truths from
    a corner of the prior leave a calibrated posterior short of its
    nominal coverage and its p-values skewed.
    """
    at_least("n_rep", n_rep, 1)
    distinct("methods", methods)
    distinct("epsilons", epsilons)
    bounds = (INF, INF) if constraint is None else constraint  # (kappa_max, lambda_max)
    for name, bound in zip(PARAM_NAMES, bounds):
        at_least(f"constraint on {name}", bound, 0.0)
    eligible = np.flatnonzero(np.all(table.params <= np.asarray(bounds), axis=1))
    if len(eligible) < n_rep:
        raise ValueError(
            f"only {len(eligible)} rows satisfy the constraint; need n_rep={n_rep}"
        )
    chosen = stream(seed, 0).choice(eligible, size=n_rep, replace=False)
    tasks = [(rep, int(row)) for rep, row in enumerate(chosen)]
    context = (table, tuple(methods), tuple(epsilons))
    results = ordered_map(_crossval_replicate, context, tasks, workers)
    records = [record for sub in results for record in sub]
    return CrossValReport(records=records)


def coverage_report(crossval):
    """``{cell key: entry}`` in ``crossval.cells`` order, each the entry of
    ``coverage_summary.json``: the fraction of truths inside the recorded
    ``INTERVAL_MASS`` HPD, the KS test of the coverage p-values against
    U(0, 1), their mean and their 20-bin histogram over [0, 1]."""
    # imported here, in the pool's parent: scipy.stats loads scipy.optimize,
    # scipy.linalg and scipy.sparse, about half the start-up of every command
    # that never calls it (all but coverage). Code that fork-pool workers run
    # must not import it at all, or each worker loads it anew; so direct_fit,
    # which may run inside an r-scan cell, calls scipy.special instead.
    from scipy.stats import kstest

    report = {}
    for key, recs in crossval.cells.items():
        p_values = np.array([r.p for r in recs])
        ks = kstest(p_values, "uniform")
        report[key] = {
            "empirical_coverage": sum(r.hpd_lo <= r.truth <= r.hpd_hi for r in recs) / len(recs),
            "ks_statistic": float(ks.statistic),
            "ks_pvalue": float(ks.pvalue),
            "mean_p": float(np.mean(p_values)),
            "histogram": np.histogram(p_values, bins=20, range=(0.0, 1.0))[0].tolist(),
        }
    return report


# ---------------------------------------------------------------------------
# observation-scale scan


@dataclass(frozen=True)
class RScanRecord:
    method: str
    r_value: float
    kappa_true: float
    rep: int
    param: str
    truth: float
    median: float


@dataclass(frozen=True)
class RScanReport(_Report):
    _column = "r_value"


def _rscan_cell(context, task):
    cell_index, r_value, params = task
    table, methods, epsilon, n_per_cell, seed = context
    records = []
    for rep in range(n_per_cell):
        rng = stream(seed, cell_index * n_per_cell + rep)
        s_obs = simulated_summaries(params, table.config, rng)
        for method, _, post in _fits(table, s_obs, methods, (epsilon,)):
            for k, name in enumerate(PARAM_NAMES):
                records.append(
                    RScanRecord(
                        method=method,
                        r_value=float(r_value),
                        kappa_true=params.kappa,
                        rep=rep,
                        param=name,
                        truth=(params.kappa, params.lam)[k],
                        median=weighted_quantile(post, k, 0.5),
                    )
                )
    return records


def r_scan(
    table,
    r_values,
    kappa_values,
    n_per_cell=50,
    methods=METHODS,
    epsilon=0.001,
    seed=0,
    workers=1,
):
    """Prediction errors on fresh trajectories over a grid of R = lam * dt.

    Each (R, kappa) cell simulates ``n_per_cell`` trajectories with
    lam = R / dt, summarizes each as the table's rows were
    (:func:`~stepturn.inference.simulated_summaries`), and fits them
    against the table. A repeated method, R or kappa, or a cell with no valid
    walk (a NaN or nonpositive R, or a NaN or negative kappa), raises
    ValueError naming it before any cell runs; a valid cell whose implied
    parameters fall outside the table's prior support is skipped with a warning.
    """
    at_least("n_per_cell", n_per_cell, 1)
    cells = []
    for cell_index, (r_value, kappa_true) in enumerate(product(r_values, kappa_values)):
        try:  # each cell's walk, checked before any cell runs and carried to its task
            params = MovementParams(kappa=float(kappa_true), lam=float(r_value) / table.config.dt)
        except ValueError as exc:
            raise ValueError(f"r_scan cell R={r_value:g}, kappa={kappa_true:g}: {exc}") from None
        if not table.prior.contains(params.kappa, params.lam):
            warnings.warn(
                f"skipping cell R={r_value:g}, kappa={kappa_true:g}: implied "
                f"lambda={params.lam:g} or kappa={kappa_true:g} outside prior support"
            )
        else:
            cells.append((cell_index, float(r_value), params))
    distinct("methods", methods)
    distinct("r_values", r_values)
    distinct("kappa_values", kappa_values)
    context = (table, tuple(methods), float(epsilon), n_per_cell, seed)
    results = ordered_map(_rscan_cell, context, cells, workers)
    records = [record for sub in results for record in sub]
    return RScanReport(records=records)


# ---------------------------------------------------------------------------
# direct fit on decomposed steps and turns


@dataclass(frozen=True)
class DirectFitResult:
    """Conjugate rate posterior and grid concentration posterior."""

    lambda_median: float
    lambda_interval: tuple[float, float]
    lambda_point: float
    kappa_median: float
    kappa_interval: tuple[float, float]
    kappa_point: float
    at_grid_bound: bool = False


def direct_fit(durations, turns, a0=1.0, b0=0.0, kappa_grid_max=200.0):
    """Fit (lambda, kappa) from known step durations and turning angles.

    The rate posterior is the conjugate Gamma(n + a0, sum(t) + b0) with a
    flat-limit default prior (a0 = 1, b0 = 0). The concentration gets a
    1-d grid posterior under the von Mises likelihood with a uniform prior
    on [0, kappa_grid_max], plus the point estimate of summary s2
    (:func:`~stepturn.summaries.kappa_estimate`).
    Intervals are central (equal-tailed) at mass ``INTERVAL_MASS``.
    """
    positive("kappa_grid_max", kappa_grid_max)
    durations = np.asarray(durations, dtype=float)
    turns = np.asarray(turns, dtype=float)
    if len(durations) < 2 or len(turns) < 2:
        raise ValueError("need at least 2 durations and 2 turning angles")
    check_steps(durations, turns)
    n_dur = len(durations)
    shape, rate = n_dur + a0, float(durations.sum()) + b0
    if not (shape > 0 and rate > 0):  # also refuses NaN
        raise ImproperPosteriorError(
            f"improper rate posterior: shape n + a0 = {shape} and rate "
            f"sum(durations) + b0 = {rate} must both be > 0")
    # the rate posterior's quantiles as scipy.stats.gamma(a, scale=scale).ppf computes them
    lo = (1.0 - INTERVAL_MASS) / 2.0
    lambda_lo, lambda_median, lambda_hi = gammaincinv(shape, (lo, 0.5, 1.0 - lo)) * (1.0 / rate)

    mean_cos = float(np.mean(np.cos(turns)))
    grid = np.linspace(0.0, kappa_grid_max, KAPPA_GRID_POINTS)
    # log I0(k) = k + log(i0e(k)) keeps large concentrations finite
    log_lik = len(turns) * (grid * mean_cos - grid - np.log(i0e(grid)) - np.log(2.0 * np.pi))
    density = np.exp(log_lik - log_lik.max())
    density = density / np.trapezoid(density, grid)
    cdf = trapezoid_cdf(grid, density)
    at_bound = bool(np.argmax(density) == len(grid) - 1)
    if at_bound:
        warnings.warn("concentration posterior peaks at the grid upper bound; "
                      "increase kappa_grid_max")
    kappa_median = float(np.interp(0.5, cdf, grid))
    kappa_interval = (float(np.interp(lo, cdf, grid)), float(np.interp(1.0 - lo, cdf, grid)))
    return DirectFitResult(
        lambda_median=float(lambda_median),
        lambda_interval=(float(lambda_lo), float(lambda_hi)),
        lambda_point=float(n_dur / durations.sum()),
        kappa_median=kappa_median,
        kappa_interval=kappa_interval,
        kappa_point=kappa_estimate(mean_cos),
        at_grid_bound=at_bound,
    )
