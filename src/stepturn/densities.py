"""Change-of-variable densities of the walk's displacement building blocks.

``f_V`` is the density of V = cos(phi) for a von Mises turning angle;
``f_Z`` the density of Z = cos(phi) * t with an independent exponential
duration; ``f_S`` the density of S = cos(phi) * (c - W) with an
independent Gamma-distributed elapsed time W. All three are evaluated by
adaptive quadrature in the angle domain, where the 1/sqrt(1 - v^2)
endpoint singularity of f_V disappears; the product-density Jacobian is
included throughout. Each density has an interior integrable singularity
at 0 (and f_V at +-1), so grids exclude those points.

A normalization checks the parameters its density checks. The grid and the
normalization of f_Z share the support |z| <= -log(F_Z_TAIL) / lam, whose
tails hold F_Z_TAIL = 1e-7 of the mass; those of f_S share |s| <= max(c,
|c - w|), w the Gamma quantile above which F_S_TAIL = 1e-8 of W's mass lies.

A Monte Carlo check compares each gridded density's CDF against draws of
the corresponding random variable with a Kolmogorov-Smirnov statistic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaincinv, gammaln, i0e

# scipy.integrate is imported inside the three functions that integrate (of
# the commands, only oracle-check reaches them): it loads scipy.optimize, scipy.linalg and
# scipy.sparse, about half the start-up of every process. The Gamma tail and
# quantile call the scipy.special functions scipy.stats.gamma wraps, so f_S's
# support needs no scipy.stats either, wherever it runs.

from .errors import QuadratureError, at_least, nonnegative, positive

#: asymptotic 1% critical value constant for the one-sample KS test
KS_COEFF_1PCT = 1.63
F_Z_TAIL, F_S_TAIL = 1e-7, 1e-8  # the truncations (see above)


def _quad_checked(func, a, b, epsabs, points=None):
    """quad with quadpack chatter converted into the achieved-error
    contract: returns (value, abserr) and leaves judging the error to the
    caller."""
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(func, a, b, points=points, epsabs=epsabs, epsrel=1e-10, limit=300)


def _check(kappa, lam=1.0, n=1, c=1.0):
    """The parameter checks of f_V (kappa), f_Z (kappa, lam) and f_S (all)."""
    nonnegative("kappa", kappa)
    positive("lam", lam)
    positive("c", c)
    at_least("n", n, 1)


def _z_max(kappa, lam):
    """Half-width of f_Z's truncated support (checked parameters)."""
    _check(kappa, lam)
    return -np.log(F_Z_TAIL) / lam


def _s_max(kappa, lam, n, c):
    """Half-width of f_S's truncated support (checked parameters)."""
    _check(kappa, lam, n, c)
    w_max = float(gammaincinv(n, 1.0 - F_S_TAIL) * (1.0 / lam))
    return max(c, abs(c - w_max)) + 1e-9


def _normalization(density, half_width, points):
    """Integral over (-half_width, half_width) of ``density``, singular at 0."""
    from scipy.integrate import quad

    tol = 1e-6
    value, err = quad(lambda x: 0.0 if x == 0.0 else density(x), -half_width, half_width,
                      points=points, epsabs=tol / 10.0, epsrel=tol / 10.0, limit=400)
    if err > tol:
        raise QuadratureError(err, tol)
    return value


def f_v_density(v, kappa):
    """Density of V = cos(phi), phi ~ vM(0, kappa), on (-1, 1).

    Equals exp(kappa v) / (pi I0(kappa) sqrt(1 - v^2)); the arcsine law
    at kappa = 0.
    """
    _check(kappa)
    arr = np.asarray(v, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("f_v_density requires -1 < v < 1")
    out = np.exp(kappa * (arr - 1.0)) / (np.pi * i0e(kappa) * np.sqrt(1.0 - arr * arr))
    return float(out) if arr.ndim == 0 else out


def f_v_normalization(kappa):
    """Integral of f_V over (-1, 1) via the singularity-removing
    substitution v = sin(u)."""
    from scipy.integrate import quad

    _check(kappa)
    tol = 1e-9
    value, err = quad(lambda u: np.exp(kappa * (np.sin(u) - 1.0)) / (np.pi * i0e(kappa)),
                      -np.pi / 2.0, np.pi / 2.0, epsabs=tol, epsrel=tol, limit=200)
    if err > 10.0 * tol + 1e-12:
        raise QuadratureError(err, tol)
    return value


def f_z_density(z, kappa, lam, epsabs=1e-11):
    """Density of Z = cos(phi) * t, t ~ Exp(lam) independent of phi.

    Evaluated as the angle-domain integral
    int f_phi(psi) lam exp(-lam |z| / cos psi) / cos psi dpsi over
    (-pi/2, pi/2), with the von Mises density reflected for z < 0. Not
    defined at z = 0 (logarithmic singularity).
    """
    _check(kappa, lam)
    arr = np.asarray(z, dtype=float)
    if arr.ndim == 0:
        return _f_z_scalar(float(arr), kappa, lam, epsabs)
    return np.array([_f_z_scalar(float(x), kappa, lam, epsabs) for x in arr])


def _f_z_scalar(z, kappa, lam, epsabs):
    if z == 0.0:
        raise ValueError("f_Z is singular at z = 0; evaluate on nodes excluding 0")
    sign = 1.0 if z > 0 else -1.0
    mag = abs(z)

    def integrand(psi):
        c = np.cos(psi)
        if c <= 0.0:
            return 0.0
        expo = sign * kappa * (c - sign) - lam * mag / c
        # sign=+1: kappa (c - 1) matches the i0e scaling; sign=-1 gives
        # kappa (-c - 1) for the reflected von Mises lobe
        return lam * np.exp(expo) / (2.0 * np.pi * i0e(kappa) * c)

    value, abserr = _quad_checked(integrand, -np.pi / 2.0, np.pi / 2.0, epsabs)
    if abserr > max(100.0 * epsabs, 1e-7 * (1.0 + abs(value))):
        raise QuadratureError(abserr, epsabs)
    return value


def f_z_normalization(kappa, lam):
    """Integral of f_Z over its truncated support."""
    return _normalization(lambda z: _f_z_scalar(z, kappa, lam, 1e-11), _z_max(kappa, lam),
                          [0.0])


def f_s_density(s, kappa, lam, n, c, epsabs=1e-11):
    """Density of S = cos(phi) * (c - W), W ~ Gamma(n, lam) independent.

    ``n`` is the integer Gamma shape (a sum of n exponential durations)
    and ``c`` the elapsed-time constant. Evaluated in the angle domain;
    singular at s = 0.
    """
    _check(kappa, lam, n, c)
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 0:
        return _f_s_scalar(float(arr), kappa, lam, int(n), c, epsabs)
    return np.array([_f_s_scalar(float(x), kappa, lam, int(n), c, epsabs) for x in arr])


def _gamma_tail(n, lam, w):
    """P(W > w) for W ~ Gamma(shape n, rate lam), as scipy.stats.gamma(a=n,
    scale=1 / lam).sf(w) computes it."""
    return gammaincc(n, w / (1.0 / lam))


def _log_f_w(w, lam, n):
    return n * np.log(lam) + (n - 1) * np.log(w) - lam * w - gammaln(n)


def _f_s_scalar(s, kappa, lam, n, c, epsabs):
    """Product-density integral of S = V * (c - W) in the elapsed-time
    variable w = c - y, where the Gamma factor decays from a known
    endpoint at scale 1/lam (hinted to the quadrature)."""
    if s == 0.0:
        raise ValueError("f_S is singular at s = 0; evaluate on nodes excluding 0")

    def integrand(w, flip):
        # flip selects the y < 0 branch (w > c); |y| = |c - w|
        y = c - w
        if w <= 0.0 or (flip and y >= 0.0) or (not flip and y <= 0.0):
            return 0.0
        v = s / y
        if abs(v) >= 1.0:
            return 0.0
        log_fv = kappa * (v - 1.0) - np.log(np.pi * i0e(kappa) * np.sqrt(1.0 - v * v))
        return np.exp(log_fv + _log_f_w(w, lam, n)) / abs(y)

    def decay_points(start, stop):
        pts = [start + k / lam for k in (1.0, 4.0, 16.0, 64.0)]
        return [p for p in pts if start < p < stop] or None

    total = total_err = 0.0
    # region y in (|s|, c]: w in (0, c - |s|); the f_V edge singularity at
    # the right endpoint is removed by the substitution w = upper - u^2
    upper = c - abs(s)
    if upper > 0.0:
        pts = decay_points(0.0, upper)
        u_pts = sorted(np.sqrt(upper - p) for p in pts) if pts else None
        value, abserr = _quad_checked(lambda u: 2.0 * u * integrand(upper - u * u, False),
                                      0.0, np.sqrt(upper), epsabs / 2.0, points=u_pts)
        total += value
        total_err += abserr
    # region y < -|s|: w in (c + |s|, w_max) with the edge at the left
    # endpoint (w = lower + u^2); skipped when the Gamma tail beyond it
    # carries no measurable mass
    lower = c + abs(s)
    if _gamma_tail(n, lam, lower) > 1e-18:
        w_max = lower + max(80.0, 8.0 * n) / lam
        pts = decay_points(lower, w_max)
        u_pts = sorted(np.sqrt(p - lower) for p in pts) if pts else None
        value, abserr = _quad_checked(lambda u: 2.0 * u * integrand(lower + u * u, True),
                                      0.0, np.sqrt(w_max - lower), epsabs / 2.0, points=u_pts)
        total += value
        total_err += abserr
    if total_err > max(100.0 * epsabs, 1e-6 * (1.0 + abs(total))):
        raise QuadratureError(total_err, epsabs)
    return total


def f_s_normalization(kappa, lam, n, c):
    """Integral of f_S over its truncated support."""
    s_max = _s_max(kappa, lam, n, c)
    return _normalization(lambda s: _f_s_scalar(s, kappa, lam, int(n), c, 1e-11), s_max,
                          [-c, 0.0, c] if c < s_max else [0.0])


# ---------------------------------------------------------------------------
# density grids and the Monte Carlo check


@dataclass(frozen=True)
class DensityGrid:
    """Tabulated density on strictly increasing interior nodes.

    The trapezoid integral over the support must be within
    ``quadrature_tol`` of 1; nodes exclude declared integrable endpoint
    and interior singularities.
    """

    support: tuple[float, float]
    nodes: np.ndarray
    values: np.ndarray
    quadrature_tol: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if len(self.nodes) != len(self.values):
            raise ValueError("nodes and values must have equal lengths")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite and nonnegative")

    def trapezoid_mass(self):
        return float(np.trapezoid(self.values, self.nodes))

    def cdf(self, x):
        """Piecewise-linear CDF from the trapezoid rule, clamped to [0, 1]."""
        cumulative = trapezoid_cdf(self.nodes, self.values)
        return np.interp(x, self.nodes, cumulative, left=0.0, right=1.0)

    def inverse_cdf_sampler(self):
        """Sampler drawing from the gridded density by inverse CDF."""
        cumulative = trapezoid_cdf(self.nodes, self.values)

        def sampler(rng, size):
            return np.interp(rng.uniform(size=size), cumulative, self.nodes)

        return sampler


def trapezoid_cdf(nodes, values):
    """CDF at ``nodes`` of the density ``values`` by the trapezoid rule,
    scaled to end at 1."""
    increments = 0.5 * (values[1:] + values[:-1]) * np.diff(nodes)
    cumulative = np.concatenate(([0.0], np.cumsum(increments)))
    cumulative /= cumulative[-1]
    return cumulative


def _sinh_nodes(scale, n_nodes):
    """Symmetric nodes on (-scale, scale) clustered near 0, excluding 0."""
    edges = np.linspace(-1.0, 1.0, n_nodes + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return scale * np.sinh(6.0 * mids) / np.sinh(6.0)


def _sinh_sin_nodes(scale, n_nodes):
    """Like :func:`_sinh_nodes` but additionally clustered at the support
    endpoints, where a concentrated multiplier leaves near-singular mass."""
    return scale * np.sin(0.5 * np.pi * _sinh_nodes(1.0, n_nodes))


def f_v_grid(kappa, n_nodes=4000):
    """Grid of f_V on sin-spaced nodes that avoid the +-1 singularities."""
    edges = np.linspace(-np.pi / 2.0, np.pi / 2.0, n_nodes + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = np.sin(mids)
    return DensityGrid(
        support=(-1.0, 1.0),
        nodes=nodes,
        values=f_v_density(nodes, kappa),
        quadrature_tol=1e-3,
        meta={"density": "f_V", "kappa": kappa},
    )


def f_z_grid(kappa, lam, n_nodes=800):
    """Grid of f_Z on sinh-spaced nodes that avoid the singularity at 0."""
    z_max = _z_max(kappa, lam)
    nodes = _sinh_nodes(z_max, n_nodes)
    return DensityGrid(
        support=(-z_max, z_max),
        nodes=nodes,
        values=f_z_density(nodes, kappa, lam),
        quadrature_tol=1e-3,
        meta={"density": "f_Z", "kappa": kappa, "lambda": lam},
    )


def f_s_grid(kappa, lam, n, c, n_nodes=1000):
    """Grid of f_S on nodes clustered at the 0 singularity and at the
    support endpoints (near-singular when c - W concentrates at c)."""
    s_max = _s_max(kappa, lam, n, c)
    nodes = _sinh_sin_nodes(s_max, n_nodes)
    return DensityGrid(
        support=(-s_max, s_max),
        nodes=nodes,
        values=f_s_density(nodes, kappa, lam, n, c),
        quadrature_tol=2e-3,
        meta={"density": "f_S", "kappa": kappa, "lambda": lam, "n": n, "c": c},
    )


MIN_MC_DRAWS = 1000  # fewest draws density_mc_check accepts


@dataclass(frozen=True)
class MCCheckResult:
    ks_distance: float
    critical: float

    @property
    def passed(self):
        return bool(self.ks_distance < self.critical)  # JSON takes no numpy bool


def density_mc_check(grid, sampler, n_draws, rng):
    """Kolmogorov-Smirnov comparison of a gridded density to simulation.

    ``sampler(rng, size)`` must draw from the distribution the grid claims
    to describe, using the Generator ``rng``. Passes when the KS distance is
    below the asymptotic 1% critical value 1.63 / sqrt(n_draws).
    """
    at_least("n_draws", n_draws, MIN_MC_DRAWS)
    mass = grid.trapezoid_mass()
    if abs(mass - 1.0) > grid.quadrature_tol:
        raise ValueError(
            f"grid is not normalized: trapezoid mass {mass:.6g} deviates from 1 "
            f"by more than {grid.quadrature_tol:g}"
        )
    draws = np.sort(np.asarray(sampler(rng, n_draws), dtype=float))
    cdf = grid.cdf(draws)
    i = np.arange(1, n_draws + 1)
    ks = float(np.max(np.maximum(i / n_draws - cdf, cdf - (i - 1) / n_draws)))
    return MCCheckResult(
        ks_distance=ks,
        critical=KS_COEFF_1PCT / np.sqrt(n_draws),
    )


# samplers for the three densities


def cos_vm_sampler(kappa):
    """Draws of V = cos(phi), phi ~ vM(0, kappa)."""

    def sampler(rng, size):
        return np.cos(rng.vonmises(0.0, kappa, size=size))

    return sampler


def cos_vm_exp_sampler(kappa, lam):
    """Draws of Z = cos(phi) * t, t ~ Exp(lam)."""

    def sampler(rng, size):
        return np.cos(rng.vonmises(0.0, kappa, size=size)) * rng.exponential(
            1.0 / lam, size=size
        )

    return sampler


def cos_vm_shifted_gamma_sampler(kappa, lam, n, c):
    """Draws of S = cos(phi) * (c - W), W ~ Gamma(n, lam)."""

    def sampler(rng, size):
        w = rng.gamma(shape=n, scale=1.0 / lam, size=size)
        return np.cos(rng.vonmises(0.0, kappa, size=size)) * (c - w)

    return sampler
