"""Single-hidden-layer network for weighted regression correction.

Logistic hidden units, linear outputs and a weight decay on all
parameters, fitted the way R's ``nnet`` fits the network of ``abc``'s
neural-network correction (Blum & François 2010): R's variable-metric
BFGS, ``vmmin`` (Nash 1990, *Compact Numerical Methods*, Algorithm 21),
on the weighted sum of squares plus the decay. Both terms are divided by
the weight sum, which scales the loss but not the minimiser; dividing the
data term alone would let the decay pin the output weights at zero.
Training is deterministic: fixed-seed initialisation scaled by
1/sqrt(fan-in), then :func:`vmmin`, which draws nothing.

:func:`vmmin` keeps R's constants and stop rules. ``nnet``'s ``abstol`` is
left out: it bounds a criterion not divided by the weight sum, which a
standardized fit does not get near.

The default cap is 700, not R ``abc``'s ``maxit = 500``. On the desk
table at ε 0.001, eight held-out rows' posterior medians must stay within
1e-2 of the converged fit's 95% HPD width. Seven fits meet ``RELTOL``
within 312 iterations; row 2641 needs 826, and its gap is 0.077 of the
width when stopped at 500, 0.033 at 600, 0.013 at 650 (over the bound)
and 0.0012 at 700, the smallest multiple of 50 under half the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError
from .streams import stream

STEPREDN = 0.2  # line-search step reduction
ACCTOL = 1e-4  # sufficient decrease, relative to the step's first-order prediction
RELTEST = 10.0  # a coordinate is unchanged when RELTEST + x rounds to the same double
RELTOL = 1e-8  # nnet's reltol: a smaller relative loss decrease ends the run


@dataclass(frozen=True)
class NetConfig:
    n_hidden: int = 5
    l2: float = 1e-2  # weight decay; divided by the weight sum, like the data term
    n_iter: int = 700  # vmmin's ``maxit`` (R abc: 500; see above); the start is iteration 1
    seed: int = 0  # initial weights


def init_params(n_in, n_hidden, n_out, seed):
    """Flat parameter vector with N(0, 1/fan_in) weights and zero biases."""
    rng = stream(seed, 0)
    w1 = rng.normal(size=(n_hidden, n_in)) / np.sqrt(n_in)
    w2 = rng.normal(size=(n_out, n_hidden)) / np.sqrt(n_hidden)
    return pack(w1, np.zeros(n_hidden), w2, np.zeros(n_out)), (n_in, n_hidden, n_out)


def pack(w1, b1, w2, b2):
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def unpack(flat, shapes):
    n_in, n_hidden, n_out = shapes
    i = n_hidden * n_in
    j, k = i + n_hidden, i + n_hidden + n_out * n_hidden
    w1, b1, w2, b2 = flat[:i], flat[i:j], flat[j:k], flat[k : k + n_out]
    return w1.reshape(n_hidden, n_in), b1, w2.reshape(n_out, n_hidden), b2


def _forward(w1, b1, w2, b2, xt):
    """Hidden layer (n_hidden, m) and outputs (n_out, m) of inputs xt (n_in, m).
    The logistic 1 / (1 + exp(-a)) runs in place; it is 0 where exp overflows."""
    a = w1 @ xt
    a += b1[:, None]
    with np.errstate(over="ignore"):
        np.exp(np.negative(a, out=a), out=a)
    a += 1.0
    hidden = np.reciprocal(a, out=a)
    out = w2 @ hidden
    out += b2[:, None]
    return hidden, out


def predict(flat, shapes, x):
    return _forward(*unpack(flat, shapes), np.ascontiguousarray(x.T))[1].T


def loss_and_grad(flat, shapes, x, y, sample_weight, l2):
    """Weighted half sum of squares plus decay, over the weight sum, with
    its analytic gradient.

    loss = [sum_i w_i ||y_i - f(x_i)||^2 / 2 + l2/2 * ||params||^2] / sum w

    All-zero weights count as unit weights. The work runs on ``x.T`` and
    ``y.T``, contiguous for the Fortran-ordered ``x`` and ``y`` of :func:`train`.
    Every :func:`vmmin` evaluation runs this once, so it unpacks ``flat``
    once and calls the sums' ufunc reductions without ``np.sum``'s wrapper:
    the same reductions, in the same order.
    """
    wsum = float(np.add.reduce(sample_weight))
    if wsum <= 0:
        sample_weight, wsum = np.ones(len(x)), float(len(x))
    w1, b1, w2, b2 = unpack(flat, shapes)
    xt = np.ascontiguousarray(x.T)
    hidden, err = _forward(w1, b1, w2, b2, xt)
    err -= y.T
    d_out = err * sample_weight
    loss = 0.5 * (float(np.vdot(d_out, err)) + l2 * float(flat @ flat)) / wsum
    d_out /= wsum
    grad = np.empty_like(flat)
    g_w1, g_b1, g_w2, g_b2 = unpack(grad, shapes)
    np.matmul(d_out, hidden.T, out=g_w2)
    np.add.reduce(d_out, axis=1, out=g_b2)
    d_hidden = w2.T @ d_out
    d_hidden *= hidden
    d_hidden *= np.subtract(1.0, hidden, out=hidden)
    np.matmul(d_hidden, xt.T, out=g_w1)
    np.add.reduce(d_hidden, axis=1, out=g_b1)
    grad += (l2 / wsum) * flat
    return loss, grad


def vmmin(objective, start, maxit):
    """Minimise ``objective`` from ``start`` by R's ``vmmin`` (Nash 1990,
    Algorithm 21), the variable-metric BFGS that ``nnet`` trains with.

    ``objective(x)`` returns (loss, gradient). Each iteration backtracks
    from a unit step along ``-B g`` by ``STEPREDN`` until the loss meets
    the ``ACCTOL`` sufficient decrease, then updates the inverse Hessian
    estimate ``B`` by BFGS. ``B`` restarts at the identity on an uphill
    direction, a non-positive curvature step, a step that changes no
    coordinate (to ``RELTEST``) or lowers the loss by less than ``RELTOL``
    relative, and every 2n gradients. Such a failure right after a
    restart ends the run, as does reaching ``maxit`` iterations (the start
    is iteration 1, and each accepted step adds one).

    Returns (x, iterations, stop_reason), where stop_reason is "maxit",
    "reltol" or "stalled" (no step from a restart changes ``x``).

    Raises
    ------
    TrainingDivergedError
        If a loss or a gradient is non-finite, with the iteration whose
        evaluations were running (the start is evaluated in iteration 1).
    """
    iteration = 1

    def evaluate(x):
        loss, grad = objective(x)
        if not (math.isfinite(loss) and np.isfinite(grad).all()):
            raise TrainingDivergedError(iteration)
        return loss, grad

    n = len(start)
    x = np.array(start, dtype=float)
    f_min, g = evaluate(x)
    f = f_min
    gradcount = restarted = 1  # gradients computed; the gradient B last restarted at
    while True:
        if restarted == gradcount:
            b = np.eye(n)
        x_prev, g_prev = x, g
        t = -(b @ g)
        gradproj = float(t @ g)
        small = False
        if gradproj < 0.0:  # downhill: backtrack from a unit step
            step = 1.0
            anchor = RELTEST + x_prev
            while True:
                x = x_prev + step * t
                moved = not (RELTEST + x == anchor).all()
                if not moved:
                    break
                f, g_new = evaluate(x)
                if f <= f_min + gradproj * step * ACCTOL:
                    break
                step *= STEPREDN
            small = abs(f - f_min) <= RELTOL * (abs(f_min) + RELTOL)
            if small:  # R keeps this point and its loss, and the old gradient
                moved, f_min = False, f
            if moved:
                f_min, g = f, g_new
                gradcount += 1
                iteration += 1
                s = step * t
                y = g - g_prev
                d1 = float(s @ y)
                if d1 > 0.0:
                    by = b @ y
                    v = ((1.0 + float(by @ y) / d1) * s - by) / d1
                    b += s[:, None] * v
                    b -= (by / d1)[:, None] * s
                else:
                    restarted = gradcount
            elif restarted < gradcount:  # retry from the identity
                moved, restarted = True, gradcount
        else:  # uphill: restart, unless B has just restarted
            moved = restarted < gradcount
            restarted = gradcount
        if iteration >= maxit:
            return x, iteration, "maxit"
        if gradcount - restarted > 2 * n:
            restarted = gradcount
        if not moved and restarted == gradcount:
            return x, iteration, "reltol" if small else "stalled"


def train(x, y, sample_weight, config):
    """Fit the network by :func:`vmmin` on :func:`loss_and_grad`, from the
    fixed-seed start, for at most ``config.n_iter`` iterations, with ``x``
    and ``y`` in Fortran order. Deterministic given the data and config.
    Returns (flat_params, shapes); raises :func:`vmmin`'s
    ``TrainingDivergedError`` on a non-finite loss or gradient.
    """
    x = np.asarray(x, dtype=float, order="F")
    y = np.asfortranarray(np.asarray(y, dtype=float).reshape(len(x), -1))
    start, shapes = init_params(x.shape[1], config.n_hidden, y.shape[1], config.seed)

    def objective(flat):
        return loss_and_grad(flat, shapes, x, y, sample_weight, config.l2)

    flat, _, _ = vmmin(objective, start, config.n_iter)
    return flat, shapes
