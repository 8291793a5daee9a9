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

:func:`vmmin` keeps R's constants: a backtracking line search that cuts
the step by ``STEPREDN`` until the ``ACCTOL`` sufficient decrease holds,
``RELTEST`` to tell a step that changes no coordinate, and ``nnet``'s
``reltol``. It stops once a step from a fresh restart lowers the loss by
less than ``RELTOL`` relative, or after ``NetConfig.n_iter`` iterations.
``nnet``'s ``abstol`` is left out: it bounds a criterion not divided by
the weight sum, which a standardized fit does not get near.

The default cap is 700, not R ``abc``'s ``maxit = 500``. On the desk
table at ε 0.001, eight held-out rows' posterior medians must stay within
1e-2 of the converged fit's 95% HPD width. Seven fits meet ``RELTOL``
within 311 iterations; row 2641 needs 870, and its gap is 0.078 of the
width when stopped at 500, 0.034 at 600, 0.0090 at 650 and 0.0022 at 700.
700 is the smallest multiple of 50 that keeps that gap under half the
bound (650 passes at 0.90 of it, which a change in summation order along
a 650-step path could undo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
    b1 = np.zeros(n_hidden)
    w2 = rng.normal(size=(n_out, n_hidden)) / np.sqrt(n_hidden)
    b2 = np.zeros(n_out)
    return pack(w1, b1, w2, b2), (n_in, n_hidden, n_out)


def pack(w1, b1, w2, b2):
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def unpack(flat, shapes):
    n_in, n_hidden, n_out = shapes
    i = 0
    w1 = flat[i : i + n_hidden * n_in].reshape(n_hidden, n_in)
    i += n_hidden * n_in
    b1 = flat[i : i + n_hidden]
    i += n_hidden
    w2 = flat[i : i + n_out * n_hidden].reshape(n_out, n_hidden)
    i += n_out * n_hidden
    b2 = flat[i : i + n_out]
    return w1, b1, w2, b2


def predict(flat, shapes, x):
    w1, b1, w2, b2 = unpack(flat, shapes)
    hidden = expit(x @ w1.T + b1)
    return hidden @ w2.T + b2


def loss_and_grad(flat, shapes, x, y, sample_weight, l2):
    """Weighted half sum of squares plus decay, over the weight sum, with
    its analytic gradient.

    loss = [sum_i w_i ||y_i - f(x_i)||^2 / 2 + l2/2 * ||params||^2] / sum w

    All-zero weights count as unit weights.
    """
    wsum = float(np.sum(sample_weight))
    if wsum <= 0:
        sample_weight = np.ones(len(x))
        wsum = float(len(x))
    weight = sample_weight[:, None]
    w1, b1, w2, b2 = unpack(flat, shapes)
    hidden = expit(x @ w1.T + b1)
    err = hidden @ w2.T + b2 - y
    loss = 0.5 * (float((weight * err**2).sum()) + l2 * float((flat**2).sum())) / wsum
    d_out = weight * err / wsum
    d_hidden = (d_out @ w2) * hidden * (1.0 - hidden)
    grad = pack(d_hidden.T @ x, d_hidden.sum(axis=0), d_out.T @ hidden, d_out.sum(axis=0))
    return loss, grad + (l2 / wsum) * flat


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
                moved = not np.array_equal(RELTEST + x, anchor)
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
                    d2 = 1.0 + float(by @ y) / d1
                    b += (d2 * np.outer(s, s) - (np.outer(by, s) + np.outer(s, by))) / d1
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
    fixed-seed start, for at most ``config.n_iter`` iterations.
    Deterministic given the data and config.

    Returns (flat_params, shapes).

    Raises
    ------
    TrainingDivergedError
        If a loss or a gradient is non-finite. Its ``iteration`` counts
        from 1; the start is evaluated in iteration 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    start, shapes = init_params(x.shape[1], config.n_hidden, y.shape[1], config.seed)

    def objective(flat):
        return loss_and_grad(flat, shapes, x, y, sample_weight, config.l2)

    flat, _, _ = vmmin(objective, start, config.n_iter)
    return flat, shapes
