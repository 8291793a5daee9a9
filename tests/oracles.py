"""Independent oracles the tests check the library against.

Everything here is deliberately written from first principles (plain
loops, series expansions, brute-force searches) and must stay independent
of the implementation paths it validates.
"""

import math

import numpy as np


def bessel_i_series(order, x, terms=400):
    """Modified Bessel function of the first kind by its power series."""
    total = 0.0
    for k in range(terms):
        term = (x / 2.0) ** (2 * k + order) / (
            math.factorial(k) * math.factorial(k + order)
        )
        total += term
        if term != 0.0 and term < 1e-30 * total:
            break
    return total


def bessel_ratio_series(x):
    """A(x) = I1(x)/I0(x) from the series oracle."""
    return bessel_i_series(1, x) / bessel_i_series(0, x)


def walk_polyline(durations, turns, target_time):
    """Brute-force arc-length walker: position after travelling
    ``target_time`` along the unit-speed polyline, segment by segment."""
    x = y = 0.0
    heading = 0.0
    remaining = float(target_time)
    for i, duration in enumerate(durations):
        if remaining <= duration:
            return (x + remaining * math.cos(heading), y + remaining * math.sin(heading))
        x += duration * math.cos(heading)
        y += duration * math.sin(heading)
        remaining -= duration
        if i < len(turns):
            heading += turns[i]
    if remaining <= 1e-9:  # walked to the very end
        return (x, y)
    raise AssertionError("oracle walked past the end of the path")


def summaries_by_hand(positions):
    """Straight-line reimplementation of the four summaries with plain
    Python floats and loops."""
    n = len(positions) - 1
    lengths = []
    headings = []
    for j in range(n):
        dx = positions[j + 1][0] - positions[j][0]
        dy = positions[j + 1][1] - positions[j][1]
        lengths.append(math.hypot(dx, dy))
        headings.append(math.atan2(dy, dx))
    angles = []
    for j in range(n - 1):
        a = headings[j + 1] - headings[j]
        while a <= -math.pi:
            a += 2 * math.pi
        while a > math.pi:
            a -= 2 * math.pi
        angles.append(a)
    mean_len = sum(lengths) / len(lengths)
    mean_cos = sum(math.cos(a) for a in angles) / len(angles)
    clamped = min(max(mean_cos, 0.0), 1.0 - 1e-12)

    def sample_sd(values):
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))

    return (1.0 / mean_len, clamped, sample_sd(angles), sample_sd(lengths))


def median_by_hand(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


def mad_by_hand(values):
    center = median_by_hand(values)
    return median_by_hand([abs(v - center) for v in values])


def hpd_exhaustive(values, weights, alpha):
    """Exhaustive window search over all sorted index pairs; vectorized
    over the upper index but still checks every window."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values)[order]
    w = np.asarray(weights)[order] / np.sum(weights)
    cumulative = np.concatenate(([0.0], np.cumsum(w)))
    target = alpha - 1e-12
    best = (np.inf, v[0], v[-1])
    n = len(v)
    for lo in range(n):
        mass = cumulative[lo + 1 :] - cumulative[lo]
        ok = np.flatnonzero(mass >= target)
        if len(ok) == 0:
            continue
        hi = lo + int(ok[0])
        width = v[hi] - v[lo]
        if width < best[0]:
            best = (width, v[lo], v[hi])
    return float(best[1]), float(best[2])


def hpd_two_pointer(values, weights, alpha):
    """Two-pointer window scan over the sorted draws: for each lower index,
    advance the upper one until the window holds ``alpha`` mass, stop at the
    first lower index with no such window, keep the first narrowest window."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values)[order]
    w = np.asarray(weights)[order] / float(np.sum(weights))
    cumulative = np.concatenate(([0.0], np.cumsum(w)))
    target = alpha - 1e-12
    n = len(v)
    best = (np.inf, v[0], v[-1])
    hi = 0
    for lo in range(n):
        if hi < lo:
            hi = lo
        while hi < n and cumulative[hi + 1] - cumulative[lo] < target:
            hi += 1
        if hi == n:
            break
        width = v[hi] - v[lo]
        if width < best[0]:
            best = (width, v[lo], v[hi])
    if not np.isfinite(best[0]):  # total mass below alpha
        return float(v[0]), float(v[-1])
    return float(best[1]), float(best[2])


def weighted_quantile_scan(values, weights, q):
    """Cumulative-sum scan oracle for the weighted quantile."""
    order = np.argsort(values, kind="stable")
    total = float(np.sum(weights))
    running = 0.0
    for idx in order:
        running += weights[idx] / total
        if running >= q:
            return float(values[idx])
    return float(values[order[-1]])


def network_loss_and_grad(flat, shapes, x, y, weights, l2):
    """Loss of ``nnet`` (weighted half sum of squares plus decay, both over
    the weight sum) and its gradient in one pass, spelled out layer by
    layer."""
    from scipy.special import expit

    n_in, n_hidden, n_out = shapes
    cut = np.cumsum([n_hidden * n_in, n_hidden, n_out * n_hidden])
    w1 = flat[: cut[0]].reshape(n_hidden, n_in)
    b1 = flat[cut[0] : cut[1]]
    w2 = flat[cut[1] : cut[2]].reshape(n_out, n_hidden)
    b2 = flat[cut[2] :]
    wsum = float(np.sum(weights))
    hidden = expit(x @ w1.T + b1)
    err = hidden @ w2.T + b2 - y
    data = float(np.sum(weights[:, None] * err**2))
    loss = 0.5 * (data + l2 * float(np.sum(flat**2))) / wsum
    decay = l2 / wsum
    d_out = weights[:, None] * err / wsum
    d_hidden = (d_out @ w2) * hidden * (1.0 - hidden)
    grad = np.concatenate([
        (d_hidden.T @ x + decay * w1).ravel(),
        d_hidden.sum(axis=0) + decay * b1,
        (d_out.T @ hidden + decay * w2).ravel(),
        d_out.sum(axis=0) + decay * b2,
    ])
    return loss, grad
