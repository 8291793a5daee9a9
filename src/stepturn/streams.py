"""Deterministic random-stream derivation.

:func:`stream` is the one constructor of random generators in the package.
Every stochastic task derives its own generator from a base seed and a
stable task index, so results never depend on worker count or execution
order, and no two tasks of one seed share a stream. Re-draws for a rejected
task bump the stream without colliding with any other task's stream.
Samplers, simulators and checks take the Generator a caller derived.
"""

import numpy as np


def stream(base_seed, index, bump=0):
    """Generator for task ``index`` under ``base_seed``.

    The stream id is ``base_seed XOR index``; ``bump`` shifts resampling
    attempts out of the index range so bumped streams cannot collide with
    another task's primary stream. ``stream(seed, 0)`` draws the bits of
    ``np.random.default_rng(seed)``.
    """
    if base_seed < 0 or index < 0 or bump < 0:
        raise ValueError("seed, index and bump must be non-negative")
    return np.random.default_rng((int(base_seed) ^ int(index)) + (int(bump) << 64))
