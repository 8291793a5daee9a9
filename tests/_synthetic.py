"""Reference tables with synthetic rows (no simulation), shared by the
inference and experiment tests."""

import numpy as np

from stepturn import PriorSpec, ReferenceTable, SimConfig

SMALL_SIM = SimConfig(dt=0.5, min_obs=120)


def synthetic_table(n_rows, seed=0, prior=None, summary_fn=None):
    """A table of ``n_rows`` prior draws; the summaries are standard normal
    noise, or ``summary_fn(kappa, lambda)`` of each row when given."""
    prior = prior or PriorSpec()
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(*prior.kappa_range, size=n_rows)
    lam = rng.uniform(*prior.lambda_range, size=n_rows)
    params = np.column_stack([kappa, lam])
    if summary_fn is None:
        summaries = rng.normal(size=(n_rows, 4))
    else:
        summaries = np.array([summary_fn(k, l) for k, l in params])
    return ReferenceTable(
        params=params, summaries=summaries, prior=prior, config=SMALL_SIM, seed=seed
    )
