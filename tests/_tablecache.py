"""Disk cache for the desk-scale reference table the acceptance suite uses.

Building the 1e5-row table takes a few minutes, so it is built once and
cached under .cache/ keyed by a digest of its configuration and of
``SIMULATOR_VERSION``, so a change that moves the rows rebuilds it. Once
the current file is loaded or built, the files of the same configuration
cached by older versions are removed. The cache file is safe to delete at
any time.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from stepturn.inference import (
    SIMULATOR_VERSION,
    PriorSpec,
    ReferenceTable,
    SimConfig,
    generate_reference_table,
)

CACHE_DIR = Path(__file__).resolve().parent.parent / ".cache"

DESK_N_SIMS = 100_000
DESK_SEED = 11
DESK_PRIOR = PriorSpec()
DESK_SIM = SimConfig(dt=0.5, min_obs=1500)


def _key(prior, sim, n_sims, seed, version):
    """Cache key; ``version=None`` gives the key used before the simulator
    version was part of it."""
    config = {
        "kappa_range": list(prior.kappa_range),
        "lambda_range": list(prior.lambda_range),
        "dt": sim.dt,
        "min_obs": sim.min_obs,
        "n_sims": n_sims,
        "seed": seed,
    }
    if version is not None:
        config["simulator_version"] = version
    payload = json.dumps(config, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _path(key):
    return CACHE_DIR / f"reftable_{key}.npz"


def cached_table(prior=DESK_PRIOR, sim=DESK_SIM, n_sims=DESK_N_SIMS, seed=DESK_SEED,
                 workers=2):
    CACHE_DIR.mkdir(exist_ok=True)
    path = _path(_key(prior, sim, n_sims, seed, SIMULATOR_VERSION))
    if path.exists():
        with np.load(path) as data:
            table = ReferenceTable(
                params=data["params"],
                summaries=data["summaries"],
                prior=prior,
                config=sim,
                seed=seed,
                n_resampled=int(data["n_resampled"]),
            )
    else:
        table = generate_reference_table(prior, n_sims, sim, seed=seed, workers=workers)
        np.savez_compressed(
            path,
            params=table.params,
            summaries=table.summaries,
            n_resampled=table.n_resampled,
        )
    for version in [None, *range(1, SIMULATOR_VERSION)]:
        _path(_key(prior, sim, n_sims, seed, version)).unlink(missing_ok=True)
    return table


if __name__ == "__main__":
    table = cached_table()
    print(f"desk table ready: {table.n_rows} rows, {table.n_resampled} resampled")
