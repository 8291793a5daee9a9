"""Every owner of a value rule refuses NaN, +inf and an out-of-range value
with a ValueError that names the value: a rate, interval or span must be
finite and > 0, a concentration finite and >= 0, a count at least its floor."""

import numpy as np
import pytest

from stepturn import (
    LatentPath,
    MovementParams,
    ObservedTrack,
    PriorSpec,
    SimConfig,
    WeightedPosterior,
    change_counts,
    density_mc_check,
    cross_validate,
    direct_fit,
    f_s_density,
    f_v_density,
    f_v_normalization,
    f_z_density,
    generate_reference_table,
    latent_from_steps,
    observe,
    observe_until,
    r_scan,
    sample_exponential,
    sample_von_mises,
    simulate_latent,
    simulate_until,
)

from _synthetic import synthetic_table

NAN, INF = float("nan"), float("inf")
WALK = MovementParams(kappa=2.0, lam=1.0)
PATH = simulate_latent(WALK, 50, np.random.default_rng(0))
TABLE = synthetic_table(30, seed=1)


def rng():
    return np.random.default_rng(0)


def posterior(draws):
    return WeightedPosterior(draws=np.array(draws), weights=np.full(len(draws), 1 / len(draws)),
                             method="rejection", epsilon=1.0, delta=0.0)


# owner, a call of it with the value under test, the name its error gives,
# and the value out of range
OWNERS = [
    ("MovementParams", lambda v: MovementParams(kappa=v, lam=1.0), "kappa", -1.0),
    ("MovementParams", lambda v: MovementParams(kappa=1.0, lam=v), "lam", 0.0),
    ("SimConfig", lambda v: SimConfig(dt=v), "dt", 0.0),
    ("SimConfig", lambda v: SimConfig(min_obs=v), "min_obs", 3),
    ("ObservedTrack", lambda v: ObservedTrack(dt=v, positions=np.zeros((3, 2))), "dt", -0.5),
    ("sample_exponential", lambda v: sample_exponential(v, rng(), 3), "lam", 0.0),
    ("sample_von_mises", lambda v: sample_von_mises(v, rng(), 3), "kappa", -1.0),
    ("simulate_latent", lambda v: simulate_latent(WALK, v, rng()), "n_steps", 0),
    ("simulate_until", lambda v: simulate_until(WALK, v, rng()), "total_time", 0.0),
    ("observe", lambda v: observe(PATH, v, 10), "dt", 0.0),
    ("observe", lambda v: observe(PATH, 0.1, v), "n_obs", 0),
    ("observe_until", lambda v: observe_until(WALK, v, 10, rng()), "dt", 0.0),
    ("observe_until", lambda v: observe_until(WALK, 0.1, v, rng()), "n_obs", 0),
    ("change_counts", lambda v: change_counts(PATH.durations, v, 3), "dt", -1.0),
    ("change_counts", lambda v: change_counts(PATH.durations, 0.1, v), "n_obs", 0),
    ("f_v_density", lambda v: f_v_density(0.5, v), "kappa", -1.0),
    ("f_v_normalization", f_v_normalization, "kappa", -1.0),
    ("f_z_density", lambda v: f_z_density(0.5, v, 1.0), "kappa", -1.0),
    ("f_z_density", lambda v: f_z_density(0.5, 1.0, v), "lam", 0.0),
    ("f_s_density", lambda v: f_s_density(0.5, v, 1.0, 2, 1.0), "kappa", -1.0),
    ("f_s_density", lambda v: f_s_density(0.5, 1.0, v, 2, 1.0), "lam", 0.0),
    ("f_s_density", lambda v: f_s_density(0.5, 1.0, 1.0, v, 1.0), "n", 0),
    ("f_s_density", lambda v: f_s_density(0.5, 1.0, 1.0, 2, v), "c", 0.0),
    ("density_mc_check", lambda v: density_mc_check(None, None, v, rng()), "n_draws", 999),
    ("direct_fit", lambda v: direct_fit([1.0, 2.0], [0.1, 0.2], kappa_grid_max=v),
     "kappa_grid_max", 0.0),
    ("generate_reference_table",
     lambda v: generate_reference_table(PriorSpec(), v, SimConfig(min_obs=10)), "n_sims", 0),
    ("cross_validate", lambda v: cross_validate(TABLE, ("rejection",), (0.5,), n_rep=v),
     "n_rep", 0),
    # an R stands for lam = R / dt
    ("r_scan", lambda v: r_scan(TABLE, [v], [10.0], n_per_cell=1), "lam", 0.0),
    ("r_scan", lambda v: r_scan(TABLE, [1.0], [v], n_per_cell=1), "kappa", -1.0),
    ("r_scan", lambda v: r_scan(TABLE, [1.0], [10.0], n_per_cell=v), "n_per_cell", 0),
]


@pytest.mark.parametrize("kind", ["nan", "inf", "out of range"])
@pytest.mark.parametrize("owner,call,name,out_of_range", OWNERS,
                         ids=[f"{owner}-{name}" for owner, _, name, _ in OWNERS])
def test_owner_refuses_by_name(owner, call, name, out_of_range, kind):
    value = {"nan": NAN, "inf": INF, "out of range": out_of_range}[kind]
    with pytest.raises(ValueError, match=rf"(^|\W){name} must be"):
        call(value)


@pytest.mark.parametrize("bound", [NAN, -1.0])
@pytest.mark.parametrize("index", [0, 1])
def test_constraint_entry_must_be_a_bound(index, bound):
    constraint = [INF, INF]
    constraint[index] = bound
    name = ("kappa", "lambda")[index]
    with pytest.raises(ValueError, match=f"constraint on {name} must be >= 0.0, got {bound}"):
        cross_validate(TABLE, ("rejection",), (0.5,), n_rep=3, constraint=tuple(constraint))


def test_infinite_constraint_is_no_constraint():
    def medians(constraint):
        report = cross_validate(TABLE, ("rejection",), (0.5,), n_rep=3,
                                constraint=constraint, seed=4)
        return [(r.rep, r.param, r.median) for r in report.records]

    assert medians((INF, INF)) == medians(None)


@pytest.mark.parametrize("ranges", [{"kappa_range": (0.0, INF)},
                                    {"lambda_range": (0.0, NAN)}])
def test_prior_ranges_must_be_finite(ranges):
    (key, (lo, hi)), = ranges.items()
    with pytest.raises(ValueError, match=rf"{key} must satisfy 0 <= lo < hi < inf, "
                                         rf"got \({lo}, {hi}\)"):
        PriorSpec(**ranges)


@pytest.mark.parametrize("call,message", [
    (lambda: simulate_latent(WALK, 2.5, rng()), "n_steps must be a whole number, got 2.5"),
    (lambda: f_s_density(0.5, 1.0, 1.0, 1.5, 1.0), "n must be a whole number, got 1.5"),
])
def test_a_count_is_a_whole_number(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda v: latent_from_steps([1.0, v], [0.1]), "durations must be finite and > 0"),
    (lambda v: direct_fit([1.0, v, 2.0], [0.1, 0.2]), "durations must be finite and > 0"),
    (lambda v: direct_fit([1.0, 2.0, 3.0], [0.1, v]), "turns must be finite"),
    (lambda v: change_counts([1.0, v], 0.5, 3), "durations must be finite and > 0"),
    (lambda v: latent_from_steps([1.0, 1.0, 1.0], [0.1, v]), "turns must be finite"),
    (lambda v: LatentPath(positions=np.zeros((4, 2)), headings=np.zeros(3),
                          durations=np.ones(3), turns=np.array([0.1, v])), "turns must be finite"),
    (lambda v: posterior([[1.0, 2.0], [v, 3.0]]), "kappa draws must be finite"),
    (lambda v: posterior([[1.0, 2.0], [2.0, v]]), "lambda draws must be finite"),
], ids=["latent_from_steps-durations", "direct_fit-durations", "direct_fit-turns",
        "change_counts-durations", "latent_from_steps-turns", "LatentPath-turns",
        "WeightedPosterior-kappa", "WeightedPosterior-lambda"])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_step_arrays_must_be_finite(call, message, value):
    with pytest.raises(ValueError, match=rf"^{message}, got {value} at index 1$"):
        call(value)

