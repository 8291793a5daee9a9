import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import gamma

from stepturn import (
    ImproperPosteriorError,
    MovementParams,
    ReferenceTable,
    SimConfig,
    WeightedPosterior,
    coverage_pvalue,
    coverage_report,
    cross_validate,
    direct_fit,
    md_index,
    prediction_error,
    r_scan,
    simulate_latent,
)
from stepturn import experiments
from stepturn.experiments import INTERVAL_MASS, CrossValReport, ReplicateRecord

from _synthetic import synthetic_table


def uniform_posterior(draws_1d, weights=None):
    draws_1d = np.asarray(draws_1d, dtype=float)
    weights = np.full(len(draws_1d), 1.0 / len(draws_1d)) if weights is None else weights
    return WeightedPosterior(
        draws=np.column_stack([draws_1d, draws_1d]), weights=weights,
        method="rejection", epsilon=1.0, delta=0.0,
    )


def coverage_of(records):
    """coverage_report over ``records``."""
    return coverage_report(CrossValReport(records))


def pvalue_records(posteriors, truths):
    """One kappa record per (posterior, truth), holding only its coverage p-value."""
    return [ReplicateRecord("rejection", 1.0, i, "kappa", float(t), 0.0, 0.0, 0.0,
                            coverage_pvalue(post, "kappa", t))
            for i, (post, t) in enumerate(zip(posteriors, truths))]


class TestMetrics:
    def test_prediction_error_zero(self):
        assert prediction_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_prediction_error_forced(self):
        assert prediction_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_prediction_error_oracle(self):
        rng = np.random.default_rng(1)
        truth, est = rng.normal(size=100), rng.normal(size=100)
        brute = math.sqrt(sum((e - t) ** 2 for t, e in zip(truth, est)) / 100)
        assert abs(prediction_error(truth, est) - brute) < 1e-12

    def test_prediction_error_mismatch(self):
        with pytest.raises(ValueError):
            prediction_error([1.0], [1.0, 2.0])

    def test_md_zero(self):
        assert md_index([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_md_forced(self):
        assert md_index([2.0, 4.0], [3.0, 2.0]) == pytest.approx(0.5)

    def test_md_oracle(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(0.5, 3.0, size=100)
        est = rng.normal(size=100)
        brute = sum(abs(e - t) / t for t, e in zip(truth, est)) / 100
        assert abs(md_index(truth, est) - brute) < 1e-12

    def test_md_zero_truth(self):
        with pytest.raises(ValueError):
            md_index([0.0, 1.0], [1.0, 1.0])


class TestCoveragePvalues:
    def test_posterior_below_truth(self):
        post = uniform_posterior([1.0, 2.0, 3.0])
        assert coverage_pvalue(post, "kappa", 10.0) == 1.0

    def test_symmetric_posterior(self):
        post = uniform_posterior([-2.0, -1.0, 1.0, 2.0])
        assert coverage_pvalue(post, "kappa", 0.0) == 0.5

    def test_half_weight_at_ties(self):
        post = uniform_posterior([1.0, 2.0, 2.0, 3.0])
        assert coverage_pvalue(post, "kappa", 2.0) == pytest.approx(0.25 + 0.25)

    @pytest.mark.parametrize("parameter", [2, -1, "kapa"])
    def test_unknown_parameter(self, parameter):
        with pytest.raises(ValueError, match="parameter"):
            coverage_pvalue(uniform_posterior([1.0, 2.0, 3.0]), parameter, 2.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(size=50)
        truth = 0.3

        def g(x):
            return x**3 + 2.0 * x  # strictly monotone

        p_raw = coverage_pvalue(uniform_posterior(draws), "kappa", truth)
        p_transformed = coverage_pvalue(uniform_posterior(g(draws)), "kappa", g(truth))
        assert p_raw == p_transformed

    def test_null_calibration(self):
        # truths i.i.d. U(0,1) against a fine uniform posterior give
        # uniform p-values; the KS test should accept at 1% in at least
        # 98 of 100 synthetic runs
        rng = np.random.default_rng(41)
        posteriors = [uniform_posterior(np.linspace(0, 1, 2001))] * 100
        accepted = 0
        for _ in range(100):
            truths = rng.uniform(size=100)
            result = coverage_of(pvalue_records(posteriors, truths))
            accepted += result[("rejection", 1.0, "kappa")]["ks_pvalue"] > 0.01
        assert accepted >= 98

    def test_coverage_test_histogram(self):
        posts = [uniform_posterior(np.linspace(0, 1, 101))] * 10
        truths = np.linspace(0.05, 0.95, 10)
        records = pvalue_records(posts, truths)
        entry = coverage_of(records)[("rejection", 1.0, "kappa")]
        assert len(entry["histogram"]) == 20 and sum(entry["histogram"]) == 10
        assert entry["mean_p"] == float(np.mean([r.p for r in records]))


class TestEmpiricalCoverage:
    def test_all_and_none(self, ):
        inside = [ReplicateRecord("rejection", 0.1, i, "kappa", 5.0, 5.0, 4.0, 6.0, 0.5)
                  for i in range(10)]
        outside = [ReplicateRecord("rejection", 0.1, i, "lambda", 9.0, 5.0, 4.0, 6.0, 0.5)
                   for i in range(10)]
        report = coverage_of(inside + outside)
        assert report[("rejection", 0.1, "kappa")]["empirical_coverage"] == 1.0
        assert report[("rejection", 0.1, "lambda")]["empirical_coverage"] == 0.0

    def test_synthetic_calibration(self):
        # uniform posteriors with uniform truths: the 95% HPD window covers
        # the truth with probability ~ alpha
        from stepturn.inference import hpd_interval
        rng = np.random.default_rng(5)
        records = []
        n_rep = 400
        post = uniform_posterior(np.linspace(0.0, 1.0, 2001))
        lo, hi = hpd_interval(post, "kappa", 0.95)
        for i in range(n_rep):
            truth = rng.uniform()
            records.append(
                ReplicateRecord("rejection", 1.0, i, "kappa", truth, 0.5, lo, hi, 0.5)
            )
        cov = coverage_of(records)[("rejection", 1.0, "kappa")]["empirical_coverage"]
        se = math.sqrt(0.95 * 0.05 / n_rep)
        assert abs(cov - 0.95) < max(3 * se, hi - lo - 0.95 + 3 * se)


    def test_grouping_matches_per_key_scan(self):
        # reference: the per-key rescan of every record the grouping replaced
        rng = np.random.default_rng(8)
        records = [
            ReplicateRecord(method, eps, i, param, float(rng.uniform()), 0.5,
                            float(rng.uniform(0, 0.5)), float(rng.uniform(0.5, 1)),
                            float(rng.uniform()))
            for i in range(6)
            for method in ("neuralnet", "rejection")
            for eps in (0.1, 0.001)
            for param in ("lambda", "kappa")
        ]
        rng.shuffle(records)
        keys = sorted({(r.method, r.epsilon, r.param) for r in records})
        report = coverage_report(CrossValReport(records))
        assert list(report) == keys
        for key in keys:
            recs = [r for r in records if (r.method, r.epsilon, r.param) == key]
            hits = sum(1 for r in recs if r.hpd_lo <= r.truth <= r.hpd_hi)
            assert report[key]["empirical_coverage"] == hits / len(recs)
            assert report[key]["mean_p"] == float(np.mean([r.p for r in recs]))
        with pytest.raises(ValueError, match="no replicate records"):
            coverage_report(CrossValReport([]))


class TestCrossValidate:
    def test_nearest_neighbour_oracle(self):
        # summaries uniquely identify rows; minimal epsilon accepts exactly
        # the nearest neighbour of each pseudo-observation
        def summary_fn(kappa, lam):
            return np.array([kappa, lam, kappa + lam, kappa - lam])

        table = synthetic_table(50, seed=6, summary_fn=summary_fn)
        report = cross_validate(
            table, methods=("rejection",), epsilons=(1.0 / 49.0,),
            n_rep=12, constraint=None, seed=7,
        )
        # brute-force nearest-neighbour prediction error
        from stepturn.inference import standardized_distances
        rng = np.random.default_rng(7)
        chosen = rng.choice(np.arange(50), size=12, replace=False)
        for param_index, param in enumerate(("kappa", "lambda")):
            truths, medians = [], []
            for row in chosen:
                sub = table.without_row(int(row))
                d = standardized_distances(sub, table.summaries[row])
                nn = int(np.argmin(d))
                truths.append(table.params[row, param_index])
                medians.append(sub.params[nn, param_index])
            expected = prediction_error(truths, medians)
            assert report.prediction_error("rejection", 1.0 / 49.0, param) == pytest.approx(
                expected, rel=1e-12
            )

    def test_leave_one_out_excludes_chosen_row(self):
        def summary_fn(kappa, lam):
            return np.array([kappa, lam, 2 * kappa, 2 * lam])

        table = synthetic_table(30, seed=8, summary_fn=summary_fn)
        report = cross_validate(table, methods=("rejection",), epsilons=(1.0 / 29.0,),
                                n_rep=1, constraint=None, seed=9)
        rec = report.records[0]
        # with the row excluded, even the nearest neighbour cannot be exact
        assert rec.median != rec.truth

    def test_deterministic(self):
        table = synthetic_table(40, seed=10)
        a = cross_validate(table, methods=("rejection",), epsilons=(0.2,), n_rep=3,
                           constraint=None, seed=11)
        b = cross_validate(table, methods=("rejection",), epsilons=(0.2,), n_rep=3,
                           constraint=None, seed=11)
        assert a.records == b.records

    def test_worker_invariance(self):
        table = synthetic_table(60, seed=12)
        a = cross_validate(table, methods=("rejection", "loclinear"), epsilons=(0.5,),
                           n_rep=4, constraint=None, seed=13, workers=1)
        b = cross_validate(table, methods=("rejection", "loclinear"), epsilons=(0.5,),
                           n_rep=4, constraint=None, seed=13, workers=3)
        assert a.records == b.records

    def test_neuralnet_worker_invariance_and_rerun(self):
        def summary_fn(kappa, lam):
            return np.array([np.log1p(kappa), np.sqrt(lam), kappa / (1.0 + lam), lam])

        table = synthetic_table(300, seed=22, summary_fn=summary_fn)
        kwargs = dict(methods=("neuralnet",), epsilons=(0.5, 0.25), n_rep=4,
                      constraint=None, seed=23)
        one = cross_validate(table, workers=1, **kwargs)
        two = cross_validate(table, workers=2, **kwargs)
        rerun = cross_validate(table, workers=2, **kwargs)
        assert len(one.records) == 4 * 2 * 2
        assert one.records == two.records == rerun.records

    def test_shared_scales_match_fresh_tables(self, monkeypatch):
        # each leave-one-out table runs one rejection pass, at the widest
        # epsilon, for all of its epsilons; records must equal rejections on
        # fresh, uncached copies
        from stepturn import experiments
        from stepturn.inference import abc_reject

        table = synthetic_table(300, seed=20)
        kwargs = dict(methods=("rejection", "loclinear"), epsilons=(0.2, 0.1, 0.05),
                      n_rep=6, constraint=None, seed=21)
        shared = cross_validate(table, **kwargs)
        copies = []

        def reject_on_fresh_copy(sub, s_obs, epsilon):
            fresh = ReferenceTable(params=sub.params.copy(), summaries=sub.summaries.copy(),
                                   prior=sub.prior, config=sub.config, seed=sub.seed)
            copies.append(fresh)
            return abc_reject(fresh, s_obs, epsilon)

        monkeypatch.setattr(experiments, "abc_reject", reject_on_fresh_copy)
        fresh = cross_validate(table, **kwargs)
        assert len(copies) == 6
        assert fresh.records == shared.records

    def test_fits_equal_their_own_rejections(self):
        # epsilons in any order, one repeated; every acceptance boundary falls
        # inside a block of tied distances
        from stepturn.experiments import _fits
        from stepturn.inference import abc_reject

        table = synthetic_table(400, seed=32)
        table = replace(table, summaries=np.tile(table.summaries[:8], (50, 1)))
        s_obs = np.random.default_rng(33).normal(size=4)
        epsilons = (0.05, 0.3, 0.01, 0.3, 0.1)
        fits = list(_fits(table, s_obs, ("rejection",), epsilons))
        assert [eps for _, eps, _ in fits] == list(epsilons)
        for _, eps, post in fits:
            alone = abc_reject(table, s_obs, eps)
            for field in fields(alone):
                a, b = getattr(post, field.name), getattr(alone, field.name)
                assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b

    def test_constraint_filters_rows(self):
        table = synthetic_table(200, seed=14)
        report = cross_validate(table, methods=("rejection",), epsilons=(0.5,),
                                n_rep=20, constraint=(70.0, 25.0), seed=15)
        truths_k = [r.truth for r in report.records if r.param == "kappa"]
        truths_l = [r.truth for r in report.records if r.param == "lambda"]
        assert max(truths_k) <= 70.0 and max(truths_l) <= 25.0

    def test_cells_group_the_records_once(self):
        table = synthetic_table(60, seed=12)
        report = cross_validate(table, methods=("rejection", "loclinear"),
                                epsilons=(0.5, 0.2), n_rep=3, constraint=None, seed=13)
        assert report.cells is report.cells
        assert list(report.cells) == sorted(report.cells) and len(report.cells) == 8
        for (method, epsilon, param), recs in report.cells.items():
            assert [(r.method, r.epsilon, r.param, r.rep) for r in recs] == [
                (method, epsilon, param, rep) for rep in range(3)]
        recs = report.cells["loclinear", 0.2, "lambda"]
        truths, medians = [r.truth for r in recs], [r.median for r in recs]
        assert report.prediction_error("loclinear", 0.2, "lambda") == prediction_error(
            truths, medians)
        assert report.md_index("loclinear", 0.2, "lambda") == md_index(truths, medians)

    @pytest.mark.parametrize("n_rep", [0, -2])
    def test_n_rep_below_one(self, n_rep):
        with pytest.raises(ValueError, match=f"n_rep must be >= 1, got {n_rep}"):
            cross_validate(synthetic_table(30, seed=16), methods=("rejection",),
                           epsilons=(0.5,), n_rep=n_rep, constraint=None)

    def test_insufficient_constrained_rows(self):
        table = synthetic_table(30, seed=16)
        with pytest.raises(ValueError, match="constraint"):
            cross_validate(table, methods=("rejection",), epsilons=(0.5,),
                           n_rep=29, constraint=(5.0, 2.0), seed=17)

    def test_rejection_eps_one_self_calibrates(self):
        # with epsilon = 1 and no constraint the posterior is the prior
        # sample, so coverage p-values are uniform by construction
        table = synthetic_table(400, seed=18)
        report = cross_validate(table, methods=("rejection",), epsilons=(1.0,),
                                n_rep=100, constraint=None, seed=19)
        cov = coverage_report(report)
        for param in ("kappa", "lambda"):
            assert cov[("rejection", 1.0, param)]["ks_pvalue"] > 0.01


class TestRScan:
    def test_r_definition(self):
        def summary_fn(kappa, lam):
            return np.array([kappa, lam, kappa * lam, kappa - lam])

        table = synthetic_table(60, seed=20, summary_fn=summary_fn)
        report = r_scan(table, r_values=[1.0], kappa_values=[20.0], n_per_cell=2,
                        methods=("rejection",), epsilon=0.2, seed=21)
        lam_records = [r for r in report.records if r.param == "lambda"]
        assert all(r.truth == 2.0 for r in lam_records)  # R / dt = 1 / 0.5
        assert list(report.cells) == [("rejection", 1.0, "kappa"), ("rejection", 1.0, "lambda")]
        assert report.cells["rejection", 1.0, "lambda"] == lam_records
        truths, medians = [r.truth for r in lam_records], [r.median for r in lam_records]
        assert report.prediction_error("rejection", 1.0, "lambda") == prediction_error(
            truths, medians)
        assert report.md_index("rejection", 1.0, "lambda") == md_index(truths, medians)

    def test_n_per_cell_below_one(self):
        with pytest.raises(ValueError, match="n_per_cell must be >= 1, got 0"):
            r_scan(synthetic_table(20, seed=20), r_values=[1.0], kappa_values=[20.0],
                   n_per_cell=0)

    def test_observes_as_the_table_does(self):
        table = replace(synthetic_table(60, seed=28), config=SimConfig(dt=0.25, min_obs=80))
        report = r_scan(table, r_values=[0.5, 2.0], kappa_values=[20.0], n_per_cell=2,
                        methods=("rejection",), epsilon=0.2, seed=29)
        lam_records = [r for r in report.records if r.param == "lambda"]
        assert len(lam_records) == 4
        assert all(r.truth == r.r_value / 0.25 for r in lam_records)

    def test_determinism(self):
        table = synthetic_table(60, seed=22)
        kwargs = dict(r_values=[0.5], kappa_values=[30.0], n_per_cell=2,
                      methods=("rejection",), epsilon=0.2, seed=23)
        a = r_scan(table, **kwargs)
        b = r_scan(table, **kwargs)
        assert a.records == b.records

    def test_out_of_prior_cell_skipped(self):
        table = synthetic_table(50, seed=24)  # lambda prior up to 50
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = r_scan(table, r_values=[30.0], kappa_values=[20.0], n_per_cell=2,
                            methods=("rejection",), epsilon=0.2, seed=25)
        assert len(report.records) == 0
        assert sum("outside prior support" in str(w.message) for w in caught) == 1

    @pytest.mark.parametrize("r_value, kappa, refused", [
        (float("nan"), 20.0, "lam"),
        (0.0, 20.0, "lam"),
        (-1.0, 20.0, "lam"),
        (1.0, float("nan"), "kappa"),
        (1.0, -1.0, "kappa"),
    ])
    def test_invalid_cell_refused_before_any_cell_runs(self, monkeypatch, r_value, kappa,
                                                       refused):
        def no_pool(*args):
            raise AssertionError("a pool started")

        monkeypatch.setattr(experiments, "ordered_map", no_pool)
        table = synthetic_table(50, seed=24)  # its lambda prior starts at 0, so R = 0 is inside
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not skipped with a warning
            with pytest.raises(ValueError, match=f"r_scan cell R={r_value:g}, "
                                                 f"kappa={kappa:g}: {refused} must be"):
                r_scan(table, r_values=[r_value], kappa_values=[20.0, kappa],
                       n_per_cell=2, methods=("rejection",), epsilon=0.2, seed=25)

    def test_worker_invariance(self):
        table = synthetic_table(60, seed=26)
        kwargs = dict(r_values=[0.5, 1.0], kappa_values=[30.0], n_per_cell=2,
                      methods=("rejection",), epsilon=0.2, seed=27)
        assert r_scan(table, workers=1, **kwargs).records == r_scan(
            table, workers=3, **kwargs).records


class TestDirectFit:
    def test_rate_from_constant_durations(self):
        turns = np.resize([0.4, -0.4], 99)  # dispersed enough to stay on-grid
        result = direct_fit(np.full(100, 0.5), turns)
        assert abs(result.lambda_median - 2.0) / 2.0 < 0.1

    def test_degenerate_turns_hit_grid_bound(self):
        with pytest.warns(UserWarning, match="grid upper bound"):
            result = direct_fit(np.full(50, 0.5), np.zeros(49))
        assert result.at_grid_bound

    def test_simulated_truth_anchor(self):
        params = MovementParams(kappa=20.0, lam=2.0)
        path = simulate_latent(params, 5000, np.random.default_rng(28))
        result = direct_fit(path.durations, path.turns)
        assert abs(result.lambda_median - 2.0) / 2.0 < 0.05
        assert abs(result.kappa_median - 20.0) / 20.0 < 0.05
        assert result.lambda_interval[0] < 2.0 < result.lambda_interval[1]
        assert result.kappa_interval[0] < 20.0 < result.kappa_interval[1]

    def test_rate_posterior_equals_scipy_stats_bit_for_bit(self):
        # the conjugate Gamma(n + a0, sum + b0) as the scipy.stats.gamma object
        # direct_fit once built gives it; an improper posterior is refused
        turns = [0.4, -0.4]
        lo = (1.0 - INTERVAL_MASS) / 2.0
        for shape in (1.0, 2.0, 2.5, 3.0, 10.0, 31.0, 100.0, 316.0, 1000.0, 5000.0):
            for rate in np.logspace(-3.0, 4.0, 15):
                durations = np.array([0.3, 0.7]) / rate
                a0 = shape - len(durations)
                for b0 in (0.0, 0.5 / rate):
                    result = direct_fit(durations, turns, a0=a0, b0=b0)
                    post = gamma(a=len(durations) + a0,
                                 scale=1.0 / (float(durations.sum()) + b0))
                    got = np.array([result.lambda_median, *result.lambda_interval])
                    expected = np.array([post.median(), post.ppf(lo), post.ppf(1.0 - lo)])
                    assert got.tobytes() == expected.tobytes()
                for a0_bad, b0_bad in ((a0, -2.0 / rate), (a0, -float(durations.sum())),
                                       (-len(durations), 0.0), (np.nan, 0.0), (a0, np.nan)):
                    shape_bad = len(durations) + a0_bad
                    rate_bad = float(durations.sum()) + b0_bad
                    with pytest.raises(ImproperPosteriorError) as excinfo:
                        direct_fit(durations, turns, a0=a0_bad, b0=b0_bad)
                    assert (f"shape n + a0 = {shape_bad} and rate sum(durations) + b0 = "
                            f"{rate_bad} must both be > 0") in str(excinfo.value)

    @pytest.mark.parametrize("grid_max", [0.0, -5.0, np.nan, np.inf])
    def test_kappa_grid_max_must_be_finite_and_positive(self, grid_max):
        with pytest.raises(ValueError, match="kappa_grid_max must be finite and > 0"):
            direct_fit(np.full(100, 0.5), np.resize([0.4, -0.4], 99), kappa_grid_max=grid_max)

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_fit([0.5], [0.1, 0.2])
        with pytest.raises(ValueError):
            direct_fit([0.5, -0.1], [0.1, 0.2])
