import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import median_abs_deviation

from stepturn import (
    MovementParams,
    NetConfig,
    PriorSpec,
    ReferenceTable,
    SimConfig,
    SingularRegressionError,
    abc_reject,
    generate_reference_table,
    hpd_interval,
    loclinear_adjust,
    neuralnet_adjust,
    observe,
    simulate_until,
    standardized_distances,
    summarize,
    weighted_quantile,
)
from stepturn import inference
from stepturn.experiments import INTERVAL_MASS
from stepturn.inference import (
    WeightedPosterior,
    adjust,
    chunk_bounds,
    fit,
    narrow,
    reference_chunks,
    summary_scales,
)
from stepturn.streams import stream

from _synthetic import SMALL_SIM, synthetic_table
from oracles import hpd_exhaustive, hpd_two_pointer, mad_by_hand, weighted_quantile_scan


class TestPriorSpec:
    def test_defaults(self):
        prior = PriorSpec()
        assert prior.kappa_range == (0.0, 100.0)
        assert prior.lambda_range == (0.0, 50.0)

    @pytest.mark.parametrize("kr", [(5.0, 5.0), (-1.0, 10.0), (7.0, 2.0)])
    def test_invalid(self, kr):
        with pytest.raises(ValueError):
            PriorSpec(kappa_range=kr)


class TestSimConfig:
    @pytest.mark.parametrize("dt", [0.0, -0.5, np.nan, np.inf])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            SimConfig(dt=dt)


class TestGenerateReferenceTable:
    def test_worker_count_invariance(self):
        bounds = chunk_bounds(24, 4)  # six chunks: every one of 4 workers gets one
        a, b = (list(reference_chunks(PriorSpec(), SMALL_SIM, 5, bounds, workers))
                for workers in (1, 4))
        assert len(a) == len(b) == 6
        for (rows_a, resamples_a), (rows_b, resamples_b) in zip(a, b):
            assert np.array_equal(rows_a, rows_b) and resamples_a == resamples_b

    def test_prior_marginal_ks(self):
        table = generate_reference_table(
            PriorSpec(), 10_000, SimConfig(dt=0.5, min_obs=24), seed=6, workers=2
        )
        kappa = np.sort(table.params[:, 0]) / 100.0
        i = np.arange(1, len(kappa) + 1)
        ks = np.max(np.maximum(i / len(kappa) - kappa, kappa - (i - 1) / len(kappa)))
        assert ks < 1.63 / np.sqrt(len(kappa))  # 1% critical value

    def test_rows_recompute_from_streams(self):
        # every stored row must equal an independent re-simulation from its
        # stream id, including the summary recomputation
        table = generate_reference_table(PriorSpec(), 20, SMALL_SIM, seed=7)
        for i in range(table.n_rows):
            rng = stream(7, i)
            kappa = rng.uniform(0.0, 100.0)
            lam = rng.uniform(0.0, 50.0)
            path = simulate_until(MovementParams(kappa=kappa, lam=lam),
                                  SMALL_SIM.min_obs * SMALL_SIM.dt, rng)
            s = summarize(observe(path, SMALL_SIM.dt, SMALL_SIM.min_obs)).as_array()
            assert table.params[i, 0] == kappa and table.params[i, 1] == lam
            np.testing.assert_array_equal(table.summaries[i], s)

    def test_zero_lambda_draw_resampled(self, monkeypatch):
        class ZeroLambdaStream:  # first attempt: kappa 12.5, then lambda exactly 0
            draws = iter([12.5, 0.0])

            def uniform(self, lo, hi):
                return next(self.draws)

        def fake_stream(seed, index, bump=0):
            return ZeroLambdaStream() if bump == 0 else stream(seed, index, bump)

        monkeypatch.setattr(inference, "stream", fake_stream)
        row = inference._reference_row(PriorSpec(), SMALL_SIM, 7, 3)
        rng = stream(7, 3, bump=1)
        kappa, lam = rng.uniform(0.0, 100.0), rng.uniform(0.0, 50.0)
        path = simulate_until(MovementParams(kappa=kappa, lam=lam),
                              SMALL_SIM.min_obs * SMALL_SIM.dt, rng)
        s = summarize(observe(path, SMALL_SIM.dt, SMALL_SIM.min_obs)).as_array()
        assert row == (kappa, lam, *s, 1)

    def test_simulated_summaries_chain(self):
        params = MovementParams(kappa=12.0, lam=3.0)
        path = simulate_until(params, SMALL_SIM.min_obs * SMALL_SIM.dt, stream(4, 2))
        expected = summarize(observe(path, SMALL_SIM.dt, SMALL_SIM.min_obs)).as_array()
        np.testing.assert_array_equal(
            inference.simulated_summaries(params, SMALL_SIM, stream(4, 2)), expected)

    def test_value_error_in_row_propagates(self, monkeypatch):
        def broken_observe(*args):
            raise ValueError("observation failed")

        monkeypatch.setattr(inference, "observe_until", broken_observe)
        with pytest.raises(ValueError, match="observation failed"):
            inference._reference_row(PriorSpec(), SMALL_SIM, 7, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_reference_table(PriorSpec(), 0, SMALL_SIM)


class TestReferenceRowsPinned:
    """sha256 of rows computed under simulator version 1. A change that moves
    them must bump ``SIMULATOR_VERSION``, so that tables cached by older code
    are rebuilt, and update these digests beside it."""

    @pytest.mark.parametrize("config,seed,n_rows,digest", [
        # desk rows 0..39, lambda from 0.016 to 49.4
        (SimConfig(dt=0.5, min_obs=1500), 11, 40,
         "5cdce82f3fa76c36b82e3888fd91770d985ae1ef7c688d3def93fbc68d71b6a5"),
        (SimConfig(dt=0.25, min_obs=40), 5, 200,
         "3cde04cea1591389d80c937eb7d988db21b9fcdf0d0e81669a6ea86f64eaadb6"),
    ], ids=["desk", "short"])
    def test_rows_are_pinned_to_the_simulator_version(self, config, seed, n_rows, digest):
        rows, resamples = inference.reference_rows(PriorSpec(), config, seed, 0, n_rows)
        assert resamples == 0
        assert (inference.SIMULATOR_VERSION, hashlib.sha256(rows.tobytes()).hexdigest()) \
            == (1, digest)


class TestStandardizedDistances:
    def test_self_distance_zero(self):
        table = synthetic_table(50, seed=1)
        d = standardized_distances(table, table.summaries[17])
        assert d[17] == 0.0

    def test_symmetry(self):
        table = synthetic_table(2, seed=2)
        s_obs = 0.5 * (table.summaries[0] + table.summaries[1])
        d = standardized_distances(table, s_obs)
        assert d[0] == pytest.approx(d[1], rel=1e-12)

    def test_brute_force_oracle(self):
        table = synthetic_table(100, seed=3)
        s_obs = np.random.default_rng(4).normal(size=4)
        d = standardized_distances(table, s_obs)
        for i in (0, 13, 57, 99):
            total = 0.0
            for k in range(4):
                scale = mad_by_hand(table.summaries[:, k].tolist())
                total += ((table.summaries[i, k] - s_obs[k]) / scale) ** 2
            assert abs(d[i] - np.sqrt(total)) < 1e-12

    def test_scaling_invariance(self):
        table = synthetic_table(60, seed=5)
        s_obs = np.random.default_rng(6).normal(size=4)
        base = standardized_distances(table, s_obs)
        scaled_summaries = table.summaries.copy()
        scaled_summaries[:, 2] *= 4.0  # power of two: exact float scaling
        scaled_table = ReferenceTable(
            params=table.params, summaries=scaled_summaries,
            prior=table.prior, config=table.config, seed=table.seed,
        )
        scaled_obs = s_obs.copy()
        scaled_obs[2] *= 4.0
        np.testing.assert_array_equal(standardized_distances(scaled_table, scaled_obs), base)

    def test_mad_zero_falls_back_to_sd(self):
        table = synthetic_table(9, seed=7)
        summaries = table.summaries.copy()
        # majority at one value makes the MAD 0 while the sd stays positive
        summaries[:6, 0] = 2.0
        table = ReferenceTable(params=table.params, summaries=summaries,
                               prior=table.prior, config=table.config, seed=0)
        scales = summary_scales(table)
        assert scales[0] == pytest.approx(np.std(summaries[:, 0], ddof=1))

    def test_scales_equal_scipy_mad(self):
        for n_rows in (999, 1000):
            table = synthetic_table(n_rows, seed=35)
            np.testing.assert_array_equal(
                summary_scales(table), median_abs_deviation(table.summaries, axis=0)
            )

    def test_constant_column_scale_one(self):
        table = synthetic_table(9, seed=8)
        summaries = table.summaries.copy()
        summaries[:, 3] = 1.25
        table = ReferenceTable(params=table.params, summaries=summaries,
                               prior=table.prior, config=table.config, seed=0)
        assert summary_scales(table)[3] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 999, 1000])
    @pytest.mark.parametrize("kind", ["normal", "constant", "ties", "signed zeros"])
    def test_partition_median_equals_np_median(self, n, kind):
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-3, 1e6):
            values = {
                "normal": rng.normal(size=n) * scale,
                "constant": np.full(n, -2.5 * scale),
                "ties": rng.integers(0, 3, size=n) * 0.1 * scale,
                "signed zeros": rng.choice([-0.0, 0.0, scale], size=n),
            }[kind]
            median = inference._partition_median(values.copy())
            assert np.float64(median).tobytes() == np.median(values).tobytes()

    def test_scales_equal_np_median_formula_on_leave_one_out_tables(self):
        def median_formula(table):
            columns = table.summaries.T
            center = np.median(columns, axis=1)
            scales = np.median(np.abs(columns - center[:, None]), axis=1)
            for k in np.flatnonzero(scales == 0.0):
                scales[k] = np.std(columns[k], ddof=1) or 1.0
            return scales

        for n_rows in (1000, 1001):
            table = synthetic_table(n_rows, seed=48)
            summaries = table.summaries.copy()
            summaries[: n_rows // 3, 2] = summaries[0, 2]  # a tie block at the median
            summaries[:, 1] = np.round(summaries[:, 1], 1)  # ties everywhere
            table = replace(table, summaries=summaries)
            for row in (0, 1, n_rows // 2, n_rows - 1):
                sub = table.without_row(row)
                assert summary_scales(sub).tobytes() == median_formula(sub).tobytes()


def row_wise_distances(summaries, s_obs, scales):
    """The distance formula on the row-major (K, 4) summaries."""
    z = (summaries - s_obs) / scales
    return np.sqrt(np.sum(z * z, axis=1))


class TestScaledTable:
    def test_distances_equal_row_wise_formula(self):
        rng = np.random.default_rng(40)
        for n_rows in (7, 501, 20_000):
            table = synthetic_table(n_rows, seed=n_rows)
            summaries = table.summaries * rng.uniform(0.01, 100.0, size=4)
            blocks = np.tile(summaries[:5], (n_rows // 10, 1))
            summaries[: len(blocks)] = blocks  # tie blocks of equal distances
            summaries[: n_rows // 2 + 1, 1] = summaries[0, 1]  # zero MAD, positive sd
            summaries[:, 3] = -0.75  # constant column: scale 1
            table = ReferenceTable(params=table.params, summaries=summaries,
                                   prior=table.prior, config=table.config, seed=0)
            scales = summary_scales(table)
            assert scales[3] == 1.0
            assert scales[1] == pytest.approx(np.std(summaries[:, 1], ddof=1))
            for s_obs in (rng.normal(size=4), summaries[3], np.array([0.1, np.nan, 2.0, 3.0])):
                np.testing.assert_array_equal(
                    standardized_distances(table, s_obs),
                    row_wise_distances(summaries, s_obs, scales),
                )

    def test_one_scales_call_per_table(self, monkeypatch):
        calls = []

        def counting(table):
            calls.append(table)
            return summary_scales(table)

        monkeypatch.setattr(inference, "summary_scales", counting)
        table = synthetic_table(400, seed=41)
        rng = np.random.default_rng(42)
        for method in ("rejection", "loclinear"):
            for eps in (0.05, 0.1, 0.5):
                fit(table, rng.normal(size=4), method, eps)
        standardized_distances(table, rng.normal(size=4))
        assert len(calls) == 1 and calls[0] is table

    def test_without_row_computes_own_scales(self):
        table = synthetic_table(101, seed=43)
        full = table.scales
        sub = table.without_row(17)
        copied = ReferenceTable(
            params=np.delete(table.params, 17, axis=0).copy(),
            summaries=np.delete(table.summaries, 17, axis=0).copy(),
            prior=table.prior, config=table.config, seed=table.seed,
        )
        np.testing.assert_array_equal(sub.scales, summary_scales(copied))
        assert sub.scales is not full
        np.testing.assert_array_equal(table.scales, full)

    @pytest.mark.parametrize("cached_first", [False, True])
    def test_without_row_equals_a_fresh_table(self, cached_first):
        table = synthetic_table(1001, seed=47)
        if cached_first:
            _ = table.scales
        s_obs = table.summaries[500] + 0.01
        for row in (0, 1, 500, 1000):
            sub = table.without_row(row)
            fresh = ReferenceTable(
                params=np.delete(table.params, row, axis=0),
                summaries=np.delete(table.summaries, row, axis=0),
                prior=table.prior, config=table.config, seed=table.seed,
            )
            assert sub.columns.tobytes() == fresh.columns.tobytes()
            assert sub.columns.flags.c_contiguous and sub.summaries.flags.f_contiguous
            assert np.shares_memory(sub.columns, sub.summaries)
            assert sub.scales.tobytes() == fresh.scales.tobytes()
            assert (standardized_distances(sub, s_obs).tobytes()
                    == standardized_distances(fresh, s_obs).tobytes())

    def test_replace_starts_fresh_cache(self):
        table = synthetic_table(50, seed=44)
        _ = table.scales, table.columns
        doubled = replace(table, summaries=4.0 * table.summaries)
        np.testing.assert_array_equal(doubled.scales, 4.0 * table.scales)
        np.testing.assert_array_equal(doubled.columns, 4.0 * table.columns)

    def test_cached_arrays_read_only(self):
        table = synthetic_table(30, seed=45)
        assert not table.scales.flags.writeable
        with pytest.raises(ValueError):
            table.scales[0] = 0.0
        assert table.scales is table.scales
        assert table.summaries.flags.writeable  # the table's own arrays stay writeable
        assert table.columns.flags.c_contiguous and table.summaries.flags.f_contiguous
        assert np.shares_memory(table.columns, table.summaries)
        np.testing.assert_array_equal(table.columns, table.summaries.T)

    def test_distances_leave_scales_and_columns_unchanged(self):
        table = synthetic_table(500, seed=46)
        scales = table.scales
        before = (table.scales.tobytes(), table.columns.tobytes(), table.summaries.tobytes())
        standardized_distances(table, table.summaries[9] + 0.1)
        assert table.scales is scales  # the same array, not a new one
        assert table.columns.flags.c_contiguous and table.summaries.flags.f_contiguous
        assert np.shares_memory(table.columns, table.summaries)
        assert (table.scales.tobytes(), table.columns.tobytes(),
                table.summaries.tobytes()) == before

    def test_every_constructor_stores_summaries_column_major(self):
        table = synthetic_table(40, seed=48)
        rows = np.column_stack([table.params, table.summaries])
        settings = dict(prior=table.prior, config=table.config, seed=table.seed)
        c_order = np.ascontiguousarray(table.summaries)
        f_order = np.asfortranarray(table.summaries)
        made = {
            "C input": ReferenceTable(params=table.params, summaries=c_order, **settings),
            "F input": ReferenceTable(params=table.params, summaries=f_order, **settings),
            "from_rows": ReferenceTable.from_rows(rows, n_resampled=0, **settings),
            "one-row from_rows": ReferenceTable.from_rows(rows[:1], n_resampled=0, **settings),
            "without_row": table.without_row(7),
            "replace": replace(table, summaries=c_order + 1.0),
        }
        for name, built in made.items():
            assert built.summaries.flags.f_contiguous, name
            assert built.columns.flags.c_contiguous, name
            assert np.shares_memory(built.columns, built.summaries), name
            np.testing.assert_array_equal(built.columns, built.summaries.T)
        assert made["F input"].summaries is f_order  # already column-major: not copied
        for name in ("from_rows", "one-row from_rows"):
            assert not np.shares_memory(made[name].summaries, rows), name
            assert not np.shares_memory(made[name].params, rows), name
        np.testing.assert_array_equal(made["from_rows"].summaries, c_order)
        np.testing.assert_array_equal(made["C input"].summaries, c_order)


class TestStableOrder:
    @pytest.mark.parametrize("kind", ["untied", "tied", "nan", "empty", "single"])
    def test_equals_stable_argsort(self, kind):
        rng = np.random.default_rng(47)
        values = {
            "untied": rng.normal(size=2000),
            "tied": rng.integers(0, 7, size=2000).astype(float),
            "nan": np.where(rng.random(2000) < 0.1, np.nan, rng.normal(size=2000)),
            "empty": np.empty(0),
            "single": np.array([3.5]),
        }[kind]
        np.testing.assert_array_equal(inference._stable_order(values),
                                      np.argsort(values, kind="stable"))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_ties_signed_zeros_and_nan(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 400))
        values = rng.normal(size=size)
        tied = rng.random(size) < rng.random()
        values[tied] = rng.choice(values, size=tied.sum())  # runs of equal values
        values[rng.random(size) < 0.1] = 0.0
        values[rng.random(size) < 0.1] = -0.0  # equal to 0.0 for either sort
        if seed % 2:
            values[rng.random(size) < 0.05] = np.nan
        np.testing.assert_array_equal(inference._stable_order(values),
                                      np.argsort(values, kind="stable"))
        assert inference._stable_order(values).dtype == np.intp


class TestAbcReject:
    def test_epsilon_one_accepts_all(self):
        table = synthetic_table(40, seed=9)
        post = abc_reject(table, table.summaries[0], 1.0)
        assert post.n_draws == 40
        np.testing.assert_allclose(post.weights, 1.0 / 40)

    def test_empty_table_refused(self):
        table = synthetic_table(1, seed=9).without_row(0)
        with pytest.raises(ValueError, match="reference table is empty"):
            abc_reject(table, np.zeros(4), 0.5)

    def test_nearest_row_recovery(self):
        table = synthetic_table(50, seed=10)
        post = abc_reject(table, table.summaries[23], 1.0 / 50)
        assert post.n_draws == 1
        np.testing.assert_array_equal(post.draws[0], table.params[23])

    def test_full_sort_oracle(self):
        table = synthetic_table(1000, seed=11)
        s_obs = np.random.default_rng(12).normal(size=4)
        post = abc_reject(table, s_obs, 0.01)
        d = standardized_distances(table, s_obs)
        expected = np.array(sorted(range(1000), key=lambda i: (d[i], i))[:10])
        np.testing.assert_array_equal(post.indices, expected)
        assert post.delta == pytest.approx(d[expected[-1]])

    def test_ties_break_by_row_index(self):
        # ten distinct summary rows repeated 30 times: every acceptance
        # boundary falls inside a block of equal distances
        table = synthetic_table(300, seed=30)
        table = ReferenceTable(
            params=table.params, summaries=np.tile(table.summaries[:10], (30, 1)),
            prior=table.prior, config=table.config, seed=table.seed,
        )
        s_obs = np.random.default_rng(31).normal(size=4)
        d = standardized_distances(table, s_obs)
        for eps in (0.05, 0.1, 0.31, 1.0):
            post = abc_reject(table, s_obs, eps)
            n = int(np.ceil(eps * 300))
            np.testing.assert_array_equal(post.indices, np.argsort(d, kind="stable")[:n])

    def test_narrowed_posterior_is_its_own_rejection(self):
        # as in test_ties_break_by_row_index, every boundary falls in a tie block
        table = synthetic_table(300, seed=36)
        table = replace(table, summaries=np.tile(table.summaries[:10], (30, 1)))
        s_obs = np.random.default_rng(37).normal(size=4)
        widest = abc_reject(table, s_obs, 0.31)
        for eps in (0.31, 0.2, 0.1, 0.05, 0.01, 1 / 300):
            narrowed, alone = narrow(widest, eps, table.n_rows), abc_reject(table, s_obs, eps)
            for field in fields(alone):
                a, b = getattr(narrowed, field.name), getattr(alone, field.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), field.name
                else:
                    assert type(a) is type(b) and a == b, field.name

    def test_narrow_refuses_a_wider_epsilon(self):
        table = synthetic_table(100, seed=38)
        accepted = abc_reject(table, table.summaries[0], 0.1)
        with pytest.raises(ValueError, match="accepts more than the 10 rows"):
            narrow(accepted, 0.11, table.n_rows)
        with pytest.raises(ValueError, match="epsilon must be in"):
            narrow(accepted, 0.0, table.n_rows)

    def test_nesting(self):
        table = synthetic_table(300, seed=13)
        s_obs = np.random.default_rng(14).normal(size=4)
        small = abc_reject(table, s_obs, 0.05)
        large = abc_reject(table, s_obs, 0.2)
        assert set(small.indices).issubset(set(large.indices))

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_epsilon_domain(self, eps):
        table = synthetic_table(10, seed=15)
        with pytest.raises(ValueError):
            abc_reject(table, table.summaries[0], eps)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_refused(self, value):
        table = synthetic_table(10, seed=15)
        s_obs = table.summaries[0].copy()
        s_obs[2] = value
        with pytest.raises(ValueError, match="observed summaries must be finite"):
            abc_reject(table, s_obs, 0.5)

    def test_accepted_arrays_are_the_posteriors_own(self):
        table = synthetic_table(50, seed=17)
        post = abc_reject(table, table.summaries[4], 0.2)
        for own, source in ((post.draws, table.params), (post.summaries, table.summaries)):
            assert not np.shares_memory(own, source)


def full_scan(table, s_obs, n):
    """The rows and distances that rejection of ``n`` rows accepts, by a full
    scan of the table."""
    distances = standardized_distances(table, s_obs)
    accepted = inference._closest(distances, n)
    return accepted, distances[accepted]


def assert_exact(table, s_obs, epsilon, scanned=None):
    """abc_reject accepts the full scan's rows, distances and delta, byte for
    byte; ``scanned`` is the full scan's ``standardized_distances``, if known."""
    post = abc_reject(table, s_obs, epsilon)
    if scanned is None:
        accepted, distances = full_scan(table, s_obs, post.n_draws)
    else:
        accepted = inference._closest(scanned, post.n_draws)
        distances = scanned[accepted]
    assert post.indices.dtype == accepted.dtype
    assert post.indices.tobytes() == accepted.tobytes()
    assert post.distances.tobytes() == distances.tobytes()
    assert np.float64(post.delta).tobytes() == distances[-1].tobytes()
    assert post.draws.tobytes() == table.params[accepted].tobytes()
    assert post.summaries.tobytes() == table.summaries[accepted].tobytes()
    return post


def with_summaries(table, summaries):
    return replace(table, params=table.params[: len(summaries)], summaries=summaries)


def curve_table(keys, noise, seed):
    """A table whose summaries lie near a curve through the key column
    ``keys`` (s1 = key, s3 = 2 key, s4 = key^3 / 100), each off it by
    normal noise of sd ``noise``: nearness in key order then tracks nearness
    in distance, so rejection searches a slab rather than scanning."""
    rng = np.random.default_rng(seed)
    keys = np.asarray(keys, dtype=float)
    centred = keys - np.median(keys)
    summaries = np.column_stack([centred, keys, 2 * centred, centred**3 / 100])
    summaries[:, [0, 2, 3]] += rng.normal(scale=noise, size=(len(keys), 3))
    return with_summaries(synthetic_table(len(keys), seed=seed), summaries)


S2 = inference.SUMMARY_NAMES.index("s2")


def searches_slab(table, s_obs, epsilon):
    return inference._slab(table, s_obs, inference._n_accept(epsilon, table.n_rows)) is not None


class TestExactRejection:
    DESK_EPSILONS = (0.001, 0.01, 0.1, 1.0)

    def test_desk_held_out_rows(self, desk_table):
        rows = np.random.default_rng(60).choice(desk_table.n_rows, 100, replace=False)
        for row in rows:
            held_out, s_obs = desk_table.without_row(row), desk_table.summaries[row]
            scanned = standardized_distances(held_out, s_obs)
            for eps in self.DESK_EPSILONS:
                assert_exact(held_out, s_obs, eps, scanned)

    def test_desk_simulated_tracks(self, desk_table):
        prior = desk_table.prior
        for k in range(100):
            rng = stream(61, k)
            walk = MovementParams(kappa=rng.uniform(*prior.kappa_range),
                                  lam=rng.uniform(0.01, prior.lambda_range[1]))
            s_obs = inference.simulated_summaries(walk, desk_table.config, rng)
            scanned = standardized_distances(desk_table, s_obs)
            for eps in self.DESK_EPSILONS:
                assert_exact(desk_table, s_obs, eps, scanned)

    def test_desk_fit_computes_few_distances(self, desk_table, monkeypatch):
        counted = []
        scan = inference.standardized_distances

        def counting(table, s_obs, rows=None):
            counted.append(table.n_rows if rows is None else len(rows))
            return scan(table, s_obs, rows)

        rng = stream(62, 0)
        s_obs = inference.simulated_summaries(MovementParams(kappa=20.0, lam=4.0),
                                              desk_table.config, rng)
        monkeypatch.setattr(inference, "standardized_distances", counting)
        fit(desk_table, s_obs, "rejection", 0.001)
        assert 0 < sum(counted) < desk_table.n_rows / 10, counted

    # held-out rows of default_rng(5).choice(K, 200, replace=False) whose s2 slab
    # holds more than half the desk table, at 100 and 1000 accepted rows
    S2_SCANNED_IN_FULL = {
        0.001: (32731, 11553, 67559, 64569, 52729, 49221, 48531, 1452, 17741, 55568, 84013,
                76992),
        0.01: (72335, 6411, 32731, 98876, 82320, 11553, 67559, 64569, 43609, 52729, 49221,
               31942, 48531, 90209, 1452, 17741, 84222, 55568, 87040, 84013, 89415, 76992,
               97251, 66185),
    }
    # rows among those whose slab holds over 10% of the table in every column
    NO_NARROW_COLUMN = (11553, 67559, 48531)

    def test_desk_rows_the_s2_slab_scans_in_full(self, desk_table, monkeypatch):
        counted = []
        scan = inference.standardized_distances

        def counting(table, s_obs, rows=None):
            counted.append(table.n_rows if rows is None else len(rows))
            return scan(table, s_obs, rows)

        for eps, rows in self.S2_SCANNED_IN_FULL.items():
            for row in rows:
                held_out, s_obs = desk_table.without_row(row), desk_table.summaries[row]
                with monkeypatch.context() as patch:
                    patch.setattr(inference, "_narrowest_column", lambda *args: S2)
                    assert not searches_slab(held_out, s_obs, eps), (eps, row)
                counted.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(inference, "standardized_distances", counting)
                    abc_reject(held_out, s_obs, eps)
                share = 0.2 if row in self.NO_NARROW_COLUMN else 0.1
                assert sum(counted) < share * held_out.n_rows, (eps, row, counted)
                assert_exact(held_out, s_obs, eps)

    def test_column_orders_cached_per_table(self):
        table = synthetic_table(1000, seed=63)
        assert table._orders == {}
        s_obs = table.summaries[3] + 0.1
        abc_reject(table, s_obs, 0.01)
        column = inference._narrowest_column(table, s_obs, 10)
        assert list(table._orders) == [column]
        order = table.order(column)
        assert table._orders[column] is order and order.dtype == np.intp
        assert not order.flags.writeable
        np.testing.assert_array_equal(order, np.argsort(table.columns[column]))
        for fresh in (table.without_row(5), replace(table, seed=1)):
            assert fresh._orders == {}

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tables_with_tied_keys(self, seed):
        # integer keys, so rows tie in key order, and at noise 0 in distance too
        rng = np.random.default_rng(seed)
        noise = (0.0, 0.05, 0.5, 3.0)[seed % 4]
        table = curve_table(rng.integers(0, 50 + 100 * seed, size=2000), noise, seed)
        searched = 0
        for s_obs in (table.summaries[7], table.summaries[7] + rng.normal(size=4),
                      np.array([0.0, -5.0, 1.0, 0.0])):
            for eps in (0.0005, 0.01, 0.1, 0.2, 0.4999, 0.5, 1.0):
                assert_exact(table, s_obs, eps)
                searched += searches_slab(table, s_obs, eps)
        assert searched >= 3

    def test_duplicate_rows_tie_at_the_boundary(self):
        # 200 distinct rows, 5 copies each: every boundary below falls
        # inside a block of equal distances
        table = curve_table(np.tile(np.arange(200.0), 5), 0.0, seed=64)
        table = with_summaries(table, np.tile(table.summaries[:200], (5, 1)))
        for s_obs in (table.summaries[30] + 0.25, table.summaries[60] + [0.1, 0.3, -0.1, 0.05]):
            for eps in (0.001, 0.003, 0.007, 0.013, 0.05, 0.15, 0.333, 0.499):
                post = assert_exact(table, s_obs, eps)
                assert np.sum(full_scan(table, s_obs, 1000)[1] == post.delta) >= 5
            assert searches_slab(table, s_obs, 0.013)

    def test_constant_key_column(self):
        table = synthetic_table(1000, seed=66)
        summaries = table.summaries.copy()
        summaries[:, S2] = 3.0
        table = with_summaries(table, summaries)
        for key in (3.0, 5.0, -1e6):
            s_obs = summaries[11].copy()
            s_obs[S2] = key
            for eps in (0.001, 0.02, 0.3):
                assert_exact(table, s_obs, eps)
        # every row ties in s2, so only another column's slab can exclude rows
        assert searches_slab(table, summaries[11], 0.001)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # at 1e300
    def test_observations_beyond_the_key_range(self):
        table = curve_table(np.random.default_rng(67).normal(size=1000), 0.1, seed=67)
        key = table.columns[S2]
        for value in (key.min() - 0.5, key.max() + 0.5, -1e12, 1e12, -1e300, 1e300):
            s_obs = table.summaries[5].copy()
            s_obs[S2] = value
            for eps in (0.001, 0.05, 0.3):
                assert_exact(table, s_obs, eps)
        for value in (key.min() - 0.5, key.max() + 0.5):
            s_obs = np.array([value - np.median(key), value, 2 * value, 0.0])
            assert_exact(table, s_obs, 0.01)
            assert searches_slab(table, s_obs, 0.01)

    @pytest.mark.filterwarnings("error")  # a one-row table has no sample sd to warn about
    def test_one_row_and_every_row(self):
        table = synthetic_table(1000, seed=68)
        s_obs = np.random.default_rng(69).normal(size=4)
        assert assert_exact(table, s_obs, 1 / 1000).n_draws == 1
        assert assert_exact(table, s_obs, 1.0).n_draws == 1000
        single = synthetic_table(1, seed=70)
        assert assert_exact(single, s_obs, 0.5).indices.tolist() == [0]

    def test_key_values_near_1e11(self):
        rng = np.random.default_rng(71)
        keys = 1e11 + np.round(rng.normal(scale=5.0, size=3000), 5)
        keys[:1000] = 1e11  # a tied block at the observation's key
        table = curve_table(keys, 0.01, seed=71)
        searched = 0
        for offset in (0.0, np.spacing(1e11), -3 * np.spacing(1e11), 2.5, -40.0):
            centred = 1e11 + offset - np.median(keys)
            s_obs = np.array([centred, 1e11 + offset, 2 * centred, centred**3 / 100])
            for eps in (0.0005, 0.01, 0.2):
                assert_exact(table, s_obs, eps)
                searched += searches_slab(table, s_obs, eps)
        assert searched >= 5

    @staticmethod
    def radius_table(t, seed=72):
        """50 rows: s1 equals the key column in every row but 5 and 9, which
        swap an offset ``t`` between them, so both columns share one scale and
        rows 5 (``t`` on the key alone) and 9 (``t`` on s1 alone) tie. Rows 1
        and 2 sit on the origin; the rest lie 10 to 20 away in every column."""
        key = S2
        rng = np.random.default_rng(seed)
        summaries = rng.uniform(10.0, 20.0, size=(50, 4)) * rng.choice([-1, 1], size=(50, 4))
        summaries[:, 0] = summaries[:, key]
        summaries[[1, 2, 5, 9]] = 0.0
        summaries[5, key] = summaries[9, 0] = t
        return with_summaries(synthetic_table(50, seed=seed), summaries)

    def test_row_at_exactly_the_radius_along_the_key(self):
        # three accepted rows: the radius is the tie of rows 5 and 9, and row 5
        # wins it by its index. At this t, radius * scale rounds below t: a
        # slab of exactly that half-width would miss row 5
        t = 0.4471792560099517
        table = self.radius_table(t)
        scale, key = table.scales[S2], S2
        assert table.scales[0] == scale
        post = assert_exact(table, np.zeros(4), 3 / 50)
        assert post.indices.tolist() == [1, 2, 5]
        assert post.delta == standardized_distances(table, np.zeros(4))[9] > 0.0
        assert post.delta * scale < table.summaries[5, key] == t

    @pytest.mark.parametrize("t", [0.4471792560099517, 1e-170])
    def test_radius_margin_along_s2(self, t, monkeypatch):
        # radius_table ties every column's slab count, so the chooser takes s1,
        # where row 5 sits at 0; searched along s2, row 5 lies at the radius
        table = self.radius_table(t)
        assert inference._narrowest_column(table, np.zeros(4), 3) == 0
        monkeypatch.setattr(inference, "_narrowest_column", lambda *args: S2)
        assert searches_slab(table, np.zeros(4), 3 / 50)
        assert assert_exact(table, np.zeros(4), 3 / 50).indices.tolist() == [1, 2, 5]

    def test_row_whose_key_term_underflows(self):
        # row 5's key offset squares to 0, so it ties rows 1 and 2 at distance
        # 0: the radius is 0, and only the slab's absolute margin keeps row 5
        table = self.radius_table(1e-170)
        post = assert_exact(table, np.zeros(4), 3 / 50)
        assert post.indices.tolist() == [1, 2, 5] and post.delta == 0.0


class TestReferenceTableChecks:
    @pytest.mark.parametrize("name", ["params", "summaries"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_refused(self, name, value):
        table = synthetic_table(10, seed=18)
        arrays = {"params": table.params.copy(), "summaries": table.summaries.copy()}
        arrays[name][3, 1] = value
        with pytest.raises(ValueError, match="every parameter and summary row must be finite"):
            replace(table, **arrays)


def affine_posterior(seed=16, m=160, slope=None, intercept=None, noise=0.0):
    """Rejection posterior whose params are (almost) affine in summaries.

    The summary cloud is symmetric around s_obs = 0 so location estimates
    are insensitive to shrinkage of the fitted regression function.
    """
    rng = np.random.default_rng(seed)
    slope = np.array([[1.5, -2.0, 0.5, 3.0], [0.25, 1.0, -0.5, 0.75]]) if slope is None else slope
    intercept = np.array([50.0, 25.0]) if intercept is None else intercept
    half = rng.normal(size=(m // 2, 4))
    summaries = np.vstack([half, -half])
    m = len(summaries)
    params = summaries @ slope.T + intercept + noise * rng.normal(size=(m, 2))
    prior = PriorSpec(kappa_range=(0.0, 1000.0), lambda_range=(0.0, 1000.0))
    table = ReferenceTable(
        params=np.clip(params, 1e-9, None), summaries=summaries,
        prior=prior, config=SMALL_SIM, seed=0,
    )
    s_obs = np.zeros(4)
    return abc_reject(table, s_obs, 1.0), s_obs, slope, intercept


class TestLoclinearAdjust:
    def test_exact_affine_collapses(self):
        accepted, s_obs, slope, intercept = affine_posterior()
        post = loclinear_adjust(accepted, s_obs)
        # all corrected draws equal the regression prediction at s_obs
        spread = post.draws.max(axis=0) - post.draws.min(axis=0)
        assert np.all(spread < 1e-9)
        scales = accepted.scales
        predicted = intercept  # summaries are standardized around s_obs = 0
        np.testing.assert_allclose(post.draws[0], predicted, rtol=1e-9)
        assert float(np.var(post.draws[:, 0])) < 1e-20
        assert float(np.var(post.draws[:, 1])) < 1e-20

    def test_regression_through_weighted_centroid(self):
        # summaries exactly symmetric around s_obs make the kernel-weighted
        # covariate mean equal s_obs, so the prediction at s_obs must be the
        # kernel-weighted mean of the draws
        rng = np.random.default_rng(17)
        half = rng.normal(size=(40, 4))
        summaries = np.vstack([half, -half])
        params = np.column_stack([
            50.0 + summaries @ np.array([1.0, 2.0, -1.0, 0.5]) + rng.normal(size=80),
            20.0 + summaries @ np.array([0.3, -0.6, 0.2, 0.1]) + rng.normal(size=80),
        ])
        table = ReferenceTable(
            params=params, summaries=summaries,
            prior=PriorSpec((0.0, 1000.0), (0.0, 1000.0)), config=SMALL_SIM, seed=0,
        )
        accepted = abc_reject(table, np.zeros(4), 1.0)
        post = loclinear_adjust(accepted, np.zeros(4))
        kernel = np.clip(1.0 - (accepted.distances / accepted.delta) ** 2, 0.0, None)
        expected = (kernel @ accepted.draws) / kernel.sum()
        # prediction at s_obs = corrected draw minus its residual
        fitted_at_obs = post.draws - (accepted.draws - _loclinear_fitted(accepted))
        np.testing.assert_allclose(fitted_at_obs[0], expected, rtol=1e-8)

    def test_normal_equations_oracle(self):
        accepted, s_obs, _, _ = affine_posterior(seed=18, m=200, noise=2.5)
        post = loclinear_adjust(accepted, s_obs)
        # independent normal-equations solve with explicit kernel weights
        z = (accepted.summaries - s_obs) / accepted.scales
        x = np.column_stack([np.ones(len(z)), z])
        w = 1.0 - (accepted.distances / accepted.delta) ** 2
        w = np.clip(w, 0.0, None)
        xtw = x.T * w
        beta = np.linalg.solve(xtw @ x, xtw @ accepted.draws)
        corrected = beta[0] + accepted.draws - x @ beta
        corrected = np.clip(
            corrected,
            [accepted.prior.kappa_range[0], accepted.prior.lambda_range[0]],
            [accepted.prior.kappa_range[1], accepted.prior.lambda_range[1]],
        )
        np.testing.assert_allclose(post.draws, corrected, atol=1e-8)

    def test_singular_design_names_columns(self):
        accepted, s_obs, _, _ = affine_posterior(seed=19, m=60, noise=1.0)
        degraded = accepted.summaries.copy()
        degraded[:, 2] = 7.0  # constant column becomes zero after centering? no:
        # constant equal to s_obs offset; make it exactly s_obs to zero it out
        degraded[:, 2] = s_obs[2]
        broken = WeightedPosterior(
            draws=accepted.draws, weights=accepted.weights, method="rejection",
            epsilon=accepted.epsilon, delta=accepted.delta, summaries=degraded,
            distances=accepted.distances, indices=accepted.indices,
            scales=accepted.scales, prior=accepted.prior,
        )
        with pytest.raises(SingularRegressionError) as excinfo:
            loclinear_adjust(broken, s_obs)
        assert "s3" in excinfo.value.columns

    def test_projection_counts(self):
        accepted, s_obs, slope, intercept = affine_posterior(seed=20, m=80, noise=30.0)
        tight_prior = PriorSpec(kappa_range=(0.0, 55.0), lambda_range=(0.0, 26.0))
        squeezed = WeightedPosterior(
            draws=accepted.draws, weights=accepted.weights, method="rejection",
            epsilon=accepted.epsilon, delta=accepted.delta, summaries=accepted.summaries,
            distances=accepted.distances, indices=accepted.indices,
            scales=accepted.scales, prior=tight_prior,
        )
        post = loclinear_adjust(squeezed, s_obs)
        assert post.n_projected > 0
        assert np.all(post.draws[:, 0] <= 55.0) and np.all(post.draws[:, 1] <= 26.0)

    def test_too_few_rows(self):
        accepted, s_obs, _, _ = affine_posterior(seed=21, m=5)
        with pytest.raises(ValueError):
            loclinear_adjust(accepted, s_obs)

    def test_log_transform(self):
        accepted, s_obs, _, _ = affine_posterior(seed=22, m=120, noise=1.0)
        post = loclinear_adjust(accepted, s_obs, transform="log")
        assert np.all(post.draws > 0)


def _loclinear_fitted(accepted):
    z = (accepted.summaries - 0.0) / accepted.scales
    x = np.column_stack([np.ones(len(z)), z])
    w = np.clip(1.0 - (accepted.distances / accepted.delta) ** 2, 0.0, None)
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(x * sw[:, None], accepted.draws * sw[:, None], rcond=None)
    return x @ beta


class TestNeuralnetAdjust:
    def test_affine_agreement_with_loclinear(self):
        accepted, s_obs, _, _ = affine_posterior(seed=23, m=200)
        linear = loclinear_adjust(accepted, s_obs)
        net = neuralnet_adjust(accepted, s_obs, NetConfig(n_iter=20_000, seed=1))
        for k in (0, 1):
            lm = weighted_quantile(linear, k, 0.5)
            nm = weighted_quantile(net, k, 0.5)
            assert abs(nm - lm) < 1e-2, (k, nm, lm)

    def test_min_rows_guard(self):
        accepted, s_obs, _, _ = affine_posterior(seed=24, m=30)
        with pytest.raises(ValueError):
            neuralnet_adjust(accepted, s_obs, NetConfig(n_hidden=5))

    def test_deterministic(self):
        accepted, s_obs, _, _ = affine_posterior(seed=25, m=120, noise=4.0)
        a = neuralnet_adjust(accepted, s_obs, NetConfig(n_iter=500))
        b = neuralnet_adjust(accepted, s_obs, NetConfig(n_iter=500))
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.weights, b.weights)

    def test_desk_table_fit_moves_draws(self, desk_table):
        # row 44001 held out at eps 0.001 (100 accepted rows): a network
        # whose output weights sit at zero predicts a constant, which leaves
        # every draw where rejection put it (spread ratio ~1e-14)
        row = 44001
        s_obs = desk_table.summaries[row]
        accepted = abc_reject(desk_table.without_row(row), s_obs, 0.001)
        net = neuralnet_adjust(accepted, s_obs)
        moved = np.std(net.draws - accepted.draws, axis=0) / np.std(accepted.draws, axis=0)
        assert np.all(moved > 0.05), moved

    def test_default_stop_matches_converged_fit(self, desk_table):
        # the default stops vmmin at 700 iterations; on these rows at eps
        # 0.001 (100 accepted rows) seven fits meet RELTOL first and one
        # (row 2641, 826 iterations to RELTOL) hits the cap. Each median
        # stays within 1e-2 of the converged 95% HPD width (measured gap at
        # most 1.2e-3, row 2641; stopped at 650 it would be 1.3e-2)
        for row in (63986, 83105, 2641, 46724, 79051, 85175, 36545, 7982):
            s_obs = desk_table.summaries[row]
            accepted = abc_reject(desk_table.without_row(row), s_obs, 0.001)
            capped = neuralnet_adjust(accepted, s_obs)
            converged = neuralnet_adjust(accepted, s_obs, NetConfig(n_iter=20_000))
            for k in (0, 1):
                lo, hi = hpd_interval(converged, k, INTERVAL_MASS)
                gap = abs(weighted_quantile(capped, k, 0.5) - weighted_quantile(converged, k, 0.5))
                assert gap <= 1e-2 * (hi - lo), (row, k, gap, hi - lo)


def at_delta_posterior():
    """60 accepted rows whose distances all equal delta = 1: no row lies
    strictly inside delta, so every Epanechnikov weight is 0."""
    accepted, s_obs, _, _ = affine_posterior(seed=40, m=60, noise=1.0)
    return replace(accepted, distances=np.ones(60), delta=1.0), s_obs


class TestAcceptedSet:
    def test_loclinear_at_delta_is_unweighted(self):
        accepted, s_obs = at_delta_posterior()
        post = loclinear_adjust(accepted, s_obs)
        assert np.array_equal(post.weights, np.full(60, 1 / 60))
        # delta = 0 gives unit kernel weights too
        unweighted = loclinear_adjust(replace(accepted, delta=0.0), s_obs)
        assert np.array_equal(post.draws, unweighted.draws)

    def test_neuralnet_at_delta_is_unweighted(self):
        # pinned from the fit that treated the zero weight sum as uniform weights
        accepted, s_obs = at_delta_posterior()
        post = neuralnet_adjust(accepted, s_obs, NetConfig(n_iter=200))
        assert np.array_equal(post.weights, np.full(60, 1 / 60))
        np.testing.assert_allclose(post.draws[0], [51.651801141094985, 24.496217405078742],
                                   rtol=1e-9)
        np.testing.assert_allclose(post.draws.sum(axis=0),
                                   [2986.1836803719934, 1496.3145054143365], rtol=1e-9)

    @pytest.mark.parametrize("missing", ["summaries", "distances", "scales", "prior"])
    @pytest.mark.parametrize("correct", [loclinear_adjust, neuralnet_adjust],
                             ids=["loclinear", "neuralnet"])
    def test_correction_needs_the_rejection_set(self, correct, missing):
        accepted, s_obs, _, _ = affine_posterior(seed=41, m=60)
        with pytest.raises(ValueError, match=f"lacks the accepted {missing}; run abc_reject"):
            correct(replace(accepted, **{missing: None}), s_obs)


class TestAdjust:
    def test_shared_rejection_matches_fit(self):
        table = synthetic_table(2000, seed=32)
        s_obs = np.random.default_rng(33).normal(size=4)
        accepted = abc_reject(table, s_obs, 0.05)
        for method in ("rejection", "loclinear", "neuralnet"):
            shared = adjust(accepted, s_obs, method)
            alone = fit(table, s_obs, method, 0.05)
            assert np.array_equal(shared.draws, alone.draws)
            assert np.array_equal(shared.weights, alone.weights)
            assert shared.method == method

    def test_unknown_method(self):
        table = synthetic_table(100, seed=34)
        accepted = abc_reject(table, table.summaries[0], 0.5)
        with pytest.raises(ValueError, match="unknown method"):
            adjust(accepted, table.summaries[0], "kernel")


class TestCachedOrder:
    def test_one_stable_order_per_column(self, monkeypatch):
        table = synthetic_table(2000, seed=49)
        post = abc_reject(table, table.summaries[3], 0.1)
        sorted_columns = []

        def counting(values):
            sorted_columns.append(values)
            return stable_order(values)

        stable_order = inference._stable_order
        monkeypatch.setattr(inference, "_stable_order", counting)
        for _ in range(2):
            for k in (1, 0):
                weighted_quantile(post, k, 0.5)
                hpd_interval(post, k, INTERVAL_MASS)
                weighted_quantile(post, k, 0.1)
        assert len(sorted_columns) == 2
        for k, values in enumerate(sorted_columns):
            np.testing.assert_array_equal(values, post.draws[:, k])

    def test_corrections_sort_their_own_draws(self):
        table = synthetic_table(2000, seed=50)
        s_obs = table.summaries[5]
        accepted = abc_reject(table, s_obs, 0.05)
        rejection_orders = accepted.orders
        for method in ("loclinear", "neuralnet"):
            corrected = adjust(accepted, s_obs, method)
            assert corrected.orders is not rejection_orders
            for k in (0, 1):
                np.testing.assert_array_equal(
                    corrected.orders[k], np.argsort(corrected.draws[:, k], kind="stable"))
        assert accepted.orders is rejection_orders

    def test_cached_results_equal_fresh_ones_on_ties(self):
        rng = np.random.default_rng(51)
        draws = rng.integers(0, 12, size=(400, 2)) * 0.25  # many ties
        weights = rng.uniform(size=400)
        post = WeightedPosterior(draws=draws, weights=weights / weights.sum(),
                                 method="loclinear", epsilon=0.1, delta=1.0)
        for k in (0, 1):
            for q in (0.0, 0.05, 0.5, 0.95, 1.0):
                fresh = replace(post)  # a new instance sorts again
                assert weighted_quantile(post, k, q) == weighted_quantile(fresh, k, q) \
                    == weighted_quantile_scan(draws[:, k], post.weights, q)
            for alpha in (0.5, INTERVAL_MASS):
                assert hpd_interval(post, k, alpha) == hpd_interval(replace(post), k, alpha) \
                    == hpd_two_pointer(draws[:, k], post.weights, alpha)


class TestWeightedQuantile:
    def test_equal_weights_median(self):
        post = WeightedPosterior(
            draws=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            weights=np.full(3, 1 / 3), method="rejection", epsilon=1.0, delta=0.0,
        )
        assert weighted_quantile(post, "kappa", 0.5) == 2.0

    def test_unequal_weights(self):
        post = WeightedPosterior(
            draws=np.array([[1.0, 1.0], [2.0, 2.0]]),
            weights=np.array([0.9, 0.1]), method="rejection", epsilon=1.0, delta=0.0,
        )
        assert weighted_quantile(post, "kappa", 0.5) == 1.0

    def test_cumulative_scan_oracle(self):
        rng = np.random.default_rng(26)
        draws = rng.normal(size=(100_000, 2))
        weights = rng.uniform(size=100_000)
        weights /= weights.sum()
        post = WeightedPosterior(draws=draws, weights=weights, method="rejection",
                                 epsilon=1.0, delta=0.0)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert weighted_quantile(post, "lambda", q) == weighted_quantile_scan(
                draws[:, 1], weights, q
            )

    def test_domain(self):
        post = WeightedPosterior(draws=np.array([[1.0, 1.0]]), weights=np.array([1.0]),
                                 method="rejection", epsilon=1.0, delta=0.0)
        with pytest.raises(ValueError):
            weighted_quantile(post, "kappa", 1.5)
        with pytest.raises(ValueError):
            weighted_quantile(post, "sigma", 0.5)

    def test_nan_weight_rejected(self):
        # NaN fails both the sign and the sum check's comparisons; accepted,
        # it would give the median 1.0 and the HPD (1.0, 1.0)
        draws = np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 5.0]])
        with pytest.raises(ValueError, match="nonnegative, not NaN"):
            WeightedPosterior(draws=draws, weights=np.array([0.5, np.nan, 0.5]),
                              method="rejection", epsilon=1.0, delta=0.0)


class TestHpdInterval:
    def test_uniform_window(self):
        draws = np.arange(1.0, 101.0)
        post = WeightedPosterior(
            draws=np.column_stack([draws, draws]), weights=np.full(100, 0.01),
            method="rejection", epsilon=1.0, delta=0.0,
        )
        lo, hi = hpd_interval(post, "kappa", 0.95)
        assert hi - lo == 94.0
        assert lo == 1.0  # tie rule: smallest lower endpoint

    def test_point_mass(self):
        post = WeightedPosterior(draws=np.array([[7.0, 3.0]]), weights=np.array([1.0]),
                                 method="rejection", epsilon=1.0, delta=0.0)
        assert hpd_interval(post, "kappa", 0.95) == (7.0, 7.0)

    def test_exhaustive_oracle_on_skewed_mixture(self):
        rng = np.random.default_rng(27)
        values = np.concatenate([
            rng.normal(0.0, 1.0, size=6000),
            rng.normal(5.0, 0.4, size=4000),
        ])
        weights = rng.uniform(0.1, 1.0, size=10_000)
        weights /= weights.sum()
        post = WeightedPosterior(
            draws=np.column_stack([values, values]), weights=weights,
            method="rejection", epsilon=1.0, delta=0.0,
        )
        assert hpd_interval(post, "kappa", 0.95) == hpd_exhaustive(values, weights, 0.95)
        assert hpd_interval(post, "kappa", 0.5) == hpd_exhaustive(values, weights, 0.5)

    def test_two_pointer_oracle_on_random_posteriors(self):
        # rounded draws tie; every other posterior has ~20% zero weights
        rng = np.random.default_rng(48)
        for case in range(300):
            m = int(rng.integers(1, 301))
            values = np.round(rng.normal(0.0, 3.0, size=m), int(rng.integers(0, 3)))
            if case % 2:
                weights = rng.uniform(size=m) * (rng.random(m) >= 0.2)
                if weights.sum() == 0.0:
                    weights[0] = 1.0
                weights /= weights.sum()
            else:
                weights = np.full(m, 1.0 / m)
            post = WeightedPosterior(draws=np.column_stack([values, values]),
                                     weights=weights, method="rejection",
                                     epsilon=1.0, delta=0.0)
            for alpha in (1e-6, 0.1, 0.5, 0.95, 1 - 1e-6):
                assert hpd_interval(post, "kappa", alpha) == hpd_two_pointer(
                    values, weights, alpha), (case, alpha)

    def test_two_pointer_oracle_at_window_mass_boundaries(self):
        # alpha - 1e-12 within a few floats of one window's mass, where
        # the mass test's rounding decides whether the window holds alpha
        rng = np.random.default_rng(50)
        for case in range(400):
            m = int(rng.integers(2, 60))
            values = np.round(rng.normal(size=m), 1)
            weights = rng.uniform(size=m) if case % 3 else np.ones(m)
            if case % 3 == 2:
                weights[rng.random(m) < 0.3] = 0.0
                weights[0] = 1.0
            weights /= weights.sum()
            post = WeightedPosterior(draws=np.column_stack([values, values]),
                                     weights=weights, method="rejection",
                                     epsilon=1.0, delta=0.0)
            order = np.argsort(values, kind="stable")
            cumulative = np.concatenate(([0.0], np.cumsum(weights[order] / weights.sum())))
            for _ in range(4):
                lo, hi = np.sort(rng.integers(0, m, size=2))
                on_mass = (cumulative[hi + 1] - cumulative[lo]) + 1e-12
                for alpha in on_mass + np.arange(-3, 4) * np.spacing(on_mass):
                    if 0.0 < alpha < 1.0:
                        assert hpd_interval(post, "kappa", alpha) == hpd_two_pointer(
                            values, weights, alpha), (case, alpha)

    def test_two_pointer_oracle_on_desk_posteriors(self, desk_table):
        rng = np.random.default_rng(49)
        for row in rng.choice(desk_table.n_rows, 2, replace=False):
            s_obs = desk_table.summaries[row]
            accepted = abc_reject(desk_table, s_obs, 0.1)
            for method in ("rejection", "loclinear"):
                post = adjust(accepted, s_obs, method)
                for k in (0, 1):
                    for alpha in (0.5, 0.95):
                        assert hpd_interval(post, k, alpha) == hpd_two_pointer(
                            post.draws[:, k], post.weights, alpha)

    def test_domain(self):
        post = WeightedPosterior(draws=np.array([[1.0, 1.0]]), weights=np.array([1.0]),
                                 method="rejection", epsilon=1.0, delta=0.0)
        with pytest.raises(ValueError):
            hpd_interval(post, "kappa", 1.0)


class TestPipelineDeterminism:
    def test_bit_identical_posteriors(self):
        table = generate_reference_table(PriorSpec(), 300, SMALL_SIM, seed=30, workers=2)
        s_obs = table.summaries[7]
        for method in ("rejection", "loclinear", "neuralnet"):
            a = fit(table, s_obs, method, 0.5)
            b = fit(table, s_obs, method, 0.5)
            assert np.array_equal(a.draws, b.draws)
            assert np.array_equal(a.weights, b.weights)
            assert a.delta == b.delta

    def test_posterior_invariants(self):
        table = generate_reference_table(PriorSpec(), 200, SMALL_SIM, seed=31)
        s_obs = table.summaries[3]
        for method in ("rejection", "loclinear"):
            post = fit(table, s_obs, method, 0.3)
            assert abs(post.weights.sum() - 1.0) < 1e-12
            assert np.all(post.weights >= 0)
            bounds = table.prior.bounds
            assert np.all(post.draws >= bounds[:, 0]) and np.all(post.draws <= bounds[:, 1])
