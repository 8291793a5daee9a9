from dataclasses import fields

import numpy as np
import pytest

from stepturn import (
    InsufficientPathError,
    MovementParams,
    change_counts,
    latent_from_steps,
    observe,
    sample_exponential,
    sample_von_mises,
    simulate_latent,
    simulate_until,
    wrap_angle,
)

from oracles import bessel_ratio_series, walk_polyline

EXAMPLE_DURATIONS = [0.2, 0.2, 0.7, 0.4, 0.4, 0.8]
EXAMPLE_TURNS = [0.32, 5.65, 5.81, 0.02, 0.11]  # interior turn points only


class TestMovementParams:
    def test_defaults_fixed(self):
        params = MovementParams(kappa=3.0, lam=2.0)
        assert [f.name for f in fields(params)] == ["kappa", "lam"]

    @pytest.mark.parametrize("kappa,lam", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0)])
    def test_invalid(self, kappa, lam):
        with pytest.raises(ValueError):
            MovementParams(kappa=kappa, lam=lam)


class TestSampleExponential:
    def test_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_exponential(2.0, rng, size=100_000)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - 0.5) < 3 * se
        assert np.all(draws > 0)

    def test_median(self):
        # P(X <= ln2 / lam) = 1/2
        rng = np.random.default_rng(2)
        draws = sample_exponential(1.0, rng, size=100_000)
        frac = np.mean(draws <= np.log(2.0))
        se = np.sqrt(0.25 / len(draws))
        assert abs(frac - 0.5) < 3 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_exponential(0.0, np.random.default_rng(0), size=1)
        with pytest.raises(ValueError):
            sample_exponential(-1.0, np.random.default_rng(0), size=1)


class TestSampleVonMises:
    def test_kappa_zero_uniform(self):
        rng = np.random.default_rng(3)
        draws = sample_von_mises(0.0, rng, size=100_000)
        sorted_draws = np.sort((draws + np.pi) / (2 * np.pi))
        i = np.arange(1, len(draws) + 1)
        ks = np.max(np.maximum(i / len(draws) - sorted_draws,
                               sorted_draws - (i - 1) / len(draws)))
        assert ks < 1.63 / np.sqrt(len(draws))  # 1% critical value

    def test_mean_resultant_length(self):
        rng = np.random.default_rng(4)
        draws = sample_von_mises(2.0, rng, size=100_000)
        resultant = np.hypot(np.cos(draws).mean(), np.sin(draws).mean())
        target = bessel_ratio_series(2.0)
        assert abs(target - 0.697775) < 1e-6  # series oracle sanity
        se = np.cos(draws).std(ddof=1) / np.sqrt(len(draws))
        assert abs(resultant - target) < 3 * se

    def test_high_concentration_mean(self):
        rng = np.random.default_rng(5)
        draws = sample_von_mises(50.0, rng, size=20_000)
        mean_angle = np.arctan2(np.sin(draws).mean(), np.cos(draws).mean())
        assert abs(mean_angle) < 0.05

    def test_range_and_domain(self):
        rng = np.random.default_rng(6)
        draws = sample_von_mises(0.7, rng, size=50_000)
        assert np.all(draws > -np.pi) and np.all(draws <= np.pi)
        with pytest.raises(ValueError):
            sample_von_mises(-0.1, rng, size=1)

    def test_kappa_limit(self):
        # kappa -> inf: turning angles collapse to 0
        rng = np.random.default_rng(7)
        draws = sample_von_mises(1e4, rng, size=10_000)
        assert np.all(np.abs(draws) < 0.1)


class TestLatentPath:
    def test_injected_example(self):
        path = latent_from_steps([1.0, 1.0], [np.pi / 2])
        np.testing.assert_allclose(path.positions, [[0, 0], [1, 0], [1, 1]], atol=1e-15)

    def test_straight_line(self):
        path = latent_from_steps([1.0, 2.0, 0.5], [0.0, 0.0])
        assert np.all(path.positions[:, 1] == 0.0)
        np.testing.assert_allclose(path.positions[:, 0], [0, 1, 3, 3.5])

    def test_statistical_means(self):
        params = MovementParams(kappa=10.0, lam=2.0)
        path = simulate_latent(params, 10_000, np.random.default_rng(8))
        se_dur = path.durations.std(ddof=1) / np.sqrt(len(path.durations))
        assert abs(path.durations.mean() - 0.5) < 3 * se_dur
        cos_turns = np.cos(path.turns)
        se_cos = cos_turns.std(ddof=1) / np.sqrt(len(cos_turns))
        assert abs(cos_turns.mean() - bessel_ratio_series(10.0)) < 3 * se_cos

    def test_position_recurrence_invariant(self):
        params = MovementParams(kappa=5.0, lam=3.0)
        path = simulate_latent(params, 5000, np.random.default_rng(9))
        steps = np.diff(path.positions, axis=0)
        expected = path.durations[:, None] * np.column_stack(
            (np.cos(path.headings), np.sin(path.headings))
        )
        np.testing.assert_allclose(steps, expected, atol=1e-9)

    def test_heading_recurrence_and_wrap(self):
        path = simulate_latent(MovementParams(kappa=0.2, lam=1.0), 5000,
                               np.random.default_rng(10))
        assert np.all(path.headings > -np.pi) and np.all(path.headings <= np.pi)
        assert np.all(path.turns > -np.pi) and np.all(path.turns <= np.pi)
        stepwise = wrap_angle(path.headings[:-1] + path.turns)
        np.testing.assert_allclose(
            np.sin(stepwise - path.headings[1:]), 0.0, atol=1e-9
        )

    def test_wrap_angle_matches_modular_formula(self):
        rng = np.random.default_rng(11)
        for theta in (rng.uniform(-np.pi, np.pi, 1000), 40.0 * rng.normal(size=1000),
                      np.array([-np.pi, np.pi, 0.0, 2.0 * np.pi, -3.0 * np.pi]),
                      np.array([3.5, 7.0, 3.0 * np.pi]), np.array([-3.5, -7.0])):
            expected = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
            expected[expected == -np.pi] = np.pi
            np.testing.assert_array_equal(wrap_angle(theta), expected)
        assert wrap_angle(-np.pi) == np.pi
        assert isinstance(wrap_angle(7.0), float)

    def test_determinism(self):
        params = MovementParams(kappa=4.0, lam=2.0)
        a = simulate_latent(params, 1000, np.random.default_rng(42))
        b = simulate_latent(params, 1000, np.random.default_rng(42))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.durations, b.durations)
        assert np.array_equal(a.turns, b.turns)

    def test_validation(self):
        with pytest.raises(ValueError):
            latent_from_steps([1.0, -1.0], [0.1])
        with pytest.raises(ValueError):
            latent_from_steps([1.0, 1.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            simulate_latent(MovementParams(kappa=1.0, lam=1.0), 0, np.random.default_rng(0))


class TestChangeCounts:
    def test_worked_example_counts(self):
        counts = change_counts(EXAMPLE_DURATIONS, 0.5, 5)
        assert counts.tolist() == [1, 1, 3, 4, 4]

    def test_no_turn_yet(self):
        assert change_counts([10.0], 0.5, 3).tolist() == [-1, -1, -1]

    def test_boundary_tie_counts(self):
        assert change_counts([0.5, 0.5], 0.5, 1).tolist() == [0]

    def test_non_decreasing(self):
        rng = np.random.default_rng(11)
        durations = rng.exponential(0.4, size=300)
        counts = change_counts(durations, 0.5, int(durations.sum() / 0.5) - 1)
        assert np.all(np.diff(counts) >= 0)

    def test_insufficient_path(self):
        with pytest.raises(InsufficientPathError) as excinfo:
            change_counts([0.6, 0.6], 0.5, 5)
        assert excinfo.value.first_uncovered_j == 3  # 3 * 0.5 > 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            change_counts([1.0], 0.0, 1)
        with pytest.raises(ValueError):
            change_counts([], 0.5, 1)


class TestObserve:
    def test_single_segment_uniform_motion(self):
        path = latent_from_steps([10.0], [])
        track = observe(path, 0.5, 4)
        expected = np.array([[0.5 * j, 0.0] for j in range(5)])
        np.testing.assert_array_equal(track.positions, expected)
        assert track.change_counts.tolist() == [-1, -1, -1, -1]  # still on segment 0

    def test_worked_example_against_arc_walker_oracle(self):
        path = latent_from_steps(EXAMPLE_DURATIONS, EXAMPLE_TURNS)
        track = observe(path, 0.5, 5)
        for j in range(1, 6):
            expected = walk_polyline(path.durations, path.turns, j * 0.5)
            np.testing.assert_allclose(track.positions[j], expected, atol=1e-12)

    def test_random_path_against_oracle(self):
        path = simulate_latent(MovementParams(kappa=2.0, lam=3.0), 400,
                               np.random.default_rng(12))
        n_obs = int(path.total_time / 0.25) - 1
        track = observe(path, 0.25, n_obs)
        for j in (1, n_obs // 3, n_obs - 1, n_obs):
            expected = walk_polyline(path.durations, path.turns, j * 0.25)
            np.testing.assert_allclose(track.positions[j], expected, atol=1e-12)

    def test_displacement_bound(self):
        path = simulate_latent(MovementParams(kappa=1.0, lam=4.0), 2000,
                               np.random.default_rng(13))
        track = observe(path, 0.5, int(path.total_time / 0.5) - 1)
        steps = np.hypot(*np.diff(track.positions, axis=0).T)
        assert np.all(steps <= 0.5 * (1 + 1e-12))

    def test_observations_on_polyline(self):
        path = simulate_latent(MovementParams(kappa=3.0, lam=2.0), 200,
                               np.random.default_rng(14))
        track = observe(path, 0.5, int(path.total_time / 0.5) - 1)
        # each observed point must sit on some segment of the polyline
        for point in track.positions[1:]:
            a = path.positions[:-1]
            b = path.positions[1:]
            seg = b - a
            seg_len2 = np.sum(seg**2, axis=1)
            t = np.clip(np.sum((point - a) * seg, axis=1) / seg_len2, 0.0, 1.0)
            nearest = a + t[:, None] * seg
            dist = np.min(np.hypot(*(nearest - point).T))
            assert dist < 1e-9

    def test_counts_match_change_counts(self):
        path = simulate_latent(MovementParams(kappa=2.0, lam=2.0), 500,
                               np.random.default_rng(15))
        n_obs = int(path.total_time / 0.5) - 1
        track = observe(path, 0.5, n_obs)
        np.testing.assert_array_equal(
            track.change_counts, change_counts(path.durations, 0.5, n_obs)
        )

    def test_insufficient_path(self):
        path = latent_from_steps([1.0], [])
        with pytest.raises(InsufficientPathError):
            observe(path, 0.5, 5)


class TestRenewalInvariant:
    def test_poisson_mean_of_counts(self):
        # durations i.i.d. Exp(lam): count of renewals by T is Poisson(lam T),
        # so mean(N_j + 1) must match lam * j * dt within 4 SE
        lam, dt = 2.0, 0.5
        n_paths = 10_000
        js = (1, 5, 10)
        counts = np.empty((n_paths, len(js)))
        for i in range(n_paths):
            rng = np.random.default_rng(1000 + i)
            durations = rng.exponential(1.0 / lam, size=60)
            while durations.sum() < 10 * dt:
                durations = np.concatenate([durations, rng.exponential(1.0 / lam, size=30)])
            all_counts = change_counts(durations, dt, 10)
            counts[i] = [all_counts[j - 1] + 1 for j in js]
        for col, j in enumerate(js):
            mean = counts[:, col].mean()
            se = counts[:, col].std(ddof=1) / np.sqrt(n_paths)
            assert abs(mean - lam * j * dt) < 4 * se, (j, mean, lam * j * dt, se)


class TestSimulateUntil:
    def test_covers_requested_time(self):
        params = MovementParams(kappa=1.0, lam=5.0)
        path = simulate_until(params, 100.0, np.random.default_rng(16))
        assert path.total_time >= 100.0
        cumsum = np.cumsum(path.durations)
        assert len(cumsum) == 1 or cumsum[-2] < 100.0  # minimal covering count

    @pytest.mark.parametrize("simulate", ["latent", "until"])
    def test_one_step_draws_no_turn(self, simulate):
        params = MovementParams(kappa=1.0, lam=1e-4)
        rng = np.random.default_rng(19)
        path = (simulate_latent(params, 1, rng) if simulate == "latent"
                else simulate_until(params, 10.0, rng))
        assert path.n_steps == 1 and path.turns.dtype == float and path.turns.shape == (0,)
        # the generator moved only by the duration draws (16: simulate_until's first chunk)
        replay = np.random.default_rng(19)
        sample_exponential(params.lam, replay, size=1 if simulate == "latent" else 16)
        assert replay.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("total_time", [0.0, -1.0, np.nan, np.inf])
    def test_total_time_must_be_finite_and_positive(self, total_time):
        with pytest.raises(ValueError, match="total_time must be finite and > 0"):
            simulate_until(MovementParams(kappa=1.0, lam=1.0), total_time,
                           np.random.default_rng(20))

    def test_tiny_rate_single_step(self):
        params = MovementParams(kappa=1.0, lam=1e-4)
        path = simulate_until(params, 10.0, np.random.default_rng(17))
        assert path.total_time >= 10.0

    def test_determinism(self):
        params = MovementParams(kappa=7.0, lam=3.0)
        a = simulate_until(params, 50.0, np.random.default_rng(18))
        b = simulate_until(params, 50.0, np.random.default_rng(18))
        assert np.array_equal(a.positions, b.positions)
