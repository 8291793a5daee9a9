import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from stepturn import cli, inference
from stepturn import io as st_io
from stepturn import (
    DegenerateTrackError,
    MovementParams,
    ObservedTrack,
    SummaryVector,
    TrackTooShortError,
    bessel_ratio,
    bessel_ratio_inverse,
    decompose,
    observe,
    simulate_until,
    summarize,
)
from stepturn.summaries import SUMMARY_NAMES
from scipy.stats import spearmanr

from oracles import bessel_ratio_series, summaries_by_hand

SRC = Path(__file__).resolve().parent.parent / "src" / "stepturn"


def track_from(points):
    return ObservedTrack(dt=0.5, positions=np.asarray(points, dtype=float))


class TestDecompose:
    def test_right_angle(self):
        dec = decompose(track_from([(0, 0), (1, 0), (1, 1)]))
        np.testing.assert_allclose(dec.step_lengths, [1.0, 1.0])
        np.testing.assert_allclose(dec.turn_angles, [np.pi / 2])

    def test_collinear(self):
        dec = decompose(track_from([(0, 0), (1, 0), (2, 0)]))
        np.testing.assert_array_equal(dec.turn_angles, [0.0])

    def test_reversal_wraps_to_pi(self):
        dec = decompose(track_from([(0, 0), (1, 0), (0, 0)]))
        np.testing.assert_allclose(dec.turn_angles, [np.pi])

    def test_too_short(self):
        with pytest.raises(TrackTooShortError):
            decompose(track_from([(0, 0), (1, 0)]))


class TestBesselRatio:
    def test_at_zero(self):
        assert bessel_ratio(0.0) == 0.0

    def test_series_oracle_at_two(self):
        oracle = bessel_ratio_series(2.0)
        assert abs(bessel_ratio(2.0) - oracle) < 1e-10
        assert abs(oracle - 0.6977746579640078) < 1e-12

    def test_asymptotic_tail(self):
        assert abs(bessel_ratio(500.0) - (1.0 - 1.0 / (2 * 500.0))) < 1e-6

    def test_monotone_and_bounded(self):
        grid = np.concatenate([np.linspace(0, 20, 200), np.logspace(1.5, 4, 50)])
        values = bessel_ratio(grid)
        assert np.all(np.diff(values) > 0)
        assert np.all((values >= 0) & (values < 1))

    def test_series_agreement_over_range(self):
        for x in (0.1, 0.5, 1.0, 3.0, 7.0, 15.0, 30.0):
            rel = abs(bessel_ratio(x) - bessel_ratio_series(x)) / bessel_ratio_series(x)
            assert rel < 1e-10, x

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_ratio(-0.5)


class TestBesselRatioInverse:
    def test_origin(self):
        assert bessel_ratio_inverse(0.0) == 0.0

    def test_round_trip_at_two(self):
        assert abs(bessel_ratio_inverse(bessel_ratio(2.0)) - 2.0) < 1e-7

    def test_round_trip_near_one(self):
        x = bessel_ratio_inverse(0.999)
        assert abs(bessel_ratio(x) - 0.999) < 1e-8

    def test_round_trip_sweep(self):
        for y in np.linspace(0.0, 0.999, 1000):
            x = bessel_ratio_inverse(y)
            assert abs(bessel_ratio(x) - y) < 1e-8, y

    def test_clamp_limit_value(self):
        x = bessel_ratio_inverse(1.0 - 1e-12)
        assert np.isfinite(x) and x > 1e11

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_ratio_inverse(-0.01)
        with pytest.raises(ValueError):
            bessel_ratio_inverse(1.0)


class TestSummarize:
    def test_straight_unit_track(self):
        s = summarize(track_from([(0, 0), (1, 0), (2, 0), (3, 0)]))
        assert s.s1 == 1.0
        assert s.s3 == 0.0 and s.s4 == 0.0
        assert s.s2 == bessel_ratio_inverse(1.0 - 1e-12)  # clamped maximum

    def test_square_spiral(self):
        s = summarize(track_from([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert s.s1 == pytest.approx(1.0)
        # mean cos of (pi/2, pi/2) is 0 up to float pi rounding, so s2 ~ 0
        assert s.s2 == pytest.approx(0.0, abs=1e-15)
        assert s.s3 == pytest.approx(0.0, abs=1e-15)
        assert s.s4 == pytest.approx(0.0, abs=1e-15)

    def test_independent_reimplementation_oracle(self):
        params = MovementParams(kappa=20.0, lam=2.0)
        path = simulate_until(params, 1500 * 0.5, np.random.default_rng(77))
        track = observe(path, 0.5, 1500)
        s = summarize(track)
        s1, clamped_cos, s3, s4 = summaries_by_hand(track.positions.tolist())
        assert abs(s.s1 - s1) < 1e-12
        assert abs(bessel_ratio(s.s2) - clamped_cos) < 1e-10
        assert abs(s.s3 - s3) < 1e-12
        assert abs(s.s4 - s4) < 1e-12

    def test_degenerate_track(self):
        with pytest.raises(DegenerateTrackError):
            summarize(track_from([(0, 0)] * 5))

    def test_overflowing_steps_are_degenerate(self):
        # finite positions whose steps overflow: s4 would be NaN
        # and numpy warns of no overflow: the error reports it
        huge = [(0, 0), (1e308, 0), (-1e308, 0), (1e308, 0), (-1e308, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTrackError, match="a summary is not finite$"):
                summarize(track_from(huge))

    def test_too_few_turns(self):
        with pytest.raises(TrackTooShortError):
            summarize(track_from([(0, 0), (1, 0), (1, 1)]))  # only one turn angle

    def test_rigid_motion_invariance(self):
        params = MovementParams(kappa=20.0, lam=2.0)
        path = simulate_until(params, 400 * 0.5, np.random.default_rng(78))
        track = observe(path, 0.5, 400)
        base = summarize(track).as_array()
        angle = 0.7371
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        moved = ObservedTrack(
            dt=0.5,
            positions=track.positions @ rot.T + np.array([13.5, -8.25]),
            change_counts=track.change_counts,
        )
        transformed = summarize(moved).as_array()
        np.testing.assert_allclose(transformed, base, rtol=1e-10, atol=1e-10)

    def test_vector_round_trip(self):
        s = SummaryVector(1.5, 2.5, 0.25, 0.125)
        assert SummaryVector.from_array(s.as_array()) == s


class TestMonotoneResponse:
    def _mean_summaries(self, kappa, lam, n_tracks, seed, n_obs=1500):
        params = MovementParams(kappa=kappa, lam=lam)
        out = np.empty((n_tracks, 4))
        for i in range(n_tracks):
            rng = np.random.default_rng(seed + i)
            path = simulate_until(params, n_obs * 0.5, rng)
            out[i] = summarize(observe(path, 0.5, n_obs)).as_array()
        return out.mean(axis=0)

    def test_s2_increases_with_kappa(self):
        kappas = [5.0, 15.0, 30.0, 50.0, 70.0]
        means = [self._mean_summaries(k, 1.0, 200, 9000 + 37 * i)[1]
                 for i, k in enumerate(kappas)]
        rho = spearmanr(kappas, means).statistic
        assert rho > 0.9, (kappas, means)

    def test_s1_increases_with_lambda(self):
        lams = [0.2, 0.6, 1.0, 1.4, 1.8]  # R = lam * dt < 1 throughout
        means = [self._mean_summaries(20.0, lam, 200, 5000 + 41 * i)[0]
                 for i, lam in enumerate(lams)]
        rho = spearmanr(lams, means).statistic
        assert rho > 0.9, (lams, means)


def _summary_name_literals(tree):
    """Lines of tuple, list or set literals that hold a summary name, and of
    strings that hold the comma-joined summary set."""
    joined = ",".join(SUMMARY_NAMES)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if any(isinstance(e, ast.Constant) and e.value in SUMMARY_NAMES for e in node.elts):
                found.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if joined in node.value:
                found.append(node.lineno)
    return found


class TestOneOwner:
    def test_every_header_and_shape_reads_summary_names(self, tmp_path, capsys):
        assert SUMMARY_NAMES == tuple(SummaryVector.__dataclass_fields__)
        assert inference.SUMMARY_NAMES is SUMMARY_NAMES
        assert st_io.SUMMARY_HEADER == [*SUMMARY_NAMES]
        assert st_io.TABLE_HEADER == [*inference.PARAM_NAMES, *SUMMARY_NAMES]
        assert st_io.POSTERIOR_HEADER == [*inference.PARAM_NAMES, "weight"]
        rows, _ = inference.reference_rows(inference.PriorSpec(),
                                           inference.SimConfig(min_obs=20), 3, 0, 2)
        assert rows.shape == (2, len(inference.PARAM_NAMES) + len(SUMMARY_NAMES))
        track = observe(simulate_until(MovementParams(kappa=5.0, lam=1.0), 10.0,
                                       np.random.default_rng(5)), 0.5, 20)
        st_io.write_track_csv(tmp_path / "track.csv", track)
        assert cli.main(["summarize", "--track", str(tmp_path / "track.csv")]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == ",".join(SUMMARY_NAMES)
        # no module but summaries writes the set out; an .index("s2") lookup is no literal
        assert _summary_name_literals(ast.parse('x = ("kappa", "s3")\ny = "a,s1,s2,s3,s4"\n'
                                                'z = NAMES.index("s2")\n')) == [1, 2]
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "summaries.py" in modules
        offenders = {path.name: found for path in modules if path.name != "summaries.py"
                     if (found := _summary_name_literals(ast.parse(path.read_text())))}
        assert offenders == {}

    def test_one_shape_check_for_an_observed_vector(self):
        summaries = np.arange(10.0 * len(SUMMARY_NAMES)).reshape(10, -1)
        table = inference.ReferenceTable(np.ones((10, 2)), summaries,
                                         inference.PriorSpec(), inference.SimConfig(), 0)
        short = np.zeros(len(SUMMARY_NAMES) - 1)
        message = f"expected {len(SUMMARY_NAMES)} summary values, got shape"
        for check in (SummaryVector.from_array,
                      lambda s: inference.abc_reject(table, s, 0.5),
                      lambda s: inference.standardized_distances(table, s)):
            with pytest.raises(ValueError, match=message):
                check(short)
