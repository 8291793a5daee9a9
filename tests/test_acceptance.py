"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy criteria share the cached desk-scale reference table (1e5 rows,
dt = 0.5, 1500 observations per trajectory) and fixed seeds declared
below.

Criteria 4 and 5 read two leave-one-out runs at seed 202. Coverage and
p-value uniformity hold only for truths drawn from the prior the
posterior uses (Cook, Gelman & Rubin 2006; Prangle et al. 2014), so the
fine run (loclinear and neuralnet at eps 0.001) draws its 1000 held-out
truths from the whole table; at 1000 replicates the binomial standard
error of a coverage near 0.92 is under 0.009, small against the gap to
the 0.90 gate. The coarse run (rejection at eps 0.1) draws 100 truths
from the constrained corner kappa <= 70, lambda <= 25, the one region
where a wide posterior has a direction to detect: it lies mostly above
those truths. The coverage p-value is the posterior mass below the truth
(``coverage_pvalue``), so "mostly above" reads as mean p < 0.45.
"""

import numpy as np
import pytest

import stepturn.cli as cli
import stepturn.io as st_io
from stepturn import (
    MovementParams,
    NetConfig,
    change_counts,
    bessel_ratio,
    bessel_ratio_inverse,
    cross_validate,
    coverage_report,
    direct_fit,
    fit,
    hpd_interval,
    loclinear_adjust,
    neuralnet_adjust,
    observe,
    r_scan,
    simulate_latent,
    summarize,
    weighted_quantile,
)
from stepturn.densities import (
    cos_vm_exp_sampler,
    cos_vm_sampler,
    cos_vm_shifted_gamma_sampler,
    density_mc_check,
    f_s_grid,
    f_s_normalization,
    f_v_density,
    f_v_grid,
    f_v_normalization,
    f_z_grid,
    f_z_normalization,
)
from stepturn.experiments import DEFAULT_CONSTRAINT
from stepturn.nnet import Kernel, init_params, loss_and_grad
from stepturn.streams import stream

from oracles import bessel_ratio_series

SEED_CV_PAIRED = 101  # criterion 2: matched replicates across methods
SEED_CV_COVERAGE = 202  # criteria 4 and 5
N_REP_PRIOR = 1000  # criterion 4 and the loclinear half of 5
N_REP_CONSTRAINED = 100  # the rejection half of criterion 5
SEED_RSCAN = 303
SEED_ANCHOR = 404


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def paired_crossval(desk_table):
    rejection = cross_validate(
        desk_table, methods=("rejection",), epsilons=(0.1, 0.001),
        n_rep=50, seed=SEED_CV_PAIRED, workers=2,
    )
    corrected = cross_validate(
        desk_table, methods=("loclinear", "neuralnet"), epsilons=(0.001,),
        n_rep=50, seed=SEED_CV_PAIRED, workers=2,
    )
    return rejection, corrected


@pytest.fixture(scope="module")
def coverage_runs(desk_table):
    # truths drawn from the prior, as coverage and uniformity presume
    fine = cross_validate(
        desk_table, methods=("loclinear", "neuralnet"), epsilons=(0.001,),
        n_rep=N_REP_PRIOR, constraint=None, seed=SEED_CV_COVERAGE, workers=2,
    )
    # truths from the constrained corner, where coarse rejection overshoots
    coarse = cross_validate(
        desk_table, methods=("rejection",), epsilons=(0.1,),
        n_rep=N_REP_CONSTRAINED, constraint=DEFAULT_CONSTRAINT,
        seed=SEED_CV_COVERAGE, workers=2,
    )
    return fine, coarse


class TestCriterion1:
    def test_worked_example_change_counts_exact(self):
        counts = change_counts([0.2, 0.2, 0.7, 0.4, 0.4, 0.8], 0.5, 5)
        report(
            "1 (worked-example exactness)",
            counts.tolist() == [1, 1, 3, 4, 4],
            f"change counts {counts.tolist()} vs (1, 1, 3, 4, 4), zero tolerance",
        )


class TestCriterion2:
    def test_epsilon_ordering(self, paired_crossval):
        rejection, corrected = paired_crossval
        details = []
        ordered = True
        for param in ("kappa", "lambda"):
            coarse = rejection.prediction_error("rejection", 0.1, param)
            fine = rejection.prediction_error("rejection", 0.001, param)
            ordered &= coarse > fine
            details.append(f"rejection {param}: {coarse:.3f} @0.1 > {fine:.3f} @0.001")
        rej_lambda = rejection.prediction_error("rejection", 0.001, "lambda")
        for method in ("loclinear", "neuralnet"):
            err = corrected.prediction_error(method, 0.001, "lambda")
            ordered &= err <= rej_lambda
            details.append(f"{method} lambda {err:.3f} <= rejection {rej_lambda:.3f}")
        report("2 (epsilon ordering)", ordered, "; ".join(details))


class TestCriterion3:
    def test_rscan_trend(self, desk_table):
        scan = r_scan(
            desk_table, r_values=(0.25, 1.0, 4.5), kappa_values=(10.0, 40.0, 70.0),
            n_per_cell=25, methods=("rejection", "loclinear", "neuralnet"),
            epsilon=0.001, seed=SEED_RSCAN, workers=2,
        )
        details = []
        passed = True
        for method in ("rejection", "loclinear", "neuralnet"):
            low = scan.prediction_error(method, 0.25, "lambda")
            high = scan.prediction_error(method, 4.5, "lambda")
            passed &= high > low
            details.append(f"{method}: lambda err {low:.3f} @R=0.25 < {high:.3f} @R=4.5")
        for method in ("loclinear", "neuralnet"):
            md = scan.md_index(method, 1.0, "lambda")
            passed &= md < 0.5
            details.append(f"{method} MD @R=1: {md:.3f} < 0.5")
        report("3 (observation-scale trend)", passed, "; ".join(details))


class TestCriterion4:
    def test_corrected_coverage(self, coverage_runs):
        fine, _ = coverage_runs
        coverage = coverage_report(fine)
        details = []
        passed = True
        for method in ("loclinear", "neuralnet"):
            for param in ("kappa", "lambda"):
                key = (method, 0.001, param)
                cov = coverage[key]["empirical_coverage"]
                se = np.sqrt(cov * (1.0 - cov) / len(fine.cells[key]))
                passed &= cov >= 0.90
                details.append(f"{method} {param}: {cov:.3f} (se {se:.3f})")
        report(
            "4 (empirical coverage >= 0.90)",
            passed,
            f"95% HPD @0.001 over {N_REP_PRIOR} prior-drawn truths: " + "; ".join(details),
        )


class TestCriterion5:
    def test_coverage_test_direction(self, coverage_runs):
        fine, coarse = coverage_runs
        rej_p = [r.p for param in ("kappa", "lambda")
                 for r in coarse.cells["rejection", 0.1, param]]
        ll_p = [r.p for param in ("kappa", "lambda")
                for r in fine.cells["loclinear", 0.001, param]]
        rej_mean = float(np.mean(rej_p))
        ll_mean = float(np.mean(ll_p))
        # p is the posterior mass below the truth: more than 55% of the mass
        # above the truth on average is mean p < 0.45
        passed = rej_mean < 0.45 and 0.40 <= ll_mean <= 0.60
        report(
            "5 (coverage-test direction)",
            passed,
            f"p = posterior mass below truth; rejection @0.1 over {N_REP_CONSTRAINED} "
            f"constrained truths: mean p = {rej_mean:.3f} (required < 0.45, i.e. more "
            f"than 55% of the mass above the truth); loclinear @0.001 over "
            f"{N_REP_PRIOR} prior-drawn truths: mean p = {ll_mean:.3f} "
            f"(required in [0.40, 0.60])",
        )


class TestCriterion6:
    def test_bessel_round_trip(self):
        worst = 0.0
        for y in np.linspace(0.0, 0.999, 1000):
            worst = max(worst, abs(bessel_ratio(bessel_ratio_inverse(y)) - y))
        a2_err = abs(bessel_ratio(2.0) - bessel_ratio_series(2.0))
        passed = worst < 1e-8 and a2_err < 1e-10
        report(
            "6 (Bessel round trip)",
            passed,
            f"max |A(Ainv(y)) - y| = {worst:.2e} < 1e-8; |A(2) - series| = {a2_err:.2e} < 1e-10",
        )


class TestCriterion7:
    def test_density_oracle_suite(self):
        details = []
        passed = True
        # normalizations at stated tolerances
        for kappa in (0.5, 2.0, 10.0):
            err = abs(f_v_normalization(kappa) - 1.0)
            passed &= err < 1e-6
            details.append(f"fV norm k={kappa:g}: {err:.1e}")
        for kappa, lam in ((0.0, 1.0), (5.0, 2.0), (20.0, 0.5)):
            err = abs(f_z_normalization(kappa, lam) - 1.0)
            passed &= err < 1e-5
            details.append(f"fZ norm ({kappa:g},{lam:g}): {err:.1e}")
        for kappa, lam, n, c in ((5.0, 2.0, 3, 4.0), (0.0, 1.0, 1, 2.0), (10.0, 3.0, 5, 3.0)):
            err = abs(f_s_normalization(kappa, lam, n, c) - 1.0)
            passed &= err < 1e-5
            details.append(f"fS norm ({kappa:g},{lam:g},{n},{c:g}): {err:.1e}")
        # Monte Carlo KS at the 1% level, three settings per density, each
        # setting on its own stream: one base seed, task indices 0-8
        checks = [(f"fV KS k={kappa:g}", f_v_grid(kappa), cos_vm_sampler(kappa))
                  for kappa in (0.5, 2.0, 10.0)]
        checks += [(f"fZ KS ({kappa:g},{lam:g})", f_z_grid(kappa, lam),
                    cos_vm_exp_sampler(kappa, lam))
                   for kappa, lam in ((0.0, 1.0), (5.0, 2.0), (20.0, 0.5))]
        checks += [(f"fS KS ({kappa:g},{lam:g},{n},{c:g})", f_s_grid(kappa, lam, n, c),
                    cos_vm_shifted_gamma_sampler(kappa, lam, n, c))
                   for kappa, lam, n, c in
                   ((5.0, 2.0, 3, 4.0), (0.0, 1.0, 1, 2.0), (10.0, 3.0, 5, 3.0))]
        for task, (label, grid, sampler) in enumerate(checks):
            check = density_mc_check(grid, sampler, 100_000, rng=stream(1, task))
            passed &= check.passed
            details.append(f"{label}: {check.ks_distance:.4f}")
        # small-concentration limit against the arcsine law
        v = np.linspace(-0.9, 0.9, 361)
        arcsine = 1.0 / (np.pi * np.sqrt(1.0 - v * v))
        worst = float(np.max(np.abs(f_v_density(v, 1e-6) - arcsine)))
        passed &= worst < 1e-6
        details.append(f"fV arcsine limit: {worst:.1e}")
        report("7 (density oracle suite)", passed, "; ".join(details))


class TestCriterion8:
    def test_renewal_invariant(self):
        lam, dt, n_paths = 2.0, 0.5, 10_000
        js = (1, 5, 10)
        counts = np.empty((n_paths, len(js)))
        for i in range(n_paths):
            rng = stream(8, i)
            durations = rng.exponential(1.0 / lam, size=40)
            while durations.sum() < 10 * dt:
                durations = np.concatenate(
                    [durations, rng.exponential(1.0 / lam, size=20)])
            all_counts = change_counts(durations, dt, 10)
            counts[i] = [all_counts[j - 1] + 1 for j in js]
        details = []
        passed = True
        for col, j in enumerate(js):
            mean = counts[:, col].mean()
            se = counts[:, col].std(ddof=1) / np.sqrt(n_paths)
            ok = abs(mean - lam * j * dt) < 4 * se
            passed &= ok
            details.append(f"j={j}: mean {mean:.4f} vs {lam * j * dt:.2f} (4se={4 * se:.4f})")
        report("8 (renewal invariant)", passed, "; ".join(details))


class TestCriterion9:
    def test_gradient_check(self):
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(900 + trial)
            n = int(rng.integers(12, 40))
            d = int(rng.integers(1, 5))
            h = int(rng.integers(2, 7))
            o = int(rng.integers(1, 3))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, o))
            w = rng.uniform(0.1, 1.0, size=n)
            l2 = float(rng.uniform(1e-4, 1e-1))
            flat, shapes = init_params(d, h, o, seed=trial)
            flat = flat + 0.1 * rng.normal(size=flat.shape)
            kernel = Kernel(shapes, x, y, w, l2)
            _, analytic = loss_and_grad(flat, kernel)
            numeric = np.empty_like(flat)
            for i in range(len(flat)):
                up = flat.copy()
                up[i] += 1e-6
                down = flat.copy()
                down[i] -= 1e-6
                numeric[i] = (
                    loss_and_grad(up, kernel)[0]
                    - loss_and_grad(down, kernel)[0]
                ) / 2e-6
            scale = max(np.max(np.abs(numeric)), 1e-12)
            worst = max(worst, float(np.max(np.abs(analytic - numeric)) / scale))
        report("9 (gradient check)", worst < 1e-4,
               f"max relative error {worst:.2e} over 20 configurations < 1e-4")


class TestCriterion10:
    def test_linear_truth_collapse(self):
        rng = np.random.default_rng(10)
        half = rng.normal(size=(100, 4))
        summaries = np.vstack([half, -half])
        slope = np.array([[1.5, -2.0, 0.5, 3.0], [0.25, 1.0, -0.5, 0.75]])
        intercept = np.array([50.0, 25.0])
        params = summaries @ slope.T + intercept
        from stepturn.inference import PriorSpec, ReferenceTable, SimConfig, abc_reject
        table = ReferenceTable(
            params=params, summaries=summaries,
            prior=PriorSpec((0.0, 1000.0), (0.0, 1000.0)),
            config=SimConfig(dt=0.5, min_obs=100), seed=0,
        )
        accepted = abc_reject(table, np.zeros(4), 1.0)
        linear = loclinear_adjust(accepted)
        net = neuralnet_adjust(accepted, NetConfig(n_iter=20_000))
        variances = [float(np.var(linear.draws[:, k])) for k in (0, 1)]
        gaps = [abs(weighted_quantile(net, k, 0.5) - weighted_quantile(linear, k, 0.5))
                for k in (0, 1)]
        passed = all(v < 1e-20 for v in variances) and all(g < 1e-2 for g in gaps)
        report(
            "10 (linear-truth collapse)",
            passed,
            f"loclinear variances {variances[0]:.1e}, {variances[1]:.1e} < 1e-20; "
            f"median gaps {gaps[0]:.2e}, {gaps[1]:.2e} < 1e-2",
        )


class TestCriterion11:
    def test_determinism_digests(self, tmp_path):
        ref_args = ["reftable", "--n-sims", "200", "--min-obs", "200",
                    "--shard-size", "50", "--seed", "21"]
        digests = {}
        for workers in (1, 8):
            for run in (0, 1):
                out = tmp_path / f"ref_w{workers}_r{run}"
                assert cli.main(ref_args + ["--workers", str(workers),
                                            "--out", str(out)]) == 0
                digests[(workers, run)] = st_io.sha256_file(out / "table.csv")
        table_ok = len(set(digests.values())) == 1
        table_path = tmp_path / "ref_w1_r0" / "table.csv"
        scan_args = ["rscan", "--table", str(table_path), "--r-values", "0.5", "1.0",
                     "--kappa-values", "20", "--n-per-cell", "3",
                     "--methods", "rejection", "loclinear", "--epsilon", "0.1",
                     "--seed", "22"]
        scan_digests = set()
        for workers in (1, 8):
            for run in (0, 1):
                out = tmp_path / f"scan_w{workers}_r{run}"
                assert cli.main(scan_args + ["--workers", str(workers),
                                             "--out", str(out)]) == 0
                scan_digests.add(st_io.sha256_file(out / "rscan.csv"))
        passed = table_ok and len(scan_digests) == 1
        report(
            "11 (determinism)",
            passed,
            f"reftable digests unique={len(set(digests.values()))}, "
            f"rscan digests unique={len(scan_digests)} across workers {{1, 8}} and reruns",
        )


class TestCriterion12:
    def test_direct_fit_anchor(self, desk_table):
        params = MovementParams(kappa=20.0, lam=2.0)
        path = simulate_latent(params, 5000, np.random.default_rng(SEED_ANCHOR))
        anchor = direct_fit(path.durations, path.turns)
        lam_rel = abs(anchor.lambda_median - 2.0) / 2.0
        kap_rel = abs(anchor.kappa_median - 20.0) / 20.0
        track = observe(path, 0.5, 1500)
        posterior = fit(desk_table, summarize(track).as_array(), "loclinear", 0.001)
        kappa_hpd = hpd_interval(posterior, "kappa", 0.95)
        lambda_hpd = hpd_interval(posterior, "lambda", 0.95)
        contained = (
            kappa_hpd[0] <= anchor.kappa_median <= kappa_hpd[1]
            and lambda_hpd[0] <= anchor.lambda_median <= lambda_hpd[1]
        )
        passed = lam_rel < 0.05 and kap_rel < 0.05 and contained
        report(
            "12 (direct-fit anchor)",
            passed,
            f"direct medians within 5%: lambda {lam_rel:.3%}, kappa {kap_rel:.3%}; "
            f"ABC HPDs kappa {kappa_hpd}, lambda {lambda_hpd} contain direct medians: "
            f"{contained}",
        )
