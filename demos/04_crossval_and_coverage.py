"""Cross-validation metrics and coverage diagnostics at toy scale.

Each replicate treats one reference row as the observation, refits
against the rest, and records the posterior median, 95% HPD interval and
the coverage p-value (posterior mass below the truth). Prediction error
and the MD index aggregate the medians over observations kept away from
the upper prior limits; uniform p-values indicate a calibrated posterior,
but only for truths drawn from the whole prior, so the coverage table
comes from a second, unconstrained run.
"""

from stepturn import PriorSpec, SimConfig, coverage_report, cross_validate, generate_reference_table

sim = SimConfig(dt=0.5, min_obs=300)
print("building a 3000-row reference table...")
table = generate_reference_table(PriorSpec(), 3000, sim, seed=9, workers=2)

methods, epsilons = ("rejection", "loclinear"), (0.1, 0.01)
report = cross_validate(
    table,
    methods=methods,
    epsilons=epsilons,
    n_rep=40,
    seed=17,
    workers=2,
)

print(f"\n{'method':>10} {'eps':>6} {'param':>7} {'pred err':>9} {'MD':>7}")
for method in methods:
    for epsilon in epsilons:
        for param in ("kappa", "lambda"):
            print(f"{method:>10} {epsilon:6.3g} {param:>7} "
                  f"{report.prediction_error(method, epsilon, param):9.3f} "
                  f"{report.md_index(method, epsilon, param):7.3f}")

prior_drawn = cross_validate(
    table,
    methods=methods,
    epsilons=epsilons,
    n_rep=40,
    constraint=None,
    seed=17,
    workers=2,
)
coverage = coverage_report(prior_drawn)
print(f"\n{'method':>10} {'eps':>6} {'param':>7} {'coverage':>9} {'mean p':>7} {'KS p':>8}")
for (method, epsilon, param), entry in coverage.items():
    print(f"{method:>10} {epsilon:6.3g} {param:>7} "
          f"{entry['empirical_coverage']:9.2f} "
          f"{entry['mean_p']:7.3f} "
          f"{entry['ks_pvalue']:8.3g}")

print("\nsmaller epsilon shrinks the rejection error; the local-linear")
print("correction does better still. On truths drawn from the prior every")
print("method's p-values sit near uniform (mean p near 0.5, KS p-value well")
print("above 0): uniformity checks calibration, the error checks precision.")
print("With 40 replicates each coverage has a standard error near 0.04.")
