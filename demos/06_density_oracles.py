"""Numerical densities of the displacement building blocks.

f_V is the density of cos(phi) for a von Mises angle; f_Z multiplies in
an exponential duration; f_S handles the residual displacement past a
Gamma-distributed elapsed time. Each is checked against direct
simulation with a Kolmogorov-Smirnov statistic.
"""

import numpy as np

from stepturn import f_v_density, f_v_normalization, f_z_normalization, f_s_normalization
from stepturn.densities import (
    cos_vm_exp_sampler,
    cos_vm_sampler,
    cos_vm_shifted_gamma_sampler,
    density_mc_check,
    f_s_grid,
    f_v_grid,
    f_z_grid,
)

print("f_V at kappa = 0 is the arcsine law:")
for v in (0.0, 0.5, 0.9):
    print(f"  f_V({v}) = {f_v_density(v, 0.0):.6f}   arcsine = {1 / (np.pi * np.sqrt(1 - v * v)):.6f}")

print("\nnormalizations (each must integrate to 1):")
print(f"  f_V(kappa=2):             {f_v_normalization(2.0):.8f}")
print(f"  f_Z(kappa=5, lam=2):      {f_z_normalization(5.0, 2.0):.8f}")
print(f"  f_S(kappa=5, lam=2, n=3, c=4): {f_s_normalization(5.0, 2.0, 3, 4.0):.8f}")

print("\nMonte Carlo checks (KS distance vs the 1% critical value, 1e5 draws):")
checks = [
    ("f_V", f_v_grid(2.0), cos_vm_sampler(2.0)),
    ("f_Z", f_z_grid(5.0, 2.0), cos_vm_exp_sampler(5.0, 2.0)),
    ("f_S", f_s_grid(5.0, 2.0, 3, 4.0), cos_vm_shifted_gamma_sampler(5.0, 2.0, 3, 4.0)),
]
for name, grid, sampler in checks:
    result = density_mc_check(grid, sampler, 100_000, np.random.default_rng(1))
    verdict = "pass" if result.passed else "FAIL"
    print(f"  {name}: KS = {result.ks_distance:.5f} vs {result.critical:.5f} -> {verdict}")

print("\nthese densities assemble the per-observation displacement law; the")
print("full likelihood would still need a sum over every possible change")
print("count, which is why inference here goes through simulation instead.")
