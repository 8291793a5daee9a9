import numpy as np
import pytest
from scipy.stats import gamma

from stepturn import (
    DensityGrid,
    density_mc_check,
    f_s_density,
    f_s_grid,
    f_s_normalization,
    f_v_density,
    f_v_grid,
    f_v_normalization,
    f_z_density,
    f_z_grid,
    f_z_normalization,
)
from stepturn.densities import (
    cos_vm_exp_sampler,
    cos_vm_sampler,
    cos_vm_shifted_gamma_sampler,
)


def arcsine(v):
    return 1.0 / (np.pi * np.sqrt(1.0 - np.asarray(v) ** 2))


class TestFV:
    def test_kappa_zero_is_arcsine(self):
        for v in (0.0, 0.5, -0.5):
            assert f_v_density(v, 0.0) == pytest.approx(arcsine(v), rel=1e-14)

    def test_small_kappa_near_arcsine(self):
        v = np.linspace(-0.9, 0.9, 181)
        np.testing.assert_allclose(f_v_density(v, 1e-6), arcsine(v), atol=1e-6)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 10.0, 100.0])
    def test_normalization(self, kappa):
        assert abs(f_v_normalization(kappa) - 1.0) < 1e-6

    def test_mc_oracle(self):
        grid = f_v_grid(2.0)
        result = density_mc_check(grid, cos_vm_sampler(2.0), 100_000, np.random.default_rng(1))
        assert result.passed

    def test_domain(self):
        with pytest.raises(ValueError):
            f_v_density(1.0, 2.0)
        with pytest.raises(ValueError):
            f_v_density(0.5, -1.0)


class TestFZ:
    def test_symmetric_at_kappa_zero(self):
        z = np.array([0.1, 0.5, 1.3, 2.7])
        left = f_z_density(-z, 0.0, 1.5)
        right = f_z_density(z, 0.0, 1.5)
        np.testing.assert_allclose(left, right, rtol=1e-8)

    @pytest.mark.parametrize("kappa,lam", [(0.0, 1.0), (5.0, 2.0), (2.0, 0.5)])
    def test_normalization(self, kappa, lam):
        assert abs(f_z_normalization(kappa, lam) - 1.0) < 1e-5

    def test_mc_oracle(self):
        grid = f_z_grid(5.0, 2.0)
        result = density_mc_check(grid, cos_vm_exp_sampler(5.0, 2.0), 100_000,
                                  np.random.default_rng(2))
        assert result.passed

    def test_quadrature_self_convergence(self):
        for z in (0.05, 0.7, -1.9):
            coarse = f_z_density(z, 3.0, 1.5, epsabs=1e-8)
            fine = f_z_density(z, 3.0, 1.5, epsabs=1e-12)
            assert abs(coarse - fine) < 1e-7

    def test_singularity_guard(self):
        with pytest.raises(ValueError):
            f_z_density(0.0, 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_z_density(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            f_z_density(0.5, 1.0, 0.0)


class TestFS:
    def test_limiting_regime_matches_scaled_fv(self):
        # a huge rate makes c - W concentrate at c, so S approaches c * V;
        # the KS gap scales like sqrt(1 / (lam c)) because of the
        # square-root density edge, so lam must be large for a 1e-2 bound
        kappa, lam, c = 2.0, 2000.0, 4.0
        grid = f_s_grid(kappa, lam, 1, c)
        inside = np.abs(grid.nodes / c) < 1.0
        fv = np.zeros_like(grid.nodes)
        fv[inside] = f_v_density(grid.nodes[inside] / c, kappa) / c
        ref = DensityGrid(support=grid.support, nodes=grid.nodes, values=fv,
                          quadrature_tol=5e-3)
        ks = np.max(np.abs(grid.cdf(grid.nodes) - ref.cdf(grid.nodes)))
        assert ks < 1e-2

    @pytest.mark.parametrize("kappa,lam,n,c", [(5.0, 2.0, 3, 4.0), (0.0, 1.0, 1, 2.0)])
    def test_normalization(self, kappa, lam, n, c):
        assert abs(f_s_normalization(kappa, lam, n, c) - 1.0) < 1e-5

    def test_mc_oracle(self):
        grid = f_s_grid(5.0, 2.0, 3, 4.0)
        sampler = cos_vm_shifted_gamma_sampler(5.0, 2.0, 3, 4.0)
        result = density_mc_check(grid, sampler, 100_000, np.random.default_rng(3))
        assert result.passed

    def test_domain(self):
        with pytest.raises(ValueError):
            f_s_density(0.5, 2.0, 1.0, 2.5, 4.0)  # non-integer shape
        with pytest.raises(ValueError):
            f_s_density(0.5, 2.0, 1.0, 0, 4.0)
        with pytest.raises(ValueError):
            f_s_density(0.5, -2.0, 1.0, 2, 4.0)


# (density, normalization, grid, a parameter setting the density refuses)
REFUSED = [
    (lambda kappa: f_v_density(0.5, kappa), f_v_normalization, f_v_grid, (-1.0,)),
    *((lambda kappa, lam: f_z_density(0.5, kappa, lam), f_z_normalization, f_z_grid, setting)
      for setting in ((-1.0, 2.0), (1.0, 0.0), (1.0, -2.0))),
    *((lambda kappa, lam, n, c: f_s_density(0.5, kappa, lam, n, c), f_s_normalization,
       f_s_grid, setting)
      for setting in ((-1.0, 2.0, 2, 4.0), (5.0, 0.0, 2, 4.0), (5.0, 2.0, 2.5, 4.0),
                      (5.0, 2.0, 0, 4.0), (5.0, 2.0, 2, 0.0), (5.0, 2.0, 2, -1.0))),
]


@pytest.mark.parametrize("density,normalization,grid,setting", REFUSED,
                         ids=[f"{norm.__name__}{setting}" for _, norm, _, setting in REFUSED])
def test_normalization_and_grid_refuse_what_the_density_refuses(density, normalization,
                                                                  grid, setting):
    with pytest.raises(ValueError) as refused:
        density(*setting)
    for follower in (normalization, grid):
        with pytest.raises(ValueError) as raised:
            follower(*setting)
        assert str(raised.value) == str(refused.value)


def test_sinh_sin_nodes_keep_their_bits():
    # f_S's nodes, written out in full: the sin map of midpoint sinh nodes
    from stepturn.densities import _sinh_sin_nodes
    for scale, n in ((1.0, 10), (4.000000001, 1000), (0.3, 7)):
        edges = np.linspace(-1.0, 1.0, n + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        expected = scale * np.sin(0.5 * np.pi * (np.sinh(6.0 * mids) / np.sinh(6.0)))
        assert _sinh_sin_nodes(scale, n).tobytes() == expected.tobytes()


def bits(x):
    return np.float64(x).tobytes()


def test_gamma_calls_equal_scipy_stats_bit_for_bit():
    # the Gamma quantile and tail of f_S, by scipy.special, against the
    # scipy.stats.gamma object the module once built for them
    from stepturn.densities import F_S_TAIL, _gamma_tail, _s_max
    for n in (1, 2, 3, 5, 10, 31, 100, 316, 1000, 5000):
        for lam in np.logspace(-3.0, 4.0, 15):
            dist = gamma(a=n, scale=1.0 / lam)
            for c in (0.3, 4.0):
                expected = max(c, abs(c - float(dist.ppf(1.0 - F_S_TAIL)))) + 1e-9
                assert bits(_s_max(5.0, lam, n, c)) == bits(expected)
            for w in np.concatenate([(n / lam) * np.array([0.01, 0.5, 1.0, 2.0, 10.0]),
                                     [0.3, 2.5, 4.0001, 7.0]]):
                assert bits(_gamma_tail(n, lam, w)) == bits(dist.sf(w))


class TestDensityGrid:
    def test_trapezoid_mass_near_one(self):
        for grid in (f_v_grid(2.0), f_z_grid(2.0, 1.0)):
            assert abs(grid.trapezoid_mass() - 1.0) <= grid.quadrature_tol

    def test_refinement_stays_within_tolerance(self):
        coarse = f_v_grid(2.0, n_nodes=2000)
        fine = f_v_grid(2.0, n_nodes=4000)
        assert abs(coarse.trapezoid_mass() - fine.trapezoid_mass()) < coarse.quadrature_tol

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityGrid(support=(0, 1), nodes=np.array([0.5, 0.25]),
                        values=np.array([1.0, 1.0]), quadrature_tol=1e-3)
        with pytest.raises(ValueError):
            DensityGrid(support=(0, 1), nodes=np.array([0.25, 0.5]),
                        values=np.array([1.0, -1.0]), quadrature_tol=1e-3)


class TestMcCheck:
    def test_self_consistency_with_inverse_cdf_sampler(self):
        grid = f_v_grid(3.0)
        result = density_mc_check(grid, grid.inverse_cdf_sampler(), 50_000,
                                  np.random.default_rng(4))
        assert result.passed
        assert result.ks_distance < 2.0 / np.sqrt(50_000) * 3

    def test_shifted_sampler_fails(self):
        grid = f_v_grid(3.0)

        def shifted(rng, size):
            return np.clip(np.cos(rng.vonmises(0.0, 3.0, size=size)) - 0.15, -0.999, 0.999)

        result = density_mc_check(grid, shifted, 50_000, np.random.default_rng(5))
        assert not result.passed

    def test_unnormalized_grid_rejected(self):
        grid = f_v_grid(2.0)
        broken = DensityGrid(support=grid.support, nodes=grid.nodes,
                             values=2.0 * grid.values, quadrature_tol=grid.quadrature_tol)
        with pytest.raises(ValueError, match="not normalized"):
            density_mc_check(broken, cos_vm_sampler(2.0), 10_000, np.random.default_rng(0))

    def test_min_draws(self):
        with pytest.raises(ValueError):
            density_mc_check(f_v_grid(2.0), cos_vm_sampler(2.0), 500, np.random.default_rng(0))
