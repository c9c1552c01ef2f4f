import numpy as np
import pytest

from graphonldp import channel_intensities
from graphonldp.core_model import SIS_SPACE, ConstantRates, NumericalError, SisParams, sis_rates
from graphonldp.graphon import constant_kernel, cosine_kernel, small_world_kernel
from graphonldp.meanfield import (
    KernelOperator,
    NormalizationError,
    SpatialGrid,
    circle_grid,
    endemic_equilibrium,
    evolve,
    field_from_density,
    kernel_matrix,
)


def sis_setup(M=32, beta=2.0, alpha=1.0, level=1.0):
    grid = circle_grid(M)
    spec = constant_kernel(level)
    return grid, spec, sis_rates(SisParams(beta=beta, alpha=alpha))


class TestGrid:
    def test_weights_sum_to_one(self):
        grid = circle_grid(48)
        assert np.sum(grid.kappa_weights) == pytest.approx(1.0)

    def test_rejects_bad_mass(self):
        from graphonldp.meanfield import SpatialGrid
        with pytest.raises(ValueError):
            SpatialGrid(nodes=np.array([0.0, 1.0]), weights=np.array([0.7, 0.7]),
                        rho=np.ones(2))


class TestFieldFromDensity:
    def test_constant_kernel_constant_density(self):
        grid, spec, _ = sis_setup()
        K = kernel_matrix(spec.kernel, grid)
        c = 0.37
        dens = np.vstack([np.full(grid.M, 1 - c), np.full(grid.M, c)])
        w = field_from_density(grid, K, dens)
        assert np.allclose(w[1], 1.0 * c)

        # a non-uniform grid and an asymmetric kernel, where a wrong
        # weighting or a transposed kernel changes the result
        rng = np.random.default_rng(3)
        nodes = np.sort(rng.uniform(0.0, 2 * np.pi, 12))
        weights, rho = rng.uniform(0.5, 1.5, (2, 12))
        grid = SpatialGrid(nodes=nodes, weights=weights / np.sum(weights * rho), rho=rho)

        def kernel(x, y):
            return 1.0 + 0.5 * np.sin(x - y + 0.3)

        K = kernel_matrix(kernel, grid)
        dens = rng.uniform(0.0, 1.0, (2, grid.M))
        kw = grid.weights * grid.rho
        explicit = np.array([[sum(kernel(grid.nodes[i], grid.nodes[j]) * dens[a, j] * kw[j]
                                  for j in range(grid.M)) for i in range(grid.M)]
                             for a in range(2)])
        assert np.allclose(field_from_density(grid, K, dens), explicit, rtol=0, atol=1e-14)
        assert np.allclose(field_from_density(grid, K, dens[1]), explicit[1], rtol=0, atol=1e-14)

    def test_mean_zero_kernel(self):
        grid = circle_grid(64)
        K = np.cos(grid.nodes[:, None] - grid.nodes[None, :])
        w = field_from_density(grid, K, np.full((1, grid.M), 0.4))
        assert np.allclose(w, 0.0, atol=1e-14)

    def test_grid_refinement_oracle(self):
        # random smooth density: coarse quadrature matches a refined grid
        beta_k = cosine_kernel(1.0, 0.5)
        rng = np.random.default_rng(0)
        coefs = rng.normal(size=3) * 0.1

        def dens_fn(th):
            return 0.4 + coefs[0] * np.cos(th) + coefs[1] * np.sin(2 * th) + coefs[2] * np.cos(3 * th)

        vals = {}
        for M in (16, 256):
            grid = circle_grid(M)
            K = kernel_matrix(beta_k.kernel, grid)
            w = field_from_density(grid, K, dens_fn(grid.nodes)[None, :])
            vals[M] = w[0, 0]
        assert vals[16] == pytest.approx(vals[256], abs=1e-6)


def skewed_kernel(x, y):
    """Circulant on the uniform grid but not symmetric: a swapped apply_T shows."""
    return 1.0 + 0.5 * np.sin(x - y + 0.3)


class TestKernelOperator:
    """The FFT applications of a circulant kernel against the dense product."""

    @pytest.mark.parametrize("kernel", [constant_kernel(1.3).kernel, cosine_kernel(1.0, 0.5).kernel,
                                        small_world_kernel(0.9, 0.1, 0.5).kernel, skewed_kernel])
    def test_fft_matches_dense(self, kernel):
        grid = circle_grid(1024)
        K = kernel_matrix(kernel, grid)
        op = KernelOperator(K, grid)
        assert op.fft
        kw = grid.kappa_weights
        dens = np.random.default_rng(5).uniform(0.0, 1.0, (3, grid.M))
        assert np.max(np.abs(op.apply(dens) - (dens * kw) @ K.T)) <= 1e-12
        assert np.max(np.abs(op.apply_T(dens) - (dens * kw) @ K)) <= 1e-12
        assert np.max(np.abs(op.apply(dens[0]) - (dens[0] * kw) @ K.T)) <= 1e-12
        assert np.max(np.abs(field_from_density(grid, K, dens) - (dens * kw) @ K.T)) <= 1e-12

    def test_dense_path_off_the_circulant_case(self):
        from graphonldp.meanfield import _FFT_MIN_M

        def dense_taken(grid, K):
            op = KernelOperator(K, grid)
            dens = np.random.default_rng(6).uniform(0.0, 1.0, (2, grid.M))
            kw = grid.kappa_weights
            return (not op.fft and np.array_equal(op.apply(dens), (dens * kw) @ K.T)
                    and np.array_equal(op.apply_T(dens), (dens * kw) @ K))

        uniform = circle_grid(1024)
        weights = 1.0 + 0.5 * np.cos(uniform.nodes)
        skewed_weights = SpatialGrid(nodes=uniform.nodes, weights=weights / weights.sum(),
                                     rho=np.ones(uniform.M))
        assert dense_taken(skewed_weights, kernel_matrix(skewed_kernel, skewed_weights))

        moved = kernel_matrix(skewed_kernel, uniform)
        assert KernelOperator(moved, uniform).fft
        moved[7, 400] += 1e-6
        assert dense_taken(uniform, moved)

        coarse = circle_grid(_FFT_MIN_M - 1)
        assert dense_taken(coarse, kernel_matrix(skewed_kernel, coarse))

    def test_evolve_fft_matches_dense(self, monkeypatch):
        import graphonldp.meanfield as mf

        grid = circle_grid(1024)
        rates = sis_rates(SisParams(beta=2.0, alpha=1.0))
        kernel = small_world_kernel(0.9, 0.1, 0.5)
        assert KernelOperator(kernel_matrix(kernel.kernel, grid), grid).fft
        s0 = 0.6 + 0.2 * np.cos(grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        fft, fft_flux = evolve(grid, kernel, rates, nu0, T=0.5, dt=0.01)
        monkeypatch.setattr(mf, "_FFT_MIN_M", grid.M + 1)
        dense, dense_flux = evolve(grid, kernel, rates, nu0, T=0.5, dt=0.01)
        assert np.max(np.abs(fft.values - dense.values)) <= 1e-12
        for chan, p in dense_flux.densities.items():
            assert np.max(np.abs(fft_flux.densities[chan] - p)) <= 1e-12


class TestEvolve:
    def test_endemic_equilibrium_constant_kernel(self):
        # uniform init reduces to scalar ODE with fixed point alpha/(beta J0)
        grid, spec, rates = sis_setup(beta=2.0, alpha=1.0, level=1.0)
        s0 = np.full(grid.M, 0.7)
        nu0 = np.vstack([s0, 1 - s0])
        dens, _ = evolve(grid, spec, rates, nu0, T=40.0, dt=0.02)
        s_end = dens.state("S")[-1]
        assert np.allclose(s_end, 1.0 / 2.0, atol=1e-6)

    def test_disease_free_is_stationary(self):
        grid, spec, rates = sis_setup()
        nu0 = np.vstack([np.ones(grid.M), np.zeros(grid.M)])
        dens, _ = evolve(grid, spec, rates, nu0, T=3.0, dt=0.01)
        assert np.allclose(dens.state("S"), 1.0, atol=1e-12)

    def test_pure_recovery_closed_form(self):
        # beta -> 0 limit: s(t) = 1 - (1 - s0) exp(-alpha t); use a rate
        # family with beta tiny enough to be negligible is wrong -- instead
        # drive the two-state constant-recovery dynamics directly
        grid = circle_grid(16)
        spec = constant_kernel(1.0)
        alpha = 0.8

        class RecoveryOnly(ConstantRates):
            def __init__(self):
                super().__init__(SIS_SPACE, alpha)

            def rate_matrix(self, theta, from_codes, w):
                out = np.zeros((len(from_codes), 2))
                out[from_codes == 1, 0] = alpha
                return out

        s0 = 0.5 + 0.3 * np.cos(grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        dens, _ = evolve(grid, spec, RecoveryOnly(), nu0, T=2.0, dt=0.001)
        expected = 1.0 - (1.0 - s0) * np.exp(-alpha * 2.0)
        assert np.allclose(dens.state("S")[-1], expected, atol=1e-10)

    def test_mass_conservation(self):
        grid, spec, rates = sis_setup()
        s0 = 0.5 + 0.3 * np.cos(grid.nodes)
        dens, _ = evolve(grid, spec, rates, np.vstack([s0, 1 - s0]), T=5.0, dt=0.01)
        sums = dens.values.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_positivity_preserved(self):
        grid, spec, rates = sis_setup(beta=3.0)
        s0 = 0.5 + 0.45 * np.cos(grid.nodes)
        dens, _ = evolve(grid, spec, rates, np.vstack([s0, 1 - s0]), T=4.0, dt=0.005)
        assert dens.values.min() >= -1e-12
        assert dens.values.max() <= 1.0 + 1e-12

    def test_unnormalized_rejected(self):
        grid, spec, rates = sis_setup()
        nu0 = np.vstack([np.full(grid.M, 0.6), np.full(grid.M, 0.6)])
        with pytest.raises(NormalizationError):
            evolve(grid, spec, rates, nu0, T=1.0, dt=0.01)

    @pytest.mark.parametrize("T, dt", [(-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
                                       (1.0, -0.1), (1.0, 0.0), (1.0, np.nan)])
    def test_invalid_horizon_or_step_rejected(self, T, dt):
        grid, spec, rates = sis_setup(M=8)
        nu0 = np.vstack([np.full(grid.M, 0.6), np.full(grid.M, 0.4)])
        with pytest.raises(ValueError, match="finite and positive"):
            evolve(grid, spec, rates, nu0, T=T, dt=dt)

    @pytest.mark.parametrize("rates", [sis_rates(SisParams(beta=2.0, alpha=1.0)),
                                       ConstantRates(SIS_SPACE, 0.7)], ids=["sis", "constant"])
    def test_recorded_flux_is_the_channel_intensity(self, rates):
        # the flux record and the rate layer's intensities come from one builder
        grid = circle_grid(16)
        spec = cosine_kernel(1.0, 0.5)
        s0 = 0.6 + 0.2 * np.cos(grid.nodes)
        dens, flux = evolve(grid, spec, rates, np.vstack([s0, 1 - s0]), T=0.5, dt=0.05)
        labels = rates.states.labels
        for n in range(len(dens.times)):
            lam = channel_intensities(rates, grid, dens.values[n], kernel=spec)
            for (la, lb), p in flux.densities.items():
                assert np.array_equal(p[n], lam[labels.index(la), labels.index(lb)])

    def test_flux_identity_to_integrator_order(self):
        # density increments equal signed flux sums (continuum conservation)
        grid, spec, rates = sis_setup()
        kernel = cosine_kernel(1.0, 0.5)
        s0 = 0.6 + 0.2 * np.cos(grid.nodes)
        dt = 0.002
        dens, flux = evolve(grid, kernel, rates, np.vstack([s0, 1 - s0]), T=1.0, dt=dt)
        p_si = flux.densities[("S", "I")]
        p_is = flux.densities[("I", "S")]
        net_in_S = p_is - p_si
        # trapezoid-integrate the recorded flux and compare to the increment
        integral = 0.5 * dt * (net_in_S[1:] + net_in_S[:-1]).cumsum(axis=0)
        increment = dens.state("S")[1:] - dens.state("S")[0][None, :]
        assert np.max(np.abs(integral - increment)) < 5e-7  # O(dt^2) quadrature

    def test_time_convergence_fourth_order(self):
        grid, spec, rates = sis_setup(M=16)
        kernel = cosine_kernel(1.0, 0.5)
        s0 = 0.6 + 0.2 * np.cos(grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        ref, _ = evolve(grid, kernel, rates, nu0, T=1.0, dt=1.0 / 512)
        errs = []
        for dt in (1.0 / 16, 1.0 / 32):
            dens, _ = evolve(grid, kernel, rates, nu0, T=1.0, dt=dt)
            errs.append(np.max(np.abs(dens.values[-1] - ref.values[-1])))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_matches_scipy_ivp_oracle(self):
        # cross-check the fixed-step integrator against an adaptive solver
        from scipy.integrate import solve_ivp
        from graphonldp.meanfield import _drift

        grid = circle_grid(16)
        kernel = cosine_kernel(1.0, 0.5)
        rates = sis_rates(SisParams(beta=2.0, alpha=1.0))
        K = kernel_matrix(kernel.kernel, grid)
        s0 = 0.6 + 0.25 * np.cos(grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])

        def rhs(t, y):
            f, _ = _drift(rates, grid, K, y.reshape(2, 16))
            return f.ravel()

        ref = solve_ivp(rhs, (0.0, 2.0), nu0.ravel(), rtol=1e-11, atol=1e-12)
        dens, _ = evolve(grid, kernel, rates, nu0, T=2.0, dt=1e-3)
        assert np.max(np.abs(dens.values[-1].ravel() - ref.y[:, -1])) < 1e-8

    def test_spatial_consistency(self):
        # solutions on nested grids agree at shared nodes (smooth kernel)
        kernel = cosine_kernel(1.0, 0.5)
        rates = sis_rates(SisParams(beta=2.0, alpha=1.0))
        sol = {}
        for M in (32, 64):
            grid = circle_grid(M)
            s0 = 0.6 + 0.2 * np.cos(grid.nodes)
            dens, _ = evolve(grid, kernel, rates, np.vstack([s0, 1 - s0]), T=1.0, dt=0.001)
            sol[M] = dens.state("S")[-1]
        assert np.max(np.abs(sol[64][::2] - sol[32])) < 1e-8


class TestEquilibrium:
    def test_matches_analytic_level(self):
        grid = circle_grid(32)
        s = endemic_equilibrium(grid, constant_kernel(1.0), beta=2.0, alpha=1.0)
        assert np.allclose(s, 0.5, atol=1e-9)

    def test_disease_free_when_subcritical(self):
        grid = circle_grid(32)
        s = endemic_equilibrium(grid, constant_kernel(1.0), beta=0.5, alpha=1.0)
        assert np.allclose(s, 1.0, atol=1e-6)

    def test_unconverged_relaxation_raises(self):
        # ten steps leave the profile near 0.41 against the exact 1/3
        grid = circle_grid(32)
        with pytest.raises(NumericalError, match="not reached in 10 steps"):
            endemic_equilibrium(grid, cosine_kernel(1.0, 0.5), beta=3.0, alpha=1.0, max_iter=10)


class TestNonFinite:
    """A NaN in the kernel matrix stops the continuum loops at once; NaN
    arithmetic raises no RuntimeWarning, so only the loop checks see it."""

    @staticmethod
    def nan_kernel(grid):
        K = kernel_matrix(cosine_kernel(1.0, 0.5).kernel, grid)
        K[3, 5] = np.nan
        return K

    def test_evolve_raises_on_nan(self):
        grid, _, rates = sis_setup(M=16)
        s0 = np.full(grid.M, 0.6)
        with pytest.raises(NormalizationError, match="at t=0.01"):
            evolve(grid, self.nan_kernel(grid), rates, np.vstack([s0, 1 - s0]), T=1.0, dt=0.01)

    def test_equilibrium_raises_at_first_nan_drift(self, monkeypatch):
        import graphonldp.meanfield as mf

        grid = circle_grid(16)
        calls = []
        drift = mf.sis_drift
        monkeypatch.setattr(mf, "sis_drift", lambda *a: calls.append(1) or drift(*a))
        with pytest.raises(NumericalError, match="drift is nan"):
            endemic_equilibrium(grid, self.nan_kernel(grid), beta=2.0, alpha=1.0)
        assert len(calls) == 1


class TestDensityField:
    def test_at_time_requires_grid_time(self):
        grid, spec, rates = sis_setup(M=4)
        s0 = np.full(4, 0.5)
        dens, _ = evolve(grid, spec, rates, np.vstack([s0, 1 - s0]), T=0.5, dt=0.1)
        for n, t in enumerate(np.linspace(0.0, 0.5, 6)):
            assert np.array_equal(dens.at_time(t), dens.values[n])
        for t in (0.14, -0.1, 0.6):
            with pytest.raises(ValueError, match="not a grid time"):
                dens.at_time(t)
