import numpy as np
import pytest

from graphonldp import channel_intensities
from graphonldp.core_model import (
    SIS_SPACE,
    NumericalError,
    SisParams,
    StateSpace,
    sis_rates,
)
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
    sis_drift,
)
from oracles import ConstantRates


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
            SpatialGrid(nodes=np.array([0.0, 1.0]), kappa_weights=np.array([0.7, 0.7]))

    @pytest.mark.parametrize("M, weights", [(3, [0.5, 0.5]), (2, [0.5, 0.3, 0.2]),
                                            (2, [[0.5, 0.5]])])
    def test_rejects_weights_not_one_per_node(self, M, weights):
        # a 2-long measure on 3 nodes once gave a grid of M = 3
        with pytest.raises(ValueError, match="one kappa weight per node"):
            SpatialGrid(nodes=np.arange(float(M)), kappa_weights=np.array(weights))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="quadrature weights must be positive"):
            SpatialGrid(nodes=np.arange(3.0), kappa_weights=np.array([0.5, 0.5, np.nan]))

    @pytest.mark.parametrize("weights", [[1.5, -0.5], [1.0, 0.0]])
    def test_rejects_non_positive_weight(self, weights):
        # unit kappa-mass holds for both; the weight check alone rejects them
        with pytest.raises(ValueError, match="quadrature weights must be positive"):
            SpatialGrid(nodes=np.array([0.0, 1.0]), kappa_weights=np.array(weights))

    def test_caller_arrays_stay_writeable(self):
        # the grid keeps read-only copies; the arrays it was given stay the caller's
        nodes, weights = np.array([0.0, 1.0, 2.0]), np.full(3, 1.0 / 3.0)
        grid = SpatialGrid(nodes=nodes, kappa_weights=weights)
        assert nodes.flags.writeable and weights.flags.writeable
        weights[0] = 0.5
        nodes[0] = 9.0
        assert grid.kappa_weights[0] == 1.0 / 3.0 and grid.nodes[0] == 0.0
        assert not grid.nodes.flags.writeable and not grid.kappa_weights.flags.writeable

    def test_lists_make_the_same_grid(self):
        # a list was read for its .shape and raised AttributeError
        want = circle_grid(4)
        grid = SpatialGrid(nodes=want.nodes.tolist(), kappa_weights=[0.25] * 4)
        assert grid.nodes.dtype == float and grid.M == 4
        assert np.array_equal(grid.nodes, want.nodes)
        assert np.array_equal(grid.kappa_weights, want.kappa_weights)
        with pytest.raises(ValueError):
            SpatialGrid(nodes=[0.0, 1.0], kappa_weights=["half", "half"])


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
        grid = SpatialGrid(nodes=nodes, kappa_weights=weights / np.sum(weights * rho) * rho)

        def kernel(x, y):
            return 1.0 + 0.5 * np.sin(x - y + 0.3)

        K = kernel_matrix(kernel, grid)
        dens = rng.uniform(0.0, 1.0, (2, grid.M))
        kw = grid.kappa_weights
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
        skewed_weights = SpatialGrid(nodes=uniform.nodes, kappa_weights=weights / weights.sum())
        assert dense_taken(skewed_weights, kernel_matrix(skewed_kernel, skewed_weights))

        moved = kernel_matrix(skewed_kernel, uniform)
        assert KernelOperator(moved, uniform).fft
        moved[7, 400] += 1e-6
        assert dense_taken(uniform, moved)

        coarse = circle_grid(_FFT_MIN_M - 1)
        assert dense_taken(coarse, kernel_matrix(skewed_kernel, coarse))

    def test_circulance_scan_matches_abs_form(self):
        # max|K| from the two extremes and the deviation's abs taken in place
        # give the bound and FFT decision of the np.max(np.abs(.)) form, and
        # leave K as it was
        from graphonldp.meanfield import _CIRCULANT_TOL, _FFT_MIN_M

        grid = circle_grid(_FFT_MIN_M)
        base = kernel_matrix(skewed_kernel, grid)
        cases = [base, -2.0 * base, kernel_matrix(cosine_kernel(0.9, 0.9).kernel, grid) - 1.2,
                 np.zeros((grid.M, grid.M))]
        for scale in (0.5, 2.0):
            moved = base.copy()
            moved[7, 100] += scale * _CIRCULANT_TOL * np.max(np.abs(base))
            cases.append(moved)
        decisions = []
        for K in cases:
            before = K.copy()
            op = KernelOperator(K, grid)
            max_abs = float(np.max(np.abs(K)))
            rolls = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([K[:, 0], K[:, 0]])[1:], grid.M)
            assert np.array_equal(K, before)
            assert op.fft == bool(np.max(np.abs(K[:, ::-1] - rolls)) <= _CIRCULANT_TOL * max_abs)
            decisions.append(op.fft)
        assert decisions == [True, True, True, True, True, False]

    def test_array_kernel_takes_the_one_rule(self):
        # a bare array is an operator by KernelOperator's own FFT-or-dense
        # test, as every other kernel input is; an operator passes through
        from graphonldp.meanfield import _FFT_MIN_M, _operator

        uniform, coarse = circle_grid(1024), circle_grid(_FFT_MIN_M - 1)
        circulant = kernel_matrix(small_world_kernel(0.9, 0.1, 0.5).kernel, uniform)
        perturbed = circulant.copy()
        perturbed[7, 400] += 1e-6
        weights = 1.0 + 0.5 * np.cos(uniform.nodes)
        skewed = SpatialGrid(nodes=uniform.nodes, kappa_weights=weights / weights.sum())
        cases = [(circulant, uniform), (perturbed, uniform),
                 (kernel_matrix(skewed_kernel, skewed), skewed),
                 (kernel_matrix(skewed_kernel, coarse), coarse)]
        decisions = []
        for K, grid in cases:
            op = _operator(K, grid)
            assert op.fft == KernelOperator(K, grid).fft
            assert _operator(op, grid) is op
            kw = grid.kappa_weights
            dens = np.random.default_rng(7).uniform(0.0, 1.0, (2, grid.M))
            assert np.max(np.abs(field_from_density(grid, K, dens) - (dens * kw) @ K.T)) <= 1e-12
            assert np.max(np.abs(op.apply_T(dens) - (dens * kw) @ K)) <= 1e-12
            decisions.append(op.fft)
        assert decisions == [True, False, False, False]

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


class TestChannelIntensities:
    @pytest.mark.parametrize("rates", [sis_rates(SisParams(beta=2.0, alpha=1.0)),
                                       ConstantRates(StateSpace(("a", "b", "c")), 0.7)],
                             ids=["sis", "constant3"])
    @pytest.mark.parametrize("kernel", [cosine_kernel(1.0, 0.5), small_world_kernel(0.9, 0.1, 0.5)])
    def test_stack_equals_slices(self, rates, kernel):
        grid = circle_grid(64)
        k = rates.states.size
        nu = np.random.default_rng(9).dirichlet(np.ones(k), (7, 5, grid.M)).transpose(0, 1, 3, 2)
        stack = channel_intensities(rates, grid, nu, kernel)
        assert stack.shape == (7, 5, k, k, grid.M)
        for idx in np.ndindex(7, 5):
            assert np.array_equal(stack[idx], channel_intensities(rates, grid, nu[idx], kernel))

    @pytest.mark.parametrize("rates", [sis_rates(SisParams(beta=2.0, alpha=1.0)),
                                       ConstantRates(StateSpace(("a", "b", "c")), 0.7)],
                             ids=["sis", "constant3"])
    def test_one_call_equals_a_call_per_source_state(self, rates):
        # the reference: one rate_matrix call per source state on the slice's rows
        grid, kernel = circle_grid(64), small_world_kernel(0.9, 0.1, 0.5)
        k = rates.states.size
        nu = np.random.default_rng(3).dirichlet(np.ones(k), (4, grid.M)).transpose(0, 2, 1)
        w = field_from_density(grid, kernel, nu).swapaxes(-1, -2)  # (slice, node, state)
        want = np.empty((4, k, k, grid.M))
        for n, a in np.ndindex(4, k):
            r = rates.rate_matrix(grid.nodes, np.full(grid.M, a), w[n])
            want[n, a] = r.T * nu[n, a]
        assert np.array_equal(channel_intensities(rates, grid, nu, kernel), want)


class TestEvolve:
    def test_one_step_is_the_rk4_formula(self):
        # the stages combined out of place, as written: evolve's in-place sums match to the bit
        grid, spec, rates = sis_setup(M=16, level=1.5)
        s0 = 0.6 + 0.2 * np.cos(grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        dt = 0.05

        def drift(nu):
            lam = channel_intensities(rates, grid, nu, spec)
            return lam.sum(axis=0) - lam.sum(axis=1)

        k1 = drift(nu0)
        k2 = drift(nu0 + 0.5 * dt * k1)
        k3 = drift(nu0 + 0.5 * dt * k2)
        k4 = drift(nu0 + dt * k3)
        want = nu0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        dens, _ = evolve(grid, spec, rates, nu0, T=2 * dt, dt=dt)
        assert np.array_equal(dens.values[1], want)

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

    def test_unstable_step_raises_negative_density(self):
        # beta = 40 on a constant kernel: one RK4 step of 0.5 overshoots below zero
        grid, spec, rates = sis_setup(M=8, beta=40.0)
        nu0 = np.vstack([np.full(grid.M, 0.5), np.full(grid.M, 0.5)])
        with pytest.raises(NormalizationError,
                           match=r"density went negative .* at t=0.5; reduce dt") as err:
            evolve(grid, spec, rates, nu0, T=2.0, dt=0.5)
        assert isinstance(err.value, NumericalError)

    @pytest.mark.parametrize("T, dt", [(-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
                                       (1.0, -0.1), (1.0, 0.0), (1.0, np.nan)])
    def test_invalid_horizon_or_step_rejected(self, T, dt):
        grid, spec, rates = sis_setup(M=8)
        nu0 = np.vstack([np.full(grid.M, 0.6), np.full(grid.M, 0.4)])
        with pytest.raises(ValueError, match="finite and positive"):
            evolve(grid, spec, rates, nu0, T=T, dt=dt)

    @pytest.mark.parametrize("shape", [(3, 8), (2, 7), (1, 8), (8,)],
                             ids=["three-states", "narrow", "one-state", "one-dimensional"])
    def test_nu0_shape_must_match_states_and_grid(self, shape):
        # three states with SIS rates raised numpy's bare reshape error, and a
        # one-dimensional nu0 a bare unpacking error
        grid, spec, rates = sis_setup(M=8)
        nu0 = np.full(shape, 1.0 / (shape[0] if len(shape) == 2 else 1))
        with pytest.raises(ValueError, match=r"nu0 incompatible with grid and states: "
                                             r"must be \(k, M\) = \(2, 8\), got "):
            evolve(grid, spec, rates, nu0, T=1.0, dt=0.1)

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
        # the map shrinks the error by 1/R0 = 1/3 per step from T(0) = 1/4:
        # ten steps leave a drift near 1e-5 against the exact 1/3
        grid = circle_grid(32)
        with pytest.raises(NumericalError, match="not reached in 10 steps"):
            endemic_equilibrium(grid, cosine_kernel(1.0, 0.5), beta=3.0, alpha=1.0, max_iter=10)

    @staticmethod
    def euler_relaxation(grid, spec, beta, alpha):
        """Explicit Euler from s = 0.5 at the stable step 0.2 / max(alpha,
        beta max|K|) to max|drift| < 1e-13: the equilibrium's former solver."""
        K = kernel_matrix(spec.kernel, grid)
        s = np.full(grid.M, 0.5)
        dt = 0.2 / max(alpha, beta * np.max(np.abs(K)))
        while True:
            ds = sis_drift(s, grid, K, beta, alpha)
            s = np.clip(s + dt * ds, 0.0, 1.0)
            if np.max(np.abs(ds)) < 1e-13:
                return s

    @pytest.mark.parametrize("M, spec, beta", [
        (32, cosine_kernel(1.0, 0.5), 3.0), (64, cosine_kernel(1.0, 0.5), 2.0),
        (32, constant_kernel(1.0), 2.0), (32, constant_kernel(1.0), 0.5),
        (256, small_world_kernel(1.5, 0.1, 0.5), 4.0)])
    def test_fixed_point_map_matches_relaxation(self, M, spec, beta):
        grid = circle_grid(M)
        s = endemic_equilibrium(grid, spec, beta=beta, alpha=1.0)
        assert np.max(np.abs(s - self.euler_relaxation(grid, spec, beta, 1.0))) <= 1e-12

    @pytest.mark.parametrize("spec, beta", [(constant_kernel(-1.0), 0.5),
                                            (constant_kernel(-1.0), 2.0),
                                            (small_world_kernel(1.5, -0.3, 0.5), 2.0)])
    def test_signed_kernel_gives_disease_free(self, spec, beta):
        # a negative field puts the map's plain step above 1; the floored
        # denominator keeps it finite and the clip takes it to s = 1
        s = endemic_equilibrium(circle_grid(64), spec, beta=beta, alpha=1.0)
        assert np.all(np.isfinite(s)) and np.allclose(s, 1.0, atol=1e-12)

    def test_negative_field_floored_to_disease_free(self):
        # K[1] >= 0 at both nodes, so the start is T(0) = (1/3, 1); then node
        # 0 sees the field -5 (1 - s_0) and alpha - ds < 0 there.  The plain
        # map would step below 0 and stall at the clip; the floored one steps
        # to s_0 = 1, where the dynamics also go: ds_0 = (1 - s_0)(1 + 10 s_0)
        K = np.array([[-10.0, 12.0], [0.0, 0.0]])
        s = endemic_equilibrium(circle_grid(2), K, beta=2.0, alpha=1.0)
        assert np.array_equal(s, [1.0, 1.0])

    def test_few_drift_evaluations_on_fine_small_world_grid(self, monkeypatch):
        # the continuum_fine inputs: M = 1024, beta = 4; the map converges at
        # the rate 1/R0, which the Euler step size bound does not limit
        import graphonldp.meanfield as mf

        calls = []
        drift = mf.sis_drift
        monkeypatch.setattr(mf, "sis_drift", lambda *a: calls.append(1) or drift(*a))
        s = endemic_equilibrium(circle_grid(1024), small_world_kernel(1.5, 0.1, 0.5),
                                beta=4.0, alpha=1.0)
        assert 0.0 < s.min() < 1.0 and len(calls) <= 150

    @pytest.mark.parametrize("M, rate", [(64, 1e300), (8, 1e10), (64, 1.0)])
    def test_critical_or_huge_rates_stop_on_the_measured_contraction(self, monkeypatch, M, rate):
        # alpha = beta on the cosine kernel is R0 = 1: at 1 the drift falls
        # algebraically, at 1e300 and 1e10 it stalls in float noise far above
        # 1e-13, and the relaxation ran all 200,000 steps before it raised
        import graphonldp.meanfield as mf

        calls = []
        drift = mf.sis_drift
        monkeypatch.setattr(mf, "sis_drift", lambda *a: calls.append(1) or drift(*a))
        with pytest.raises(NumericalError, match=r"measured contraction 0\.99\d+ per step over "
                                                 r"the last 1000; R0 may be 1, or the rates too large"):
            endemic_equilibrium(circle_grid(M), cosine_kernel(1.0, 0.5), rate, rate)
        assert 1000 < len(calls) <= 50000

    @pytest.mark.parametrize("M, beta", [(64, 2.0), (64, 1.01), (64, 1.001), (64, 0.999),
                                         (8, 3.0)])
    def test_contraction_stop_leaves_converging_profiles_bit_identical(self, monkeypatch,
                                                                       M, beta):
        # 42 to 16,125 steps, near R0 = 1 on both sides: the same bits as the
        # relaxation whose window never fills, which has no stop but max_iter
        import graphonldp.meanfield as mf

        grid, spec = circle_grid(M), cosine_kernel(1.0, 0.5)
        s = endemic_equilibrium(grid, spec, beta, 1.0)
        monkeypatch.setattr(mf, "_EQ_WINDOW", 200000)
        assert endemic_equilibrium(grid, spec, beta, 1.0).tobytes() == s.tobytes()

    def test_tiny_alpha_gives_a_finite_profile(self):
        # T(0) underflows to s = 0, where the step s ds / max(alpha - ds, alpha s)
        # was 0 / 0: the profile came back all NaN
        s = endemic_equilibrium(circle_grid(8), cosine_kernel(1.0, 0.5), 2.0, 5e-324)
        assert np.all(np.isfinite(s)) and np.all((s >= 0.0) & (s <= 5e-324))


class TestOperatorSlot:
    """The grid keeps the operator of its last kernel: one build per (kernel, grid)."""

    def test_same_operator_for_same_spec(self):
        from graphonldp.meanfield import _operator

        grid, spec = circle_grid(16), cosine_kernel(1.0, 0.5)
        assert _operator(spec, grid) is _operator(spec, grid)

    def test_kernel_built_once_across_layers(self, monkeypatch):
        import graphonldp.meanfield as mf
        from graphonldp.rate_function import rate_G, sis_action

        calls = []
        build = mf.kernel_matrix
        monkeypatch.setattr(mf, "kernel_matrix", lambda *a: calls.append(1) or build(*a))
        grid, spec = circle_grid(16), small_world_kernel(1.5, 0.1, 0.5)
        params = SisParams(beta=4.0, alpha=1.0)
        rates = sis_rates(params)
        s0 = 0.5 + 0.1 * np.cos(grid.nodes)
        dens, flux = evolve(grid, spec, rates, np.vstack([s0, 1 - s0]), T=0.5, dt=0.05)
        rate_G(flux.densities, dens.values[0], grid, spec, rates, 0.5, times=flux.times)
        sis_action(dens.state("S"), params, spec, grid, 0.5)
        assert len(calls) == 1

    def test_another_spec_replaces_the_slot(self):
        from graphonldp.meanfield import _operator

        grid = circle_grid(16)
        first, second = cosine_kernel(1.0, 0.5), cosine_kernel(1.0, 0.5)
        op = _operator(first, grid)
        other = _operator(second, grid)
        assert other is not op and _operator(second, grid) is other
        assert _operator(first, grid) is not op  # the slot held the second spec
        assert np.array_equal(other.K, op.K)

    def test_grid_arrays_read_only(self):
        grid = circle_grid(8)
        for arr in (grid.nodes, grid.kappa_weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


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

    def test_equilibrium_overflow_raises_before_the_first_step(self, monkeypatch):
        # alpha + beta K[1] = inf made T(0) = 0, and every step from s = 0 a
        # zero step: the relaxation ran all max_iter steps before it raised
        import graphonldp.meanfield as mf

        grid = circle_grid(8)
        calls = []
        drift = mf.sis_drift
        monkeypatch.setattr(mf, "sis_drift", lambda *a: calls.append(1) or drift(*a))
        with pytest.raises(NumericalError, match=r"alpha \+ beta K\[1\] overflows"):
            endemic_equilibrium(grid, cosine_kernel(1e308, 0.5), beta=2.0, alpha=1.0)
        assert not calls


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
