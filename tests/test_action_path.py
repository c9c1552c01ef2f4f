import numpy as np
import pytest

from graphonldp.core_model import SisParams
from graphonldp.graphon import constant_kernel, cosine_kernel
from graphonldp.meanfield import SpatialGrid, circle_grid, endemic_equilibrium, evolve, kernel_matrix
from graphonldp.rate_function import sis_lambda_field
from graphonldp.core_model import sis_rates
from graphonldp.action_path import (
    ActionOptions,
    EndpointError,
    PathProblem,
    _newton_cg,
    discrete_action,
    el_operators,
    el_residual,
    minimize_action,
)

PARAMS = SisParams(beta=2.0, alpha=1.0)


def bump_profile(grid, center=np.pi, width=0.8, depth=0.2, base=0.5):
    d = np.abs(grid.nodes - center)
    d = np.minimum(d, 2 * np.pi - d)
    return base - depth * np.exp(-0.5 * (d / width) ** 2)


def skewed_case(M, seed=11):
    """A non-uniform grid with non-constant rho and the asymmetric kernel
    1 + 0.5 sin(x - y + 0.3), where the forward and transposed kernel
    applications differ."""
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(0.0, 2 * np.pi, M))
    weights, rho = rng.uniform(0.5, 1.5, (2, M))
    grid = SpatialGrid(nodes=nodes, weights=weights / np.sum(weights * rho), rho=rho)
    return grid, lambda x, y: 1.0 + 0.5 * np.sin(x - y + 0.3)


class TestPathProblem:
    def test_endpoint_bounds_enforced(self):
        grid = circle_grid(8)
        good = np.full(8, 0.5)
        with pytest.raises(EndpointError):
            PathProblem(s0=np.full(8, 0.0), sT=good, horizon=1.0)
        with pytest.raises(EndpointError):
            PathProblem(s0=good, sT=np.full(8, 1.0), horizon=1.0)

    def test_initial_path_interpolates(self):
        prob = PathProblem(s0=np.full(4, 0.2), sT=np.full(4, 0.8), horizon=1.0, K=10)
        path = prob.initial_path()
        assert np.allclose(path[0], 0.2) and np.allclose(path[-1], 0.8)
        assert np.allclose(path[5], 0.5)


class TestElPartials:
    def setup_method(self):
        self.grid = circle_grid(24)
        self.kernel = cosine_kernel(1.0, 0.5)
        self.K = kernel_matrix(self.kernel.kernel, self.grid)

    def test_dA_dsdot_collapses_at_zero(self):
        s = np.full(self.grid.M, 0.5)
        ops = el_operators(np.zeros(self.grid.M), s, PARAMS, self.kernel, self.grid)
        assert np.allclose(ops.dA_dsdot, -0.5)

    def test_dL_vanishes_on_drift(self):
        s = 0.5 + 0.2 * np.cos(self.grid.nodes)
        lam = sis_lambda_field(s, self.grid, self.K, PARAMS.beta)
        drift = -lam + PARAMS.alpha * (1 - s)
        ops = el_operators(drift, s, PARAMS, self.kernel, self.grid)
        assert np.allclose(ops.dL_dsdot, 0.0, atol=1e-12)

    def test_strict_convexity_field(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.1, 0.9, self.grid.M)
        sdot = rng.uniform(-1, 1, self.grid.M)
        ops = el_operators(sdot, s, PARAMS, self.kernel, self.grid)
        assert np.all(ops.d2L_dsdot2 > 0)

    def test_matches_finite_differences(self):
        from graphonldp.rate_function import sis_lagrangian
        rng = np.random.default_rng(1)
        s = rng.uniform(0.15, 0.85, self.grid.M)
        sdot = rng.uniform(-1.5, 1.5, self.grid.M)
        lam = sis_lambda_field(s, self.grid, self.K, PARAMS.beta)
        ops = el_operators(sdot, s, PARAMS, self.kernel, self.grid)
        h = 1e-5
        fd = (sis_lagrangian(sdot + h, s, lam, PARAMS.alpha)
              - sis_lagrangian(sdot - h, s, lam, PARAMS.alpha)) / (2 * h)
        assert np.max(np.abs(ops.dL_dsdot - fd) / (1 + np.abs(ops.dL_dsdot))) < 1e-6

    def test_degenerate_sentinel(self):
        zero_kernel = constant_kernel(0.0)
        s = np.full(self.grid.M, 0.5)
        ops = el_operators(np.zeros(self.grid.M), s, PARAMS, zero_kernel, self.grid)
        assert np.all(ops.degenerate)
        assert np.all(np.isnan(ops.dL_dsdot))


class TestElFrechet:
    def setup_method(self):
        self.grid = circle_grid(24)
        self.kernel = cosine_kernel(1.0, 0.5)
        self.K = kernel_matrix(self.kernel.kernel, self.grid)

    def test_directional_derivative_oracle(self):
        from graphonldp.rate_function import sis_lagrangian
        rng = np.random.default_rng(2)
        for grid, kernel in ((self.grid, self.kernel), skewed_case(24)):
            K = kernel_matrix(getattr(kernel, "kernel", kernel), grid)
            s = 0.5 + 0.2 * np.cos(grid.nodes) + 0.02 * rng.standard_normal(grid.M)
            sdot = 0.4 * np.sin(grid.nodes)
            ops = el_operators(sdot, s, PARAMS, kernel, grid)
            x = 0.4 + 0.6 * np.cos(grid.nodes + 1.1)
            eps = 1e-6

            def total(sfield):
                lam = sis_lambda_field(sfield, grid, K, PARAMS.beta)
                return float(sis_lagrangian(sdot, sfield, lam, PARAMS.alpha)
                             @ grid.kappa_weights)

            fd = (total(s + eps * x) - total(s - eps * x)) / (2 * eps)
            an = float((x * ops.G_field) @ grid.kappa_weights)
            assert abs(fd - an) <= 1e-4 * (1 + abs(an))

    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(4)
        for grid, kernel in ((self.grid, self.kernel), skewed_case(24)):
            s = np.clip(0.5 + 0.2 * np.cos(grid.nodes) + 0.05 * rng.standard_normal((7, grid.M)),
                        0.05, 0.95)
            sdot = 0.4 * np.sin(grid.nodes) + 0.2 * rng.standard_normal((7, grid.M))
            s[3, :5] = 1.0  # degenerate cells: NaN in both
            stacked = vars(el_operators(sdot, s, PARAMS, kernel, grid))
            for n in range(7):
                one = vars(el_operators(sdot[n], s[n], PARAMS, kernel, grid))
                assert stacked.keys() == one.keys()
                for name, val in one.items():
                    if name == "degenerate":
                        assert np.array_equal(stacked[name][n], val)
                    else:
                        np.testing.assert_allclose(stacked[name][n], val, rtol=0,
                                                   atol=1e-12, equal_nan=True, err_msg=name)

    def test_O_equals_eps_difference_of_dL(self):
        rng = np.random.default_rng(3)
        s = 0.5 + 0.15 * np.cos(self.grid.nodes) + 0.02 * rng.standard_normal(self.grid.M)
        sdot = 0.3 * np.sin(2 * self.grid.nodes) + 0.1
        ops = el_operators(sdot, s, PARAMS, self.kernel, self.grid)
        eps = 1e-6

        def dl(sfield):
            return el_operators(sdot, sfield, PARAMS, self.kernel, self.grid).dL_dsdot

        fd = (dl(s + eps * sdot) - dl(s - eps * sdot)) / (2 * eps)
        assert np.max(np.abs(fd - ops.O_field) / (1 + np.abs(ops.O_field))) < 1e-4

    def test_constant_state_translation_invariance(self):
        s = np.full(self.grid.M, 0.4)
        sdot = np.full(self.grid.M, 0.05)
        ops = el_operators(sdot, s, PARAMS, constant_kernel(1.0), self.grid)
        assert np.allclose(ops.G_field, ops.G_field[0])
        assert np.allclose(ops.O_field, ops.O_field[0])

    def test_zero_kernel_degenerate(self):
        s = np.full(self.grid.M, 0.5)
        ops = el_operators(np.zeros(self.grid.M), s, PARAMS, constant_kernel(0.0), self.grid)
        assert np.all(ops.degenerate)

    def test_zero_kernel_frechet_lambda_vanishes(self):
        from graphonldp.action_path import frechet_lambda
        s = np.full(self.grid.M, 0.5)
        x = np.cos(self.grid.nodes)
        d = frechet_lambda(s, x, PARAMS, constant_kernel(0.0), self.grid)
        assert np.allclose(d, 0.0)

    def test_frechet_helpers_match_fd(self):
        from graphonldp.action_path import frechet_A, frechet_lambda
        from graphonldp.rate_function import sis_A
        rng = np.random.default_rng(8)
        s = 0.5 + 0.2 * np.cos(self.grid.nodes)
        sdot = 0.3 * np.sin(self.grid.nodes) + 0.1
        x = 0.5 * np.cos(2 * self.grid.nodes + 0.3) + 0.2
        eps = 1e-7
        lam_of = lambda f: sis_lambda_field(f, self.grid, self.K, PARAMS.beta)
        fd_lam = (lam_of(s + eps * x) - lam_of(s - eps * x)) / (2 * eps)
        an_lam = frechet_lambda(s, x, PARAMS, self.kernel, self.grid)
        assert np.max(np.abs(fd_lam - an_lam)) < 1e-7
        A_of = lambda f: sis_A(sdot, f, lam_of(f), PARAMS.alpha)
        fd_A = (A_of(s + eps * x) - A_of(s - eps * x)) / (2 * eps)
        an_A = frechet_A(sdot, s, x, PARAMS, self.kernel, self.grid)
        assert np.max(np.abs(fd_A - an_A) / (1 + np.abs(an_A))) < 1e-6

    def test_delta_fields_are_velocity_direction_frechets(self):
        from graphonldp.action_path import frechet_A, frechet_lambda
        s = 0.5 + 0.15 * np.cos(self.grid.nodes)
        sdot = 0.2 * np.sin(self.grid.nodes) - 0.05
        ops = el_operators(sdot, s, PARAMS, self.kernel, self.grid)
        assert np.allclose(ops.delta_lam,
                           frechet_lambda(s, sdot, PARAMS, self.kernel, self.grid))
        assert np.allclose(ops.delta_A,
                           frechet_A(sdot, s, sdot, PARAMS, self.kernel, self.grid))


class TestElResidual:
    def test_meanfield_path_small_residual(self):
        grid = circle_grid(24)
        kernel = cosine_kernel(1.0, 0.5)
        rates = sis_rates(PARAMS)
        s0 = 0.6 + 0.2 * np.cos(grid.nodes)
        dens, _ = evolve(grid, kernel, rates, np.vstack([s0, 1 - s0]), T=1.0, dt=1.0 / 400)
        res = el_residual(dens.state("S")[::4], PARAMS, kernel, grid, 1.0)
        assert np.nanmax(np.abs(res)) < 5e-4  # discretization scale at dt = 0.01

    def test_random_path_large_residual(self):
        grid = circle_grid(24)
        kernel = cosine_kernel(1.0, 0.5)
        rng = np.random.default_rng(0)
        path = 0.5 + 0.25 * np.sin(np.linspace(0, 3, 51))[:, None] \
            + 0.05 * rng.standard_normal((51, grid.M))
        res = el_residual(np.clip(path, 0.05, 0.95), PARAMS, kernel, grid, 1.0)
        assert np.nanmax(np.abs(res)) > 1.0


class TestMinimizeAction:
    def test_equilibrium_to_equilibrium_constant(self):
        grid = circle_grid(16)
        kernel = constant_kernel(1.0)
        eq = endemic_equilibrium(grid, kernel, PARAMS.beta, PARAMS.alpha)
        prob = PathProblem(s0=eq, sT=eq.copy(), horizon=1.0, K=40)
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=2000, tol_grad=1e-8))
        assert res.action < 1e-12
        assert np.max(np.abs(res.path - eq[None, :])) < 1e-5

    def test_gradient_matches_fd_on_random_paths(self):
        # a uniform grid with a symmetric kernel, then a non-uniform grid
        # with an asymmetric one, where the forward and transposed kernel
        # applications differ
        rng = np.random.default_rng(7)
        cases = [(circle_grid(16), constant_kernel(1.0)), skewed_case(16)]
        for grid, kernel in cases:
            prob = PathProblem(s0=np.full(16, 0.5), sT=bump_profile(grid), horizon=1.5, K=30)
            path = prob.initial_path() + 0.03 * rng.standard_normal((31, 16))
            path[0], path[-1] = prob.s0, prob.sT
            a, g = discrete_action(path, PARAMS, kernel, grid, 1.5, with_grad=True)
            for _ in range(4):
                v = rng.standard_normal(g.shape)
                h = 1e-6
                p1, p2 = path.copy(), path.copy()
                p1[1:-1] += h * v
                p2[1:-1] -= h * v
                fd = (discrete_action(p1, PARAMS, kernel, grid, 1.5)
                      - discrete_action(p2, PARAMS, kernel, grid, 1.5)) / (2 * h)
                an = float(np.sum(g * v))
                assert abs(fd - an) <= 1e-5 * abs(an)

    def test_newton_converges_on_skewed_case(self):
        # a non-uniform grid with an asymmetric kernel: 4 Newton and 15 CG
        # steps; a preconditioner with uniform kappa weights needs 29 CG steps
        grid, kernel = skewed_case(16)
        prob = PathProblem(s0=np.full(16, 0.5), sT=bump_profile(grid), horizon=1.5, K=30)
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=6, tol_grad=1e-9))
        assert res.diagnostics["converged"]
        assert res.diagnostics["cg_iters"] <= 20
        assert res.diagnostics["grad_evals"] > res.diagnostics["cg_iters"]
        assert discrete_action(res.path, PARAMS, kernel, grid, 1.5) == res.action

    def test_start_next_to_the_box_converges(self):
        # the first Newton step from the linear path overshoots s = 1; a step
        # allowed to reach the box puts nodes on it, where the action's
        # curvature degenerates and the line search stalls
        grid = circle_grid(16)
        prob = PathProblem(s0=np.full(16, 0.999), sT=np.full(16, 0.5), horizon=5.0, K=40)
        res = minimize_action(prob, PARAMS, cosine_kernel(1.0, 0.5), grid,
                              ActionOptions(max_iters=30))
        assert res.diagnostics["converged"]
        assert res.path.max() <= 0.999

    def test_newton_step_off_the_box_measures_no_curvature(self):
        # f = |x - c|^2 / 2 on [0, 1]^2 with c outside the box, started on the
        # face x_0 = 1 where the descent direction points out of the box: the
        # first CG direction has no room, so the finite-difference step h is 0
        # and must not be divided by (0/0 is a RuntimeWarning, an error here)
        c = np.array([2.0, 0.5])
        x0 = np.array([1.0, 0.5])
        res = _newton_cg(lambda x: 0.5 * np.sum((x - c) ** 2), x0, lambda x: x - c,
                         (np.zeros(2), np.ones(2)), callback=None, maxiter=5, gtol=1e-9,
                         precondition=lambda x: lambda r: r)
        assert np.array_equal(res.x, x0)
        assert res.nit == 0 and res.cg_iters == 1
        assert res.message == "line search failed" and not res.success

    def test_descent_and_convergence(self):
        grid = circle_grid(16)
        kernel = constant_kernel(1.0)
        prob = PathProblem(s0=np.full(16, 0.5), sT=bump_profile(grid), horizon=2.0, K=50)
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=5000, tol_grad=1e-7))
        assert res.diagnostics["converged"]
        assert res.action > 0
        hist = res.diagnostics["action_history"]
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_action_decreases_with_horizon(self):
        # equilibrium start: waiting is free, so the infimum over a longer
        # horizon cannot exceed the shorter one
        grid = circle_grid(12)
        kernel = constant_kernel(1.0)
        eq = endemic_equilibrium(grid, kernel, PARAMS.beta, PARAMS.alpha)
        target = bump_profile(grid, depth=0.15, base=eq[0])
        vals = []
        for T in (1.0, 2.0, 4.0):
            prob = PathProblem(s0=eq, sT=target, horizon=T, K=int(40 * T))
            res = minimize_action(prob, PARAMS, kernel, grid,
                                  ActionOptions(max_iters=8000, tol_grad=1e-8))
            vals.append(res.action)
        assert vals[0] > vals[1] > vals[2] > 0

    def test_hamiltonian_conserved_along_minimizer(self):
        # the Lagrangian has no explicit time dependence, so the total
        # "energy" E(t) = int (sdot dL/dsdot - L) dkappa is constant along
        # any stationary path; this invariant is independent of the
        # optimizer and of the stationarity-residual code
        from graphonldp.rate_function import sis_lagrangian, sis_lambda_field
        from graphonldp.action_path import _pointwise

        grid = circle_grid(16)
        kernel = constant_kernel(1.0)
        K = kernel_matrix(kernel.kernel, grid)
        eq = endemic_equilibrium(grid, kernel, PARAMS.beta, PARAMS.alpha)
        target = bump_profile(grid, depth=0.18, base=eq[0])
        T, Kt = 2.0, 160
        prob = PathProblem(s0=eq, sT=target, horizon=T, K=Kt)
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=30000, tol_grad=1e-9))
        dt = T / Kt
        path = res.path
        sdot = np.gradient(path, dt, axis=0)
        lam = sis_lambda_field(path, grid, K, PARAMS.beta)
        L = sis_lagrangian(sdot, path, lam, PARAMS.alpha)
        dL = _pointwise(sdot, path, lam, PARAMS.alpha).dL
        energy = ((sdot * dL - L) @ grid.kappa_weights)
        interior = energy[2:-2]
        spread = float(np.max(interior) - np.min(interior))
        scale = max(1e-12, float(np.max(np.abs(interior))))
        assert spread <= 5e-3 * max(1.0, scale) + 2e-4

    def test_infinite_initial_guess_rejected(self):
        grid = circle_grid(8)
        kernel = constant_kernel(0.0)  # lambda == 0: moving down is forbidden
        prob = PathProblem(s0=np.full(8, 0.9), sT=np.full(8, 0.2), horizon=1.0, K=10)
        with pytest.raises(ValueError):
            minimize_action(prob, PARAMS, kernel, grid)

    def test_nonconvergence_returns_best_iterate_with_warning(self):
        grid = circle_grid(12)
        kernel = constant_kernel(1.0)
        prob = PathProblem(s0=np.full(12, 0.5), sT=bump_profile(grid), horizon=2.0, K=40)
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=3, tol_grad=1e-12))
        assert not res.diagnostics["converged"]
        assert "warning" in res.diagnostics
        assert np.isfinite(res.action)
