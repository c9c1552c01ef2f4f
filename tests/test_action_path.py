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


def default_problem():
    """(problem, params, spec, grid) of the ``action`` subcommand at its defaults."""
    from graphonldp import cli

    cp = cli.load_config(None)
    spec, params, grid, _, equilibrium = cli._model(cp)
    prob = PathProblem(s0=cli.parse_profile(cp.get("action", "s0"), grid, equilibrium),
                       sT=cli.parse_profile(cp.get("action", "sT"), grid, equilibrium),
                       horizon=cp.getfloat("grid", "T"), K=cp.getint("grid", "K"))
    return prob, params, spec, grid


def skewed_case(M, seed=11):
    """A non-uniform grid with non-constant rho and the asymmetric kernel
    1 + 0.5 sin(x - y + 0.3), where the forward and transposed kernel
    applications differ."""
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(0.0, 2 * np.pi, M))
    weights, rho = rng.uniform(0.5, 1.5, (2, M))
    grid = SpatialGrid(nodes=nodes, kappa_weights=weights / np.sum(weights * rho) * rho)
    return grid, lambda x, y: 1.0 + 0.5 * np.sin(x - y + 0.3)


class TestPathProblem:
    def test_endpoint_bounds_enforced(self):
        grid = circle_grid(8)
        good = np.full(8, 0.5)
        with pytest.raises(EndpointError):
            PathProblem(s0=np.full(8, 0.0), sT=good, horizon=1.0)
        with pytest.raises(EndpointError):
            PathProblem(s0=good, sT=np.full(8, 1.0), horizon=1.0)
        # NaN fails both comparisons of a range check, and an empty profile
        # has no range: both slipped through or raised numpy's own error
        nan = good.copy()
        nan[3] = np.nan
        for bad in (nan, np.full(8, np.nan), np.zeros(0)):
            with pytest.raises(EndpointError):
                PathProblem(s0=bad, sT=good, horizon=1.0)
            with pytest.raises(EndpointError):
                PathProblem(s0=good, sT=bad, horizon=1.0)

    def test_endpoint_sizes_must_agree(self):
        with pytest.raises(EndpointError, match="endpoint grids differ in size"):
            PathProblem(s0=np.full(8, 0.5), sT=np.full(6, 0.5), horizon=1.0)

    @pytest.mark.parametrize("K", [2, 0, -4])
    def test_needs_three_intervals(self, K):
        with pytest.raises(ValueError, match=f"need K >= 3, got {K}") as exc:
            PathProblem(s0=np.full(4, 0.5), sT=np.full(4, 0.5), horizon=1.0, K=K)
        assert not isinstance(exc.value, EndpointError)

    def test_horizon_must_be_finite_and_positive(self):
        # a NaN horizon once passed `horizon <= 0` and surfaced later as an
        # endpoint fault; every bad horizon is now named at construction
        good = np.full(4, 0.5)
        for horizon in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="horizon") as exc:
                PathProblem(s0=good, sT=good, horizon=horizon, K=10)
            assert not isinstance(exc.value, EndpointError)

    def test_initial_path_interpolates(self):
        prob = PathProblem(s0=np.full(4, 0.2), sT=np.full(4, 0.8), horizon=1.0, K=10)
        path = prob.initial_path()
        assert np.allclose(path[0], 0.2) and np.allclose(path[-1], 0.8)
        assert np.allclose(path[5], 0.5)

    def test_initial_path_constant_between_equal_endpoints(self):
        # (1 - l) s0 + l s0 rounds away from s0, and on a zero field any
        # downward velocity, however small, has infinite action
        s0 = np.full(8, 0.3)
        path = PathProblem(s0=s0, sT=s0.copy(), horizon=1.0, K=10).initial_path()
        assert np.array_equal(path, np.broadcast_to(s0, path.shape))


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

    def test_d2A_forms_no_cube_of_D(self):
        # 2 A B / D^3 overflowed in D^3 once D passed about 5.6e102 (at grid.T =
        # 1e-140, K = 10), a RuntimeWarning; 2 (A / D) (B / D) / D has no such term
        from graphonldp.action_path import _second_order
        from graphonldp.rate_function import _sis_split

        rng = np.random.default_rng(2)
        s, sdot, lam = rng.uniform(0.1, 0.9, 50), rng.uniform(-2.0, 2.0, 50), rng.uniform(0.1, 2.0, 50)
        A, B, _, D = split = _sis_split(sdot, s, lam, 1.0)
        assert np.allclose(_second_order(split)[2], 2.0 * A * B / D ** 3, rtol=1e-14, atol=0.0)
        d2A = _second_order(_sis_split(np.array([1e140, -1e140, 0.0]), np.full(3, 0.5), np.ones(3), 1.0))[2]
        assert np.all(np.isfinite(d2A)) and d2A[2] > 0.0


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
        from oracles import frechet_lambda
        s = np.full(self.grid.M, 0.5)
        x = np.cos(self.grid.nodes)
        d = frechet_lambda(s, x, PARAMS, constant_kernel(0.0), self.grid)
        assert np.allclose(d, 0.0)

    def test_frechet_helpers_match_fd(self):
        from oracles import frechet_lambda
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
        # delta_A is the Frechet derivative of A along x = sdot
        A_of = lambda f: sis_A(sdot, f, lam_of(f), PARAMS.alpha)
        fd_A = (A_of(s + eps * sdot) - A_of(s - eps * sdot)) / (2 * eps)
        an_A = el_operators(sdot, s, PARAMS, self.kernel, self.grid).delta_A
        assert np.max(np.abs(fd_A - an_A) / (1 + np.abs(an_A))) < 1e-6

    def test_delta_fields_are_velocity_direction_frechets(self):
        from oracles import frechet_lambda
        s = 0.5 + 0.15 * np.cos(self.grid.nodes)
        sdot = 0.2 * np.sin(self.grid.nodes) - 0.05
        ops = el_operators(sdot, s, PARAMS, self.kernel, self.grid)
        assert np.allclose(ops.delta_lam,
                           frechet_lambda(s, sdot, PARAMS, self.kernel, self.grid))

    def test_one_field_application_per_kernel_product(self, monkeypatch):
        # W = K[1 - s] is formed once and read by lambda, delta_lam and G:
        # K[1 - s] and K[sdot] forward, K^T[kappa M s] for G
        from graphonldp import meanfield

        calls, apply, apply_T = [], meanfield.KernelOperator.apply, meanfield.KernelOperator.apply_T
        monkeypatch.setattr(meanfield.KernelOperator, "apply",
                            lambda op, d, out=None: calls.append("apply") or apply(op, d, out))
        monkeypatch.setattr(meanfield.KernelOperator, "apply_T",
                            lambda op, v, out=None: calls.append("apply_T") or apply_T(op, v, out))
        s = 0.5 + 0.15 * np.cos(self.grid.nodes)
        sdot = 0.2 * np.sin(self.grid.nodes) - 0.05
        el_operators(sdot, s, PARAMS, self.kernel, self.grid)
        assert sorted(calls) == ["apply", "apply", "apply_T"]


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

    def test_time_step_with_a_subnormal_square_is_named(self):
        # at dt = 1e-201 the second difference of a constant path was 0 / 0: a
        # residual of NaN only, after numpy's "invalid value" warning
        from graphonldp.core_model import NumericalError

        grid = circle_grid(8)
        path = np.full((11, grid.M), 0.4)
        with pytest.raises(NumericalError, match=r"dt = 1e-201 squares below the smallest normal"):
            el_residual(path, PARAMS, cosine_kernel(1.0, 0.5), grid, 1e-200)
        res = el_residual(path, PARAMS, cosine_kernel(1.0, 0.5), grid, 1e-150)
        assert np.all(np.isfinite(res[1:-1]))


class TestDiscreteAction:
    def test_one_flux_split_per_interval_side(self, monkeypatch):
        # the value cells and the gradient read the same split of each side
        from graphonldp import action_path

        calls, split = [], action_path._flux_split
        monkeypatch.setattr(action_path, "_flux_split", lambda *args: calls.append(1) or split(*args))
        grid = circle_grid(8)
        path = PathProblem(s0=np.full(8, 0.6), sT=bump_profile(grid), horizon=1.0, K=10).initial_path()
        a, _ = discrete_action(path, PARAMS, cosine_kernel(1.0, 0.5), grid, 1.0, with_grad=True)
        assert len(calls) == 2
        assert discrete_action(path, PARAMS, cosine_kernel(1.0, 0.5), grid, 1.0) == a
        assert len(calls) == 4

    def test_kernel_products_go_through_the_operator(self, monkeypatch):
        # one objective call at the default grid applies K once, to 1 - s, and
        # K^T once, to kappa M s, both through the operator's public products
        from graphonldp import meanfield

        prob, params, spec, grid = default_problem()
        calls, apply, apply_T = [], meanfield.KernelOperator.apply, meanfield.KernelOperator.apply_T
        monkeypatch.setattr(meanfield.KernelOperator, "apply",
                            lambda op, d, out=None: calls.append("apply") or apply(op, d, out))
        monkeypatch.setattr(meanfield.KernelOperator, "apply_T",
                            lambda op, v, out=None: calls.append("apply_T") or apply_T(op, v, out))
        discrete_action(prob.initial_path(), params, spec, grid, prob.horizon, with_grad=True)
        assert sorted(calls) == ["apply", "apply_T"]

    def test_solve_reuses_its_buffers_across_objective_calls(self, monkeypatch):
        # every objective call of one solve writes the same workspace, so its heap
        # does not grow again between calls; the gradients, which _newton_cg
        # differences against each other, and the returned path stay fresh
        from graphonldp import action_path

        sides, grads = [], []

        def recorded(*args, _fn=action_path._interval_sides):
            out = _fn(*args)
            sides.append(out)
            return out

        def graded(*args, _fn=action_path.discrete_action, **kwargs):
            out = _fn(*args, **kwargs)
            if isinstance(out, tuple):
                grads.append(out[1])
            return out
        monkeypatch.setattr(action_path, "_interval_sides", recorded)
        monkeypatch.setattr(action_path, "discrete_action", graded)
        grid = circle_grid(8)
        prob = PathProblem(s0=np.full(8, 0.6), sT=bump_profile(grid, base=0.6), horizon=1.0, K=10)
        res = minimize_action(prob, PARAMS, cosine_kernel(1.0, 0.5), grid)
        assert res.diagnostics["grad_evals"] >= 3 and len(sides) == res.diagnostics["grad_evals"]
        for (W0, v0, sides0), (W1, v1, sides1) in zip(sides, sides[1:]):
            assert np.shares_memory(W0, W1) and np.shares_memory(v0, v1)
            for side0, side1 in zip(sides0, sides1):  # (lam, up, p, D, r) of each side
                assert all(np.shares_memory(a, b) for a, b in zip(side0, side1))
        assert not any(np.shares_memory(g0, g1) for g0, g1 in zip(grads, grads[1:]))
        assert not any(np.shares_memory(res.path, a) for W, v, pair in sides for a in (W, v, *pair[0]))

    def test_value_is_the_trapezoid_sum_of_lagrangian_cells(self):
        # discrete_action reads each cell off the flux split as L = v p - H;
        # sis_lagrangian sums the two Poisson cells at the same split
        from graphonldp.rate_function import sis_lagrangian

        def trapezoid(path, kernel, grid, T):
            dt = T / (len(path) - 1)
            v = (path[1:] - path[:-1]) / dt
            K = kernel_matrix(getattr(kernel, "kernel", kernel), grid)
            lam = sis_lambda_field(path, grid, K, PARAMS.beta)
            L = (sis_lagrangian(v, path[:-1], lam[:-1], PARAMS.alpha)
                 + sis_lagrangian(v, path[1:], lam[1:], PARAMS.alpha))
            return float(0.5 * dt * np.sum(L @ grid.kappa_weights))

        rng = np.random.default_rng(5)
        for grid, kernel in ((circle_grid(12), cosine_kernel(1.0, 0.5)), skewed_case(12)):
            for _ in range(5):
                path = rng.uniform(0.05, 0.95, (9, grid.M))
                want = trapezoid(path, kernel, grid, 0.8)
                for with_grad in (False, True):
                    got = discrete_action(path, PARAMS, kernel, grid, 0.8, with_grad=with_grad)
                    got = got[0] if with_grad else got
                    assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("case, level, rows, finite", [
        # v = 0 on every interval, with lam > 0 and with lam = 0
        ("v = 0", 1.0, [0.5, 0.5, 0.5], True),
        ("lam = 0, v = 0", 0.0, [0.5, 0.5, 0.5], True),
        # lam = 0: a rise is a recovery flux alone, a fall needs infection
        ("lam = 0, v > 0", 0.0, [0.3, 0.4, 0.5], True),
        ("lam = 0, v < 0", 0.0, [0.5, 0.4, 0.3], False),
        # s = 1 (up = 0): falling from it is infection alone, rising onto it
        # needs recovery; B = up = 0 there, where log(B / up) is NaN
        ("s = 1, v < 0", 1.0, [1.0, 0.9, 0.8], True),
        ("s = 1, v > 0", 1.0, [0.8, 0.9, 1.0], False),
        ("s = 1, v = 0", 1.0, [1.0, 1.0, 1.0], True),
    ])
    def test_degenerate_cells_keep_the_lagrangian_value(self, case, level, rows, finite):
        # node 0 follows ``rows``; the others sit at 0.5, so lam > 0 at node 0
        # unless the kernel level is 0
        from graphonldp.rate_function import sis_lagrangian

        grid, kernel = circle_grid(4), constant_kernel(level)
        path = np.full((3, 4), 0.5)
        path[:, 0] = rows
        dt = 0.5
        v = (path[1:] - path[:-1]) / dt
        lam = sis_lambda_field(path, grid, kernel_matrix(kernel.kernel, grid), PARAMS.beta)
        L = (sis_lagrangian(v, path[:-1], lam[:-1], PARAMS.alpha)
             + sis_lagrangian(v, path[1:], lam[1:], PARAMS.alpha))
        want = float(0.5 * dt * np.sum(L @ grid.kappa_weights))
        got = discrete_action(path, PARAMS, kernel, grid, 1.0)
        if finite:
            assert np.isfinite(want) and abs(got - want) <= 1e-13 * abs(want)
        else:
            assert got == want == np.inf

    def test_one_lambda_source(self, monkeypatch):
        # every SIS consumer takes W = K[1 - s] and lam = beta s W from one
        # call of meanfield._sis_field and applies K to 1 - s nowhere else.
        # Doubling the lam it returns must act as beta -> 2 beta does on lam
        # (exactly: a factor 2 rounds the same), which an inline copy of the
        # formula would not see
        from graphonldp import action_path, meanfield, rate_function
        from oracles import frechet_lambda
        from graphonldp.meanfield import sis_drift
        from graphonldp.rate_function import sis_action

        grid, kernel = circle_grid(8), cosine_kernel(1.0, 0.5)
        prob = PathProblem(s0=np.full(8, 0.6), sT=bump_profile(grid), horizon=1.0, K=10)
        path = prob.initial_path()
        s, x = path[4], 0.2 * np.sin(grid.nodes) - 0.05
        r = np.cos(np.arange(9 * 8))
        newton = action_path._newton_cg

        def consumers(params):
            # the objective and preconditioner of one minimize_action step, as
            # the solve builds them; the preconditioner reads the sides of the
            # objective's evaluation at its iterate
            pre = []
            monkeypatch.setattr(action_path, "_newton_cg",
                                lambda fun, x0, f0, g0, lo, hi, p, *a: pre.append((fun, p))
                                or newton(fun, x0, f0, g0, lo, hi, p, *a))
            minimize_action(prob, params, kernel, grid, ActionOptions(max_iters=1))

            def precondition(x=path[1:-1].ravel()):
                fun, p = pre[0]
                fun(x)
                return p()(r)
            return {  # name: (call, kernel applications of its own, outside the shared one)
                "discrete_action": (lambda: discrete_action(path, params, kernel, grid, 1.0), 0),
                "discrete_action grad": (lambda: discrete_action(path, params, kernel, grid, 1.0,
                                                                 with_grad=True)[0], 0),
                "el_operators": (lambda: el_operators(x, s, params, kernel, grid).dL_dsdot, 1),
                "frechet_lambda": (lambda: frechet_lambda(s, x, params, kernel, grid), 1),
                "precondition": (precondition, 0),
                "sis_action": (lambda: sis_action(path, params, kernel, grid, 1.0).value, 0),
                "sis_drift": (lambda: sis_drift(s, grid, kernel, params.beta, params.alpha), 0),
            }

        want = {name: f() for name, (f, _) in consumers(SisParams(2 * PARAMS.beta, PARAMS.alpha)).items()}
        want["frechet_lambda"] = frechet_lambda(s, x, PARAMS, kernel, grid)  # it reads W alone

        calls, inside, shared = [], [], meanfield._sis_field
        apply = meanfield.KernelOperator.apply

        def doubled(*args):
            calls.append(1)
            inside.append(1)
            try:
                W, lam = shared(*args)
            finally:
                inside.pop()
            return W, 2.0 * lam

        outside = []
        monkeypatch.setattr(meanfield.KernelOperator, "apply",
                            lambda op, d, out=None: (outside.append(1) if not inside else None)
                            or apply(op, d, out))
        for mod in (meanfield, action_path, rate_function):
            if hasattr(mod, "_sis_field"):
                monkeypatch.setattr(mod, "_sis_field", doubled)
        for name, (f, own) in consumers(PARAMS).items():
            calls.clear()
            outside.clear()
            got = f()
            assert len(calls) == 1 and len(outside) == own, name
            assert np.array_equal(got, want[name]), name

    def test_path_outside_unit_interval_rejected(self):
        grid = circle_grid(8)
        path = PathProblem(s0=np.full(8, 0.6), sT=np.full(8, 0.4), horizon=1.0, K=10).initial_path()
        path[5, 3] = 1.0 + 1e-5
        for with_grad in (False, True):
            with pytest.raises(ValueError, match="outside"):
                discrete_action(path, PARAMS, cosine_kernel(1.0, 0.5), grid, 1.0, with_grad=with_grad)


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

        def fun(x):
            return 0.5 * np.sum((x - c) ** 2), x - c

        x, _, _, diag = _newton_cg(fun, x0, *fun(x0), np.zeros(2), np.ones(2),
                                   precondition=lambda: lambda r: r, maxiter=5, gtol=1e-9)
        assert np.array_equal(x, x0)
        assert diag["iters"] == 0 and diag["cg_iters"] == 1
        assert "(line search failed)" in diag["warning"] and not diag["converged"]

    def test_non_finite_preconditioned_gradient_stops_before_a_trial_step(self):
        # an overflowed preconditioner (a horizon near the float range) gives a
        # NaN direction; min(1, nan) once made its first trial step 1
        calls = []

        def fun(x):
            calls.append(x.copy())
            return 0.5 * float(x @ x), x.copy()

        x0 = np.full(3, 0.5)
        x, f, _, diag = _newton_cg(fun, x0, *fun(x0), np.zeros(3), np.ones(3),
                                   precondition=lambda: lambda r: np.full_like(r, np.nan),
                                   maxiter=5, gtol=1e-9)
        assert len(calls) == 1 and np.array_equal(x, x0) and f == 0.375
        assert diag["iters"] == 0 and diag["grad_evals"] == 1 and not diag["converged"]
        assert "(non-finite Newton direction)" in diag["warning"]

    def test_non_finite_curvature_stops_without_a_warning(self):
        # f = 1e150 |x|^2 / 2: |g|^2 and r z stay finite, but p H p ~ 1e450
        # overflows (a matmul RuntimeWarning, an error here) and stops the solve
        calls = []

        def fun(x):
            calls.append(x.copy())
            return 0.5e150 * float(x @ x), 1e150 * x

        x0 = np.full(3, 0.5)
        x, _, _, diag = _newton_cg(fun, x0, *fun(x0), np.zeros(3), np.ones(3),
                                   precondition=lambda: lambda r: r, maxiter=5, gtol=1e-9)
        assert len(calls) == 2 and np.array_equal(x, x0)
        assert diag["iters"] == 0 and diag["cg_iters"] == 1 and not diag["converged"]
        assert "(non-finite curvature)" in diag["warning"]

    def test_preconditioner_reads_the_evaluated_sides(self, monkeypatch):
        # over the default solve the Newton preconditioner is always called at
        # the iterate the objective just evaluated, and splits no path itself:
        # every interval-side state comes from a discrete_action call
        from graphonldp import action_path

        counts = dict.fromkeys(("discrete_action", "_interval_sides"), 0)
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(action_path, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(action_path, name, counted)
        prob, params, spec, grid = default_problem()
        diag = minimize_action(prob, params, spec, grid).diagnostics
        assert (diag["iters"], diag["cg_iters"], diag["grad_evals"]) == (3, 20, 24)
        assert counts["discrete_action"] == diag["grad_evals"]  # the start's included
        assert counts["_interval_sides"] == counts["discrete_action"]

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
        from graphonldp.rate_function import _sis_split, sis_lagrangian, sis_lambda_field
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
        dL = _pointwise(_sis_split(sdot, path, lam, PARAMS.alpha), PARAMS.alpha)[0]
        energy = ((sdot * dL - L) @ grid.kappa_weights)
        interior = energy[2:-2]
        spread = float(np.max(interior) - np.min(interior))
        scale = max(1e-12, float(np.max(np.abs(interior))))
        assert spread <= 5e-3 * max(1.0, scale) + 2e-4

    def test_gradient_matches_fd_at_the_disease_free_start(self):
        # the CLI's small-world start is pinned at s0 = 1 - 3e-13, where the
        # recovery intensity alpha (1 - s0) is far below the solve's box; the
        # gradient on the first interior slice must still be the derivative
        # of the value
        from graphonldp import cli

        cp = cli.load_config(None, ["graphon.family=small-world"])
        spec, params, grid, _, equilibrium = cli._model(cp)
        prob = PathProblem(s0=cli.parse_profile(cp.get("action", "s0"), grid, equilibrium),
                           sT=cli.parse_profile(cp.get("action", "sT"), grid, equilibrium),
                           horizon=cp.getfloat("grid", "T"), K=cp.getint("grid", "K"))
        assert 1.0 - prob.s0.max() < 1e-12
        path = np.clip(prob.initial_path(), 1e-8, 1.0 - 1e-8)
        path[0], path[-1] = prob.s0, prob.sT
        _, g = discrete_action(path, params, spec, grid, prob.horizon, with_grad=True)
        h = 1e-9
        fd = np.empty(grid.M)
        for i in range(grid.M):
            p1, p2 = path.copy(), path.copy()
            p1[1, i] += h
            p2[1, i] -= h
            fd[i] = (discrete_action(p1, params, spec, grid, prob.horizon)
                     - discrete_action(p2, params, spec, grid, prob.horizon)) / (2 * h)
        assert np.max(np.abs(fd - g[0]) / (np.abs(fd) + 1e-6)) <= 1e-4

    def test_quasi_potential_from_the_endemic_state(self):
        # constant kernel, R0 = beta / alpha = 2: the minimum action from the
        # endemic state s* = 1 / R0 to a uniform sT is the quasi-potential
        # V(sT) = sT ln(R0 sT) - sT + 1 / R0 as T grows; at T = 20 the
        # Richardson value of two time steps lands on it
        grid = circle_grid(8)
        kernel = constant_kernel(1.0)
        r0 = PARAMS.beta / PARAMS.alpha
        for sT in (0.9, 0.99):
            actions = []
            for K in (400, 800):
                prob = PathProblem(s0=np.full(8, 1.0 / r0), sT=np.full(8, sT), horizon=20.0, K=K)
                res = minimize_action(prob, PARAMS, kernel, grid, ActionOptions(tol_grad=1e-10))
                assert res.diagnostics["converged"]
                actions.append(res.action)
            richardson = (4.0 * actions[1] - actions[0]) / 3.0
            V = sT * np.log(r0 * sT) - sT + 1.0 / r0
            assert abs(richardson - V) <= 1e-8

    def test_zero_field_upward_path_gradient_matches_fd(self):
        # lam = 0 everywhere: A = 0, B = sdot and dL/dsdot = log(sdot / up),
        # finite although log(lam / A) is 0/0
        grid = circle_grid(8)
        kernel = constant_kernel(0.0)
        prob = PathProblem(s0=np.full(8, 0.3), sT=np.full(8, 0.4), horizon=1.0, K=10)
        rng = np.random.default_rng(3)
        path = prob.initial_path()
        path[1:-1] += 0.002 * rng.standard_normal((9, 8))  # steps of 0.01 stay upward
        a, g = discrete_action(path, PARAMS, kernel, grid, 1.0, with_grad=True)
        assert np.isfinite(a) and np.all(np.isfinite(g))
        for _ in range(4):
            v = rng.standard_normal(g.shape)
            h = 1e-6
            p1, p2 = path.copy(), path.copy()
            p1[1:-1] += h * v
            p2[1:-1] -= h * v
            fd = (discrete_action(p1, PARAMS, kernel, grid, 1.0)
                  - discrete_action(p2, PARAMS, kernel, grid, 1.0)) / (2 * h)
            an = float(np.sum(g * v))
            assert abs(fd - an) <= 1e-5 * abs(an)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_field_upward_path_converges(self):
        # every d2L = 1 / D = 1 / sdot is finite on a zero field moving up
        grid = circle_grid(8)
        kernel = constant_kernel(0.0)
        prob = PathProblem(s0=np.full(8, 0.3), sT=np.full(8, 0.4), horizon=1.0, K=10)
        res = minimize_action(prob, SisParams(2.0, 1.0), kernel, grid)
        assert res.diagnostics["converged"]
        assert res.action < discrete_action(prob.initial_path(), PARAMS, kernel, grid, 1.0)
        assert np.isfinite(res.diagnostics["el_residual_max"])

    def test_infinite_initial_guess_rejected(self):
        grid = circle_grid(8)
        kernel = constant_kernel(0.0)  # lambda == 0: moving down is forbidden
        prob = PathProblem(s0=np.full(8, 0.9), sT=np.full(8, 0.2), horizon=1.0, K=10)
        with pytest.raises(EndpointError, match="infinite action"):
            minimize_action(prob, PARAMS, kernel, grid)

    def test_guess_endpoints_replaced_before_the_start_is_scored(self):
        # the solve pins problem.s0/sT, so a guess whose end slices differ
        # sets neither the infinite-action check nor the gradient tolerance
        grid = circle_grid(8)
        kernel = constant_kernel(1.0)
        prob = PathProblem(s0=np.full(8, 0.5), sT=bump_profile(grid), horizon=1.0, K=10)
        opts = ActionOptions(max_iters=50)
        ref = minimize_action(prob, PARAMS, kernel, grid, opts)
        guess = prob.initial_path()
        guess[-1] = 0.99
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=50, initial_path=guess))
        assert res.diagnostics["grad_tol"] == ref.diagnostics["grad_tol"] == opts.tol_grad
        assert np.array_equal(res.path, ref.path)

    def test_guess_of_wrong_shape_rejected(self):
        grid = circle_grid(8)
        prob = PathProblem(s0=np.full(8, 0.5), sT=np.full(8, 0.4), horizon=1.0, K=10)
        with pytest.raises(ValueError, match=r"\(10, 8\).*\(11, 8\)"):
            minimize_action(prob, PARAMS, constant_kernel(1.0), grid,
                            ActionOptions(initial_path=np.full((10, 8), 0.45)))

    def test_nonconvergence_returns_best_iterate_with_warning(self):
        grid = circle_grid(12)
        kernel = constant_kernel(1.0)
        prob = PathProblem(s0=np.full(12, 0.5), sT=bump_profile(grid), horizon=2.0, K=40)
        res = minimize_action(prob, PARAMS, kernel, grid,
                              ActionOptions(max_iters=3, tol_grad=1e-12))
        assert not res.diagnostics["converged"]
        assert "warning" in res.diagnostics
        assert np.isfinite(res.action)
