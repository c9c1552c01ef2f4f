import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from graphonldp.core_model import SisParams, sis_rates
from graphonldp.graphon import constant_kernel, cosine_kernel
from graphonldp.meanfield import circle_grid, evolve, kernel_matrix
from graphonldp.rate_function import (
    _CHUNK,
    InfeasibleRateError,
    channel_intensities,
    contracted_L,
    contracted_node_value,
    ell,
    ell_scaled,
    poisson_tail_log_prob,
    rate_G,
    rate_I,
    reconstruct_occupation,
    sis_A,
    sis_action,
    sis_lagrangian,
    sis_lagrangian_bruteforce,
    sis_lambda_field,
)

from oracles import contracted_node_bruteforce


class TestEll:
    def test_unique_zero(self):
        assert ell(1.0) == 0.0

    def test_limit_convention(self):
        assert ell(0.0) == 1.0

    def test_analytic_point(self):
        assert ell(np.e) == pytest.approx(1.0, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ell(-0.1)

    @given(st.floats(0.0, 100.0))
    def test_nonnegative(self, a):
        assert ell(a) >= 0.0

    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.01, 0.99))
    def test_convexity(self, a, b, lam):
        mid = ell(lam * a + (1 - lam) * b)
        assert mid <= lam * ell(a) + (1 - lam) * ell(b) + 1e-12


class TestEllScaled:
    def test_marker_on_zero_intensity(self):
        assert ell_scaled(1.0, 0.0) == np.inf
        assert ell_scaled(1.0, -0.5) == np.inf

    def test_zero_flux_and_balance(self):
        for lam in (0.0, 1e-12, 0.3, 7.0):
            assert ell_scaled(0.0, lam) == lam
            assert ell_scaled(lam, lam) == 0.0

    def test_series_near_balance(self):
        lam = 2.5
        p = lam * (1.0 + 1e-6)
        x = (p - lam) / lam  # the defect p carries after rounding
        assert ell_scaled(p, lam) == pytest.approx(lam * (x * x / 2 - x ** 3 / 6), rel=1e-12)

    def test_matches_both_formulas_on_every_cell(self):
        def oracle(p, lam):
            # both formulas on every cell, then the branch picked by np.where
            p = np.asarray(p, dtype=float)
            lam = np.asarray(lam, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                x = (p - lam) / lam
                near = np.abs(x) < 0.5
                xn = np.where(near, x, 0.0)
                small = lam * ((1.0 + xn) * np.log1p(xn) - xn)
                big = p * np.log(p / lam) - p + lam
            out = np.where(near, small, np.where(p == 0, lam, big))
            out = np.where((lam <= 0) & (p > 0), np.inf, out)
            return out if out.ndim else float(out)

        edge = 0.5 * (1.0 + np.array([-1e-12, -1e-15, 0.0, 1e-15, 1e-12]))
        lam = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 1e-12, 0.3, 1.0, 7.0])
        # p = 0, p = lam, and p just inside and outside |x| = 0.5 of every lam
        p = np.concatenate([[0.0, 1e-300, 0.2, 1.0, 3.0, 1e6], lam,
                            *(np.outer(lam, 1.0 + sign * edge).ravel() for sign in (-1.0, 1.0))])
        P, L = np.meshgrid(np.abs(p), lam, indexing="ij")
        for args in [(P, L), (P, 0.3), (0.45, L), (0.0, L), (P[:, :1], L[:1]), (0.3, 0.45),
                     (0.0, 0.0), (1.0, -1.0)]:
            got, want = ell_scaled(*args), oracle(*args)
            assert type(got) is type(want)
            assert np.array_equal(got, want, equal_nan=True)
        assert np.isinf(ell_scaled(P, L)).sum() == np.sum((L <= 0) & (P > 0))


class TestPoissonTail:
    def test_matches_scipy_logsf(self):
        for mean, k in ((250.0, 300), (1000.0, 1200), (2000.0, 2400)):
            mine = poisson_tail_log_prob(k, mean)
            ref = poisson.logsf(k - 1, mean)
            assert mine == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("mean", [np.nan, -1.0, np.inf])
    def test_bad_mean_rejected(self, mean):
        for k in (0, 3):
            with pytest.raises(ValueError, match="mean"):
                poisson_tail_log_prob(k, mean)

    def test_zero_mean(self):
        assert poisson_tail_log_prob(3, 0.0) == -np.inf
        assert poisson_tail_log_prob(0, 0.0) == 0.0

    def test_slope_approaches_entropy(self):
        a = 1.2
        gaps = []
        for N in (250, 1000, 4000):
            slope = poisson_tail_log_prob(int(a * N), N) / N
            gaps.append(abs(slope + ell(a)))
        assert gaps[0] > gaps[1] > gaps[2]


class TestRateI:
    def test_unit_rate_is_null_model(self):
        grid = circle_grid(8)
        p = np.ones((5, 8))
        val = rate_I({("S", "I"): p, ("I", "S"): p}, grid, T=1.0)
        assert val == 0.0

    def test_constant_density_closed_form(self):
        grid = circle_grid(8)
        a, T, m = 2.5, 3.0, 2
        p = np.full((7, 8), a)
        val = rate_I({("S", "I"): p, ("I", "S"): p}, grid, T=T)
        assert val == pytest.approx(m * T * ell(a), rel=1e-12)

    def test_negative_density_rejected(self):
        grid = circle_grid(4)
        with pytest.raises(ValueError):
            rate_I({("S", "I"): -np.ones((3, 4))}, grid, T=1.0)

    def test_infinite_density_rejected(self):
        q = np.full((3, 8), 0.5)
        q[1, 2] = np.inf
        with pytest.raises(ValueError, match="infinite"):
            rate_I({("S", "I"): q}, circle_grid(8), 1.0)

    def test_constant_tail_slope_consistency(self):
        # the optimal way to realize total mass a over [0,1] is the constant
        # density, whose cost matches the exact Poisson tail slope limit
        grid = circle_grid(4)
        a = 1.2
        val = rate_I({("S", "I"): np.full((9, 4), a)}, grid, T=1.0)
        assert val == pytest.approx(ell(a), rel=1e-12)


class TestSisA:
    def test_spec_point(self):
        assert sis_A(0.0, 0.5, 1.0, 1.0) == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_degenerate_branch(self):
        assert sis_A(0.7, 1.0, 0.0, 1.0) == 0.0
        assert sis_A(-0.7, 1.0, 0.0, 1.0) == pytest.approx(0.7)

    @given(st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0),
           st.floats(0.05, 4.0))
    @settings(max_examples=300)
    def test_defining_quadratic(self, sdot, s, lam, alpha):
        a = sis_A(sdot, s, lam, alpha)
        target = alpha * lam * (1.0 - s)
        assert a >= 0.0
        assert a * (sdot + a) == pytest.approx(target, rel=1e-12, abs=1e-12)


class TestSisLagrangian:
    def test_zero_exactly_on_drift(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.1, 3.0)
            drift = -lam + alpha * (1.0 - s)
            assert sis_lagrangian(drift, s, lam, alpha) == pytest.approx(0.0, abs=1e-13)

    def test_positive_off_drift(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.1, 3.0)
            drift = -lam + alpha * (1.0 - s)
            off = drift + rng.choice([-1, 1]) * rng.uniform(0.05, 2.0)
            assert sis_lagrangian(off, s, lam, alpha) > 1e-8

    def test_spec_point_against_oracle(self):
        closed = sis_lagrangian(0.3, 0.4, 0.7, 1.0)
        oracle = sis_lagrangian_bruteforce(0.3, 0.4, 0.7, 1.0)
        assert abs(closed - oracle) <= 1e-8

    def test_oracle_agreement_batch(self):
        rng = np.random.default_rng(3)
        n = 2000
        alpha = rng.uniform(0.1, 3.0, n)
        s = rng.uniform(0.02, 0.98, n)
        lam = rng.uniform(1e-3, 10.0, n) / (alpha * (1.0 - s))
        sdot = rng.uniform(-3.0, 3.0, n)
        closed = sis_lagrangian(sdot, s, lam, alpha)
        oracle = sis_lagrangian_bruteforce(sdot, s, lam, alpha)
        assert np.max(np.abs(closed - oracle)) <= 1e-8

    def test_infinity_markers(self):
        assert sis_lagrangian(-0.5, 0.5, 0.0, 1.0) == np.inf  # flow needs dead channel
        assert sis_lagrangian(0.5, 1.0, 0.7, 1.0) == np.inf   # s = 1 cannot rise
        assert np.isfinite(sis_lagrangian(0.5, 0.5, 0.0, 1.0))
        assert np.isfinite(sis_lagrangian(-0.5, 1.0, 0.7, 1.0))
        # both channels dead: only standing still is possible
        assert sis_lagrangian(0.0, 1.0, 0.0, 1.0) == 0.0
        assert sis_lagrangian(0.3, 1.0, 0.0, 1.0) == np.inf
        assert sis_lagrangian(-0.3, 1.0, 0.0, 1.0) == np.inf

    @pytest.mark.parametrize("args", [(-0.1, 1.2, 0.5, 1.0), (0.1, -0.2, -0.5, 1.0)])
    def test_susceptible_outside_unit_interval_rejected(self, args):
        with pytest.raises(ValueError, match="outside"):
            sis_lagrangian(*args)

    def test_strict_convexity_midpoint(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = rng.uniform(0.1, 0.9)
            lam = rng.uniform(0.1, 2.0)
            alpha = rng.uniform(0.2, 2.0)
            s1, s2 = rng.uniform(-2, 2, 2)
            if abs(s1 - s2) < 1e-3:
                continue
            mid = sis_lagrangian(0.5 * (s1 + s2), s, lam, alpha)
            avg = 0.5 * (sis_lagrangian(s1, s, lam, alpha) + sis_lagrangian(s2, s, lam, alpha))
            assert mid < avg

    def test_convexity_second_differences(self):
        h = 1e-3
        sweep = np.arange(-2.0, 2.0, 0.05)
        vals = sis_lagrangian(sweep, 0.4, 0.8, 1.3)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-12)


class TestSisAction:
    def setup_method(self):
        self.grid = circle_grid(32)
        self.params = SisParams(beta=2.0, alpha=1.0)
        self.kernel = cosine_kernel(1.0, 0.5)
        self.rates = sis_rates(self.params)

    def _meanfield(self, T=2.0, steps=800):
        s0 = 0.6 + 0.2 * np.cos(self.grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        return evolve(self.grid, self.kernel, self.rates, nu0, T, dt=T / steps)

    def test_meanfield_path_near_zero(self):
        dens, _ = self._meanfield()
        val = sis_action(dens.state("S"), self.params, self.kernel, self.grid, 2.0)
        assert val.finite and float(val) < 1e-8

    def test_constant_nonequilibrium_path(self):
        c = 0.55
        T = 1.5
        n_t = 61
        path = np.full((n_t, self.grid.M), c)
        K = kernel_matrix(self.kernel.kernel, self.grid)
        lam = sis_lambda_field(np.full(self.grid.M, c), self.grid, K, self.params.beta)
        per_node = sis_lagrangian(0.0, c, lam, self.params.alpha)
        expected = T * float(per_node @ self.grid.kappa_weights)
        val = sis_action(path, self.params, self.kernel, self.grid, T)
        assert float(val) == pytest.approx(expected, rel=1e-12)
        assert expected > 0

    def test_time_reversed_meanfield_positive(self):
        dens, _ = self._meanfield()
        val = sis_action(dens.state("S")[::-1], self.params, self.kernel, self.grid, 2.0)
        assert float(val) > 1e-4

    def test_infinity_propagates(self):
        path = np.full((11, self.grid.M), 0.5)
        path[5:] = 1.0  # steps onto the boundary while still rising
        val = sis_action(path, self.params, self.kernel, self.grid, 1.0)
        assert not val.finite

    def test_nan_path_rejected(self):
        path = np.full((11, self.grid.M), 0.5)
        path[0, 3] = np.nan
        with pytest.raises(ValueError):
            sis_action(path, self.params, self.kernel, self.grid, 1.0)


class TestRateG:
    def setup_method(self):
        self.grid = circle_grid(32)
        self.params = SisParams(beta=2.0, alpha=1.0)
        self.kernel = cosine_kernel(1.0, 0.5)
        self.rates = sis_rates(self.params)

    def test_zero_on_meanfield_flux(self):
        s0 = 0.6 + 0.2 * np.cos(self.grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        dens, flux = evolve(self.grid, self.kernel, self.rates, nu0, 2.0, dt=2.0 / 1000)
        val = rate_G(flux.densities, nu0, self.grid, self.kernel, self.rates, 2.0,
                     times=flux.times)
        assert val.finite and float(val) < 1e-8

    def test_scaled_channel_strictly_positive(self):
        s0 = 0.6 + 0.2 * np.cos(self.grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        _, flux = evolve(self.grid, self.kernel, self.rates, nu0, 1.0, dt=1e-3)
        bumped = dict(flux.densities)
        doubled = bumped[("S", "I")].copy()
        doubled[: len(doubled) // 3] *= 2.0
        bumped[("S", "I")] = doubled
        val = rate_G(bumped, nu0, self.grid, self.kernel, self.rates, 1.0,
                     times=flux.times)
        assert float(val) > 1e-4

    def test_two_state_reduction_matches_lagrangian(self):
        # build the optimal flux split of an arbitrary smooth path; the
        # coupled functional must reproduce the contracted action
        grid, params, kernel = self.grid, self.params, self.kernel
        T = 1.0
        n_t = 2001
        tt = np.linspace(0.0, T, n_t)
        th = grid.nodes
        s = 0.55 + 0.15 * np.cos(th)[None, :] * np.sin(np.pi * tt / T)[:, None] \
            - 0.1 * np.sin(tt)[:, None]
        sdot = 0.15 * np.cos(th)[None, :] * (np.pi / T) * np.cos(np.pi * tt / T)[:, None] \
            - 0.1 * np.cos(tt)[:, None]
        K = kernel_matrix(kernel.kernel, grid)
        lam = sis_lambda_field(s, grid, K, params.beta)
        A = sis_A(sdot, s, lam, params.alpha)
        flux = {("S", "I"): A, ("I", "S"): sdot + A}
        nu0 = np.vstack([s[0], 1 - s[0]])
        val = rate_G(flux, nu0, grid, kernel, self.rates, T, times=tt)
        act = sis_action(s, params, kernel, grid, T)
        assert float(val) == pytest.approx(float(act), rel=2e-4, abs=2e-6)
        assert float(act) > 1e-3

    def test_infinity_marker_on_dead_channel(self):
        nu0 = np.vstack([np.ones(self.grid.M), np.zeros(self.grid.M)])
        # no infected anywhere: infection intensity is zero, yet p > 0
        p = np.full((5, self.grid.M), 0.1)
        zeros = np.zeros((5, self.grid.M))
        val = rate_G({("S", "I"): zeros, ("I", "S"): p}, nu0, self.grid,
                     self.kernel, self.rates, 1.0)
        assert not val.finite
        assert val.where is not None

    def test_infinity_marker_locates_first_dead_cell(self):
        # J == 0: the S -> I intensity is zero everywhere, so the first cell
        # with S -> I flux is the first infinite one
        nu0 = np.vstack([np.ones(self.grid.M), np.zeros(self.grid.M)])
        p = np.zeros((5, self.grid.M))
        p[2:, 7] = 0.1
        val = rate_G({("S", "I"): p, ("I", "S"): np.zeros_like(p)}, nu0, self.grid,
                     constant_kernel(0.0), self.rates, 1.0)
        assert not val.finite
        assert val.where == (("S", "I"), 2, 7)

    @pytest.mark.parametrize("value", [-0.05, np.nan, np.inf])
    def test_invalid_flux_rejected(self, value):
        p = np.full((5, self.grid.M), 0.1)
        p[2, 7] = value
        nu0 = np.full((2, self.grid.M), 0.5)
        with pytest.raises(ValueError):
            rate_G({("S", "I"): p, ("I", "S"): np.full_like(p, 0.1)}, nu0, self.grid,
                   self.kernel, self.rates, 1.0)

    def test_nan_initial_occupation_rejected(self):
        grid = circle_grid(8)
        p = np.full((5, grid.M), 0.1)
        nu0 = np.full((2, grid.M), 0.5)
        nu0[0, 3] = np.nan
        with pytest.raises(ValueError, match="nu0"):
            rate_G({("S", "I"): p, ("I", "S"): p.copy()}, nu0, grid,
                   cosine_kernel(1.0, 0.5), self.rates, 1.0)

    def meanfield_flux(self, T=1.0, steps=100):
        s0 = 0.6 + 0.2 * np.cos(self.grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        _, flux = evolve(self.grid, self.kernel, self.rates, nu0, T, dt=T / steps)
        return flux, nu0

    @pytest.mark.parametrize("fault", ["reversed", "nan", "short"])
    def test_bad_times_rejected(self, fault):
        # reversed times gave a negative rate functional, NaN ones a NaN
        # marked finite, and a short grid a bare broadcast error
        flux, nu0 = self.meanfield_flux()
        times = {"reversed": flux.times[::-1], "short": flux.times[:-1],
                 "nan": np.where(np.arange(len(flux.times)) == 40, np.nan, flux.times)}[fault]
        with pytest.raises(ValueError, match="times"):
            rate_G(flux.densities, nu0, self.grid, self.kernel, self.rates, 1.0, times=times)
        with pytest.raises(ValueError, match="times"):
            rate_I(flux.densities, self.grid, 1.0, times=times)

    def test_wrong_width_names_the_shape(self):
        flux, nu0 = self.meanfield_flux()
        with pytest.raises(ValueError, match=r"nu0 must be \(k, M\) = \(2, 32\)"):
            rate_G(flux.densities, nu0[:, :-1], self.grid, self.kernel, self.rates, 1.0)
        narrow = {c: p[:, :-1] for c, p in flux.densities.items()}
        with pytest.raises(ValueError, match=r"\(n_t, M\) = \(101, 32\)"):
            rate_G(narrow, nu0, self.grid, self.kernel, self.rates, 1.0)
        path = np.full((5, self.grid.M - 1), 0.5)
        with pytest.raises(ValueError, match=r"\(n_t, M\) with M = 32"):
            sis_action(path, self.params, self.kernel, self.grid, 1.0)

    @pytest.mark.parametrize("n_t", [2 * _CHUNK, 2 * _CHUNK + 45])
    def test_infinity_marker_across_chunk_boundaries(self, n_t):
        # J == 0 and no infected mass: both channels have zero intensity,
        # so a flux cell is infinite wherever it is positive; the fluxes are
        # small enough that the occupation stays inside [0, 1]
        def marker(dead_si, dead_is):
            p = {("S", "I"): np.zeros((n_t, self.grid.M)), ("I", "S"): np.zeros((n_t, self.grid.M))}
            for chan, cells in ((("S", "I"), dead_si), (("I", "S"), dead_is)):
                for n, i in cells:
                    p[chan][n, i] = 1e-9
            nu0 = np.vstack([np.ones(self.grid.M), np.zeros(self.grid.M)])
            val = rate_G(p, nu0, self.grid, constant_kernel(0.0), self.rates, 1.0)
            assert not val.finite
            return val.where

        b = _CHUNK
        # the earlier slice wins over the earlier channel, on either side of the boundary
        assert marker([(b, 3)], [(b - 1, 5)]) == (("I", "S"), b - 1, 5)
        assert marker([(b - 1, 9)], [(b, 2)]) == (("S", "I"), b - 1, 9)
        # in one slice, the first channel, then the first node
        assert marker([(b, 20), (b, 4)], [(b, 1)]) == (("S", "I"), b, 4)
        # the last, partial chunk
        assert marker([(n_t - 1, 6)], [(n_t - 2, 30)]) == (("I", "S"), n_t - 2, 30)

    def test_occupation_reconstruction_in_cumsum_order(self):
        rng = np.random.default_rng(8)
        tt = np.cumsum(rng.uniform(0.01, 0.02, 300))
        p = {("S", "I"): rng.uniform(0.0, 1.0, (300, 16)), ("I", "S"): rng.uniform(0.0, 1.0, (300, 16))}
        nu0 = rng.uniform(0.0, 1.0, (2, 16))
        rate = np.zeros((300, 2, 16))
        rate[:, 1] += p[("S", "I")]
        rate[:, 0] -= p[("S", "I")]
        rate[:, 0] += p[("I", "S")]
        rate[:, 1] -= p[("I", "S")]
        want = np.empty((300, 2, 16))
        want[0] = nu0
        np.cumsum(0.5 * np.diff(tt)[:, None, None] * (rate[1:] + rate[:-1]), axis=0, out=want[1:])
        want[1:] += nu0
        assert np.array_equal(reconstruct_occupation(p, nu0, ("S", "I"), tt), want)

    def test_occupation_reconstruction(self):
        tt = np.linspace(0, 1, 11)
        p_si = np.tile(0.3 * np.ones(4), (11, 1))
        p_is = np.tile(0.1 * np.ones(4), (11, 1))
        nu0 = np.vstack([np.full(4, 0.5), np.full(4, 0.5)])
        nu = reconstruct_occupation({("S", "I"): p_si, ("I", "S"): p_is},
                                    nu0, ("S", "I"), tt)
        # net S drain 0.2 per unit time
        assert np.allclose(nu[-1, 0], 0.3)
        assert np.allclose(nu[-1, 1], 0.7)


class TestContracted:
    def test_two_state_equals_lagrangian(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            s = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.2, 3.0)
            sdot = rng.uniform(-2.0, 2.0)
            lam_mat = np.array([[0.0, lam], [alpha * (1.0 - s), 0.0]])
            r = np.array([sdot, -sdot])
            val = contracted_node_value(r, lam_mat)
            ref = sis_lagrangian(sdot, s, lam, alpha)
            assert val == pytest.approx(ref, abs=1e-10)

    def test_zero_rate_zero_cost(self):
        # q = lam is feasible for r = 0 when the intensities are flow
        # balanced (per-state in-sum equals out-sum); then the infimum is 0
        lam_mat = np.array([[0.0, 0.8, 0.3], [0.8, 0.0, 1.1], [0.3, 1.1, 0.0]])
        val = contracted_node_value(np.zeros(3), lam_mat)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_unbalanced_positive(self):
        # unbalanced intensities cannot carry q = lam at r = 0; cost > 0
        lam_mat = np.array([[0.0, 0.8, 0.3], [0.5, 0.0, 1.1], [0.2, 0.9, 0.0]])
        assert contracted_node_value(np.zeros(3), lam_mat) > 1e-3

    def test_three_state_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            lam_mat = rng.uniform(0.2, 2.0, size=(3, 3))
            np.fill_diagonal(lam_mat, 0.0)
            q = rng.uniform(0.0, 1.5, size=(3, 3))
            np.fill_diagonal(q, 0.0)
            r = q.sum(axis=0) - q.sum(axis=1)  # feasible by construction
            val = contracted_node_value(r, lam_mat)
            ref = contracted_node_bruteforce(r, lam_mat)
            assert val == pytest.approx(ref, abs=1e-4)

    def test_infeasible_rejected(self):
        lam_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InfeasibleRateError):
            contracted_node_value(np.array([1.0, 1.0]), lam_mat)

    def test_grid_level_quadrature(self):
        grid = circle_grid(8)
        params = SisParams(beta=2.0, alpha=1.0)
        rates = sis_rates(params)
        kernel = constant_kernel(1.0)
        s = 0.5 + 0.2 * np.cos(grid.nodes)
        nu = np.vstack([s, 1 - s])
        lam_t = channel_intensities(rates, grid, nu, kernel=kernel)
        sdot = 0.1 * np.sin(grid.nodes)
        r = np.vstack([sdot, -sdot])
        total = contracted_L(r, lam_t, grid)
        K = kernel_matrix(kernel.kernel, grid)
        lam = sis_lambda_field(s, grid, K, params.beta)
        ref = float(sis_lagrangian(sdot, s, lam, params.alpha) @ grid.kappa_weights)
        assert total == pytest.approx(ref, rel=1e-9)
