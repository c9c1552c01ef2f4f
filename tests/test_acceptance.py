"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria A1 and A6 are
the heavy ones (stochastic N-sweep and the full path optimization); the
whole module is budgeted well inside its stated runtime limits.
"""

import time

import numpy as np
import pytest

from graphonldp.core_model import ConstantRates, SisParams, StateSpace, sis_rates
from graphonldp.graphon import (
    constant_kernel,
    cosine_kernel,
    density_from_degree_exponent,
    sample_network,
    small_world_kernel,
)
from graphonldp.meanfield import circle_grid, endemic_equilibrium, evolve, kernel_matrix
from graphonldp.rate_function import (
    contracted_node_value,
    ell,
    poisson_tail_log_prob,
    rate_G,
    sis_A,
    sis_action,
    sis_lagrangian,
    sis_lagrangian_bruteforce,
    sis_lambda_field,
)
from graphonldp.simulator import extract_flux, occupation_at, simulate
from graphonldp.action_path import (
    ActionOptions,
    PathProblem,
    discrete_action,
    el_operators,
    el_residual,
    minimize_action,
)
from graphonldp.cli import compare_deviations, load_config

from oracles import contracted_node_bruteforce

PARAMS = SisParams(beta=2.0, alpha=1.0)


def report(tag, detail):
    print(f"\n{tag} PASS: {detail}")


def test_A1_meanfield_convergence():
    """Binned empirical occupation tracks the limiting density, improving in N."""
    t0 = time.time()
    cfg = load_config(None, [
        "model.beta=2.0", "model.alpha=1.0", "model.init=cosine:0.3,0.15",
        "graphon.family=inhomogeneous-circle", "graphon.base=1.0",
        "graphon.amplitude=0.5", "graphon.phi_exponent=0.7",
        "grid.M=64", "grid.T=5.0", "grid.steps=2000",
        "run.replicas=20", "run.seed=7", "compare.snapshots=26",
    ])
    sweep = (500, 1000, 2000)
    medians = {N: med for N, (med, _) in zip(sweep, compare_deviations(cfg, sweep, seed=7))}
    elapsed = time.time() - t0
    assert medians[500] > medians[1000] > medians[2000], medians
    assert medians[2000] <= 0.06
    assert elapsed <= 600.0
    report("A1", f"median sup-bin deviation {medians[500]:.4f} > {medians[1000]:.4f} "
                 f"> {medians[2000]:.4f} <= 0.06 ({elapsed:.0f}s)")


def test_A2_closed_form_lagrangian_vs_convex_oracle():
    """Closed form equals the golden-section oracle; the root equation holds."""
    t0 = time.time()
    rng = np.random.default_rng(1234)
    n = 10_000
    alpha = rng.uniform(0.1, 3.0, n)
    s = rng.uniform(0.02, 0.98, n)
    target = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))  # alpha lam (1-s)
    lam = target / (alpha * (1.0 - s))
    sdot = rng.uniform(-3.0, 3.0, n)

    closed = sis_lagrangian(sdot, s, lam, alpha)
    oracle = sis_lagrangian_bruteforce(sdot, s, lam, alpha)
    gap = float(np.max(np.abs(closed - oracle)))
    assert gap <= 1e-8

    a = sis_A(sdot, s, lam, alpha)
    quad = np.max(np.abs(a * (sdot + a) - target) / (1.0 + target))
    assert quad <= 1e-12
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    report("A2", f"oracle gap {gap:.2e} <= 1e-8, quadratic defect {quad:.2e} "
                 f"<= 1e-12 over {n} tuples ({elapsed:.1f}s)")


def test_A3_rate_function_zero_set():
    """Rate functionals vanish on the limiting dynamics, at quadrature order."""
    spec = cosine_kernel(1.0, 0.5)
    rates = sis_rates(PARAMS)
    T = 2.0
    vals = {}
    for M, steps in ((64, 2000), (128, 4000)):
        grid = circle_grid(M)
        s0 = 0.7 + 0.15 * np.cos(grid.nodes)
        nu0 = np.vstack([s0, 1 - s0])
        dens, flux = evolve(grid, spec, rates, nu0, T, dt=T / steps)
        g = rate_G(flux.densities, nu0, grid, spec, rates, T, times=flux.times)
        act = sis_action(dens.state("S"), PARAMS, spec, grid, T)
        assert g.finite and act.finite
        vals[(M, steps)] = (float(g), float(act))
    g0, a0 = vals[(64, 2000)]
    g1, a1 = vals[(128, 4000)]
    assert g0 <= 1e-4 and a0 <= 1e-4
    assert g0 / g1 >= 4.0 and a0 / a1 >= 4.0
    report("A3", f"rate_G {g0:.2e} -> {g1:.2e} (x{g0 / g1:.1f}), "
                 f"sis_action {a0:.2e} -> {a1:.2e} (x{a0 / a1:.1f})")


def test_A4_exact_poisson_tail_slope():
    """N^-1 log P(count/N >= a) converges to -ell(a) for unit-rate Poisson."""
    t0 = time.time()
    a = 1.2
    limit = -ell(a)
    assert limit == pytest.approx(-0.0187858681527455, abs=1e-12)
    gaps = []
    for N in (250, 500, 1000, 2000):
        k = int(np.ceil(a * N - 1e-12))
        slope = poisson_tail_log_prob(k, float(N)) / N
        gaps.append(abs(slope - limit))
    elapsed = time.time() - t0
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[-1] <= 2e-3
    assert elapsed <= 1.0
    report("A4", f"slope gaps {['%.2e' % g for g in gaps]}, final <= 2e-3 "
                 f"({elapsed:.2f}s)")


def _fd_dL(sdot, s, lam, alpha, h=1e-6):
    return (sis_lagrangian(sdot + h, s, lam, alpha)
            - sis_lagrangian(sdot - h, s, lam, alpha)) / (2.0 * h)


def _fd_d2L(sdot, s, lam, alpha, h=1e-4):
    return (sis_lagrangian(sdot + h, s, lam, alpha)
            - 2.0 * sis_lagrangian(sdot, s, lam, alpha)
            + sis_lagrangian(sdot - h, s, lam, alpha)) / (h * h)


def _fd_M(sdot, s, lam, alpha, h=1e-6):
    return (sis_lagrangian(sdot, s, lam + h, alpha)
            - sis_lagrangian(sdot, s, np.maximum(lam - h, 1e-12), alpha)) / (lam + h - np.maximum(lam - h, 1e-12))


def _fd_N(sdot, s, lam, alpha, h=1e-7):
    return (sis_lagrangian(sdot, s + h, lam, alpha)
            - sis_lagrangian(sdot, s - h, lam, alpha)) / (2.0 * h)


def test_A5_derivative_oracles():
    """Every analytic derivative matches its finite-difference oracle."""
    t0 = time.time()
    from graphonldp.action_path import _pointwise

    rng = np.random.default_rng(77)
    n = 1000
    sdot = rng.uniform(-2.0, 2.0, n)
    s = rng.uniform(0.08, 0.92, n)
    lam = rng.uniform(0.08, 3.0, n)
    alpha = rng.uniform(0.2, 3.0, n)

    def relmax(x, y):
        return float(np.max(np.abs(x - y) / (1.0 + np.abs(y))))

    pw = _pointwise(sdot, s, lam, alpha)
    dA, d2A, dL, d2L, Mf, Nf = pw.dA, pw.d2A, pw.dL, pw.d2L, pw.M, pw.N
    h = 1e-6
    checks = {
        "dA/dsdot": relmax(dA, (sis_A(sdot + h, s, lam, alpha)
                                - sis_A(sdot - h, s, lam, alpha)) / (2 * h)),
        "d2A/dsdot2": relmax(d2A, (sis_A(sdot + 1e-4, s, lam, alpha)
                                   - 2 * sis_A(sdot, s, lam, alpha)
                                   + sis_A(sdot - 1e-4, s, lam, alpha)) / 1e-8),
        "dL/dsdot": relmax(dL, _fd_dL(sdot, s, lam, alpha)),
        "d2L/dsdot2": relmax(d2L, _fd_d2L(sdot, s, lam, alpha)),
        "M": relmax(Mf, _fd_M(sdot, s, lam, alpha)),
        "N": relmax(Nf, _fd_N(sdot, s, lam, alpha)),
    }

    # nonlocal operators on random grid configurations
    grid = circle_grid(32)
    kernel = cosine_kernel(1.0, 0.5)
    K = kernel_matrix(kernel.kernel, grid)
    worst_G = worst_O = 0.0
    eps = 1e-6
    for trial in range(40):
        sg = np.clip(0.5 + 0.25 * np.cos(grid.nodes + rng.uniform(0, 7))
                     + 0.05 * rng.standard_normal(grid.M), 0.08, 0.92)
        vg = 0.5 * np.sin(grid.nodes + rng.uniform(0, 7)) + rng.uniform(-0.3, 0.3)
        ff = el_operators(vg, sg, PARAMS, kernel, grid)
        x = rng.uniform(0.2, 1.0) * np.cos(grid.nodes + rng.uniform(0, 7)) + rng.uniform(-0.5, 0.5)

        def total(field):
            lamf = sis_lambda_field(field, grid, K, PARAMS.beta)
            return float(sis_lagrangian(vg, field, lamf, PARAMS.alpha) @ grid.kappa_weights)

        fd = (total(sg + eps * x) - total(sg - eps * x)) / (2 * eps)
        an = float((x * ff.G_field) @ grid.kappa_weights)
        worst_G = max(worst_G, abs(fd - an) / (1.0 + abs(an)))

        def dl(field):
            return el_operators(vg, field, PARAMS, kernel, grid).dL_dsdot

        fdO = (dl(sg + eps * vg) - dl(sg - eps * vg)) / (2 * eps)
        worst_O = max(worst_O, float(np.max(np.abs(fdO - ff.O_field)
                                            / (1.0 + np.abs(ff.O_field)))))
    checks["G (directional)"] = worst_G
    checks["O (eps-shift of dL/dsdot)"] = worst_O

    elapsed = time.time() - t0
    for name, err in checks.items():
        assert err <= 1e-4, (name, err)
    assert elapsed <= 30.0
    worst = max(checks.values())
    report("A5", f"worst oracle mismatch {worst:.2e} <= 1e-4 across "
                 f"{len(checks)} formulas ({elapsed:.1f}s)")


def test_A6_minimum_action_stationarity():
    """Equilibrium-to-bump optimization satisfies the stationarity equation."""
    t0 = time.time()
    grid = circle_grid(64)
    kernel = constant_kernel(1.0)
    T, K = 2.0, 200
    eq = endemic_equilibrium(grid, kernel, PARAMS.beta, PARAMS.alpha)
    d = np.abs(grid.nodes - np.pi)
    d = np.minimum(d, 2 * np.pi - d)
    target = eq - 0.2 * np.exp(-0.5 * (d / 0.8) ** 2)

    # coarse solve -> warm start, then the stated problem and its refinement
    coarse = PathProblem(s0=eq, sT=target, horizon=T, K=50)
    warm = minimize_action(coarse, PARAMS, kernel, grid,
                           ActionOptions(tol_grad=1e-7))
    tt50 = np.linspace(0, T, 51)

    def lift(path, K_new):
        tt_new = np.linspace(0, T, K_new + 1)
        tt_old = np.linspace(0, T, path.shape[0])
        out = np.empty((K_new + 1, grid.M))
        for i in range(grid.M):
            out[:, i] = np.interp(tt_new, tt_old, path[:, i])
        return out

    prob = PathProblem(s0=eq, sT=target, horizon=T, K=K)
    res = minimize_action(prob, PARAMS, kernel, grid,
                          ActionOptions(tol_grad=3e-9, initial_path=lift(warm.path, K)))
    tol_criterion = 1e-6 * max(1.0, abs(res.action))
    assert res.diagnostics["grad_norm"] <= tol_criterion

    # strict convexity along the converged path
    dt = T / K
    sdotp = np.gradient(res.path, dt, axis=0)
    for n in range(1, K):
        ops = el_operators(sdotp[n], res.path[n], PARAMS, kernel, grid)
        assert np.all(ops.d2L_dsdot2 > 0)

    # analytic gradient against central differences, away from the optimum
    rng = np.random.default_rng(5)
    probe = prob.initial_path() + 0.02 * rng.standard_normal((K + 1, grid.M))
    probe[0], probe[-1] = eq, target
    _, gan = discrete_action(probe, PARAMS, kernel, grid, T, with_grad=True)
    worst_fd = 0.0
    for _ in range(3):
        v = rng.standard_normal(gan.shape)
        h = 1e-6
        p1, p2 = probe.copy(), probe.copy()
        p1[1:-1] += h * v
        p2[1:-1] -= h * v
        fd = (discrete_action(p1, PARAMS, kernel, grid, T)
              - discrete_action(p2, PARAMS, kernel, grid, T)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - float(np.sum(gan * v))) / abs(fd))
    assert worst_fd <= 1e-5

    # EL residual against a grid-refinement error estimate (Richardson, p=2)
    R_200 = float(np.nanmax(np.abs(el_residual(res.path, PARAMS, kernel, grid, T))))
    fine = PathProblem(s0=eq, sT=target, horizon=T, K=2 * K)
    res_fine = minimize_action(fine, PARAMS, kernel, grid,
                               ActionOptions(tol_grad=3e-9, initial_path=lift(res.path, 2 * K)))
    R_400 = float(np.nanmax(np.abs(el_residual(res_fine.path, PARAMS, kernel, grid, T))))
    estimate = (4.0 / 3.0) * abs(R_200 - R_400)
    assert R_200 <= 10.0 * estimate

    elapsed = time.time() - t0
    assert elapsed <= 300.0
    report("A6", f"action {res.action:.6f}, grad {res.diagnostics['grad_norm']:.1e} "
                 f"<= {tol_criterion:.1e}, residual {R_200:.2e} <= 10 x {estimate:.2e}, "
                 f"FD gap {worst_fd:.1e} ({elapsed:.0f}s)")


def test_A7_flux_occupation_conservation():
    """The conservation identity holds exactly on trajectories, and to
    integrator order for the limiting solver."""
    suite = []
    rates2 = sis_rates(PARAMS)
    for spec, dens_exp, seeds in (
        (constant_kernel(1.0), 0.7, (0, 1)),
        (cosine_kernel(1.0, 0.5), 0.7, (2, 3)),
        (small_world_kernel(1.5, 0.1, 0.6), 0.7, (4,)),
    ):
        N = 400
        net = sample_network(spec, N, density_from_degree_exponent(N, dens_exp), seed=9)
        rng = np.random.default_rng(50)
        init = rng.integers(0, 2, N)
        for sd in seeds:
            suite.append(simulate(net, rates2, init, 3.0, seed=sd))
    # a three-state run through the generic machinery
    abc = StateSpace(("a", "b", "c"))
    net3 = sample_network(constant_kernel(1.0), 150, 0.3, seed=1)
    init3 = np.arange(150) % 3
    suite.append(simulate(net3, ConstantRates(abc, 0.8), init3, 2.0, seed=6))

    checked = 0
    rng = np.random.default_rng(0)
    for traj in suite:
        flux = extract_flux(traj)
        k = len(traj.labels)
        for bins in (1, 8, 64):
            for t in np.append(rng.uniform(0, traj.horizon, 3), traj.horizon):
                occ_t = occupation_at(traj, t, bins)
                occ_0 = occupation_at(traj, 0.0, bins)
                for a in range(k):
                    la = traj.labels[a]
                    net_in = np.zeros(bins, dtype=np.int64)
                    for b in range(k):
                        if a == b:
                            continue
                        lb = traj.labels[b]
                        net_in += flux.channel_counts(lb, la, bins, t_hi=t)
                        net_in -= flux.channel_counts(la, lb, bins, t_hi=t)
                    assert np.array_equal(occ_t.counts[a] - occ_0.counts[a], net_in)
                    checked += 1

    # continuum side: recorded fluxes integrate to the density increments
    grid = circle_grid(32)
    spec = cosine_kernel(1.0, 0.5)
    s0 = 0.6 + 0.2 * np.cos(grid.nodes)
    dt = 1e-3
    dens, flux = evolve(grid, spec, rates2, np.vstack([s0, 1 - s0]), 1.0, dt=dt)
    net_in_S = flux.densities[("I", "S")] - flux.densities[("S", "I")]
    integral = 0.5 * dt * (net_in_S[1:] + net_in_S[:-1]).cumsum(axis=0)
    increment = dens.state("S")[1:] - dens.state("S")[0][None, :]
    cont_gap = float(np.max(np.abs(integral - increment)))
    assert cont_gap <= 1e-6  # trapezoid of RK4 samples: O(dt^2)
    report("A7", f"{checked} integer identities exact over {len(suite)} trajectories; "
                 f"continuum defect {cont_gap:.1e} <= 1e-6")


def test_A8_contracted_rate_function_reduction():
    """The contracted convex program reduces to the SIS Lagrangian on two
    states and matches brute-force search on three."""
    rng = np.random.default_rng(11)
    worst2 = 0.0
    for _ in range(200):
        s = rng.uniform(0.05, 0.95)
        lam = rng.uniform(0.05, 3.0)
        alpha = rng.uniform(0.2, 3.0)
        sdot = rng.uniform(-2.0, 2.0)
        lam_mat = np.array([[0.0, lam], [alpha * (1.0 - s), 0.0]])
        val = contracted_node_value(np.array([sdot, -sdot]), lam_mat)
        worst2 = max(worst2, abs(val - sis_lagrangian(sdot, s, lam, alpha)))
    assert worst2 <= 1e-10

    worst3 = 0.0
    for _ in range(10):
        lam_mat = rng.uniform(0.2, 2.0, size=(3, 3))
        np.fill_diagonal(lam_mat, 0.0)
        q = rng.uniform(0.0, 1.5, size=(3, 3))
        np.fill_diagonal(q, 0.0)
        r = q.sum(axis=0) - q.sum(axis=1)
        val = contracted_node_value(r, lam_mat)
        ref = contracted_node_bruteforce(r, lam_mat)
        worst3 = max(worst3, abs(val - ref))
    assert worst3 <= 1e-4
    report("A8", f"2-state gap {worst2:.1e} <= 1e-10; 3-state vs brute force "
                 f"{worst3:.1e} <= 1e-4")


def _complete_graph_log_prob(N, n0, nT, T):
    """log P(I_T = nT | I_0 = n0) of the SIS infected count on the complete
    graph, the birth-death chain with rates (N - n) beta n / N up and alpha n
    down, by uniformization: every term is non-negative, so a probability
    near e^-170 keeps its relative accuracy."""
    from scipy.stats import poisson

    n = np.arange(N + 1.0)
    up, down = (N - n) * PARAMS.beta * n / N, PARAMS.alpha * n
    rate = np.max(up + down)
    stay, up, down = 1.0 - (up + down) / rate, up / rate, down / rate
    mu = rate * T
    # the Poisson tail past mu + 40 sqrt(mu) is below e^-600
    weights = poisson.pmf(np.arange(int(mu + 40.0 * np.sqrt(mu))), mu)
    p = np.zeros(N + 1)
    p[n0] = 1.0
    total = 0.0
    for w in weights:
        total += w * p[nT]
        q = stay * p
        q[1:] += up[:-1] * p[:-1]
        q[:-1] += down[1:] * p[1:]
        p = q
    return np.log(total)


def test_A9_complete_graph_exponent():
    """The minimum action is the decay rate of the finite-N probabilities:
    on the complete graph, -log P(I_T = n_T) / N fitted in N meets the
    Richardson-extrapolated minimum action."""
    t0 = time.time()
    kernel = constant_kernel(1.0)
    assert len(sample_network(kernel, 800, 1.0, seed=0).rows) == 800 * 799  # complete
    grid = circle_grid(4)
    gaps = []
    for s0, sT, T in ((0.5, 0.7, 2.0), (0.5, 0.8, 1.0), (0.5, 0.3, 2.0)):
        # -log P / N - ln N / (2N) = S + c / N on N = 800, 1600, where both
        # endpoints are lattice points; ln N / (2N) is the local-limit prefactor
        y = [-_complete_graph_log_prob(N, round(N * (1 - s0)), round(N * (1 - sT)), T) / N
             - np.log(N) / (2 * N) for N in (800, 1600)]
        fit = 2.0 * y[1] - y[0]
        solves = [minimize_action(PathProblem(s0=np.full(grid.M, s0), sT=np.full(grid.M, sT),
                                              horizon=T, K=K), PARAMS, kernel, grid)
                  for K in (400, 800)]
        assert all(r.diagnostics["converged"] for r in solves)
        action = (4.0 * solves[1].action - solves[0].action) / 3.0  # error O(dt^2)
        gaps.append(fit - action)
    elapsed = time.time() - t0
    assert max(abs(g) for g in gaps) <= 1e-5, gaps
    assert elapsed <= 10.0
    report("A9", "fitted exponent - minimum action "
                 + ", ".join(f"{g:+.2e}" for g in gaps) + f" within 1e-5 ({elapsed:.1f}s)")


#: The coupling of the two-block chain: K[a, b] from block b into block a.
TWO_BLOCK = np.array([[1.4, 0.2], [0.5, 0.8]])


def _two_block_log_prob(N, n0, nT, T):
    """log P(I_T = nT | I_0 = n0) of the infected counts (n_1, n_2) of two
    blocks of N / 2 nodes, the SIS chain on the M = 2 grid: a susceptible
    node of block a is infected at rate beta (K_a1 n_1 + K_a2 n_2) / N with
    K = TWO_BLOCK, and an infected node recovers at rate alpha.  By
    uniformization, as on the complete graph."""
    from scipy.stats import poisson

    n1, n2 = np.meshgrid(np.arange(N // 2 + 1.0), np.arange(N // 2 + 1.0), indexing="ij")
    up1 = (N // 2 - n1) * PARAMS.beta * (TWO_BLOCK[0, 0] * n1 + TWO_BLOCK[0, 1] * n2) / N
    up2 = (N // 2 - n2) * PARAMS.beta * (TWO_BLOCK[1, 0] * n1 + TWO_BLOCK[1, 1] * n2) / N
    down1, down2 = PARAMS.alpha * n1, PARAMS.alpha * n2
    out = up1 + up2 + down1 + down2
    rate = np.max(out)
    stay, up1, up2, down1, down2 = (x / rate for x in (rate - out, up1, up2, down1, down2))
    mu = rate * T
    # the Poisson tail past mu + 40 sqrt(mu) is below e^-600
    weights = poisson.pmf(np.arange(int(mu + 40.0 * np.sqrt(mu))), mu)
    p = np.zeros_like(n1)
    p[n0] = 1.0
    total = 0.0
    for w in weights:
        total += w * p[nT]
        q = stay * p
        q[1:] += up1[:-1] * p[:-1]
        q[:, 1:] += up2[:, :-1] * p[:, :-1]
        q[:-1] += down1[1:] * p[1:]
        q[:, :-1] += down2[:, 1:] * p[:, 1:]
        p = q
    return np.log(total)


def test_A9_two_block_exponent():
    """A9's spatial half: on two blocks coupled by the asymmetric kernel
    TWO_BLOCK (the M = 2 grid, kappa = 1/2 each), -log P / N fitted in N
    meets the Richardson-extrapolated minimum action, so the action's
    coupling (which block's field, which side of K) meets the chain's."""
    t0 = time.time()
    grid = circle_grid(2)
    gaps = []
    for s0, sT, T in (((0.5, 0.6), (0.7, 0.4), 1.0), ((0.6, 0.5), (0.4, 0.7), 1.0),
                      ((0.4, 0.6), (0.6, 0.3), 2.0)):
        # -log P / N - ln N / N = S + c / N on N = 200, 400, where both endpoints
        # are lattice points; ln N / N is the local-limit prefactor in two dimensions
        y = []
        for N in (200, 400):
            n0, nT = (tuple(round(N // 2 * (1 - x)) for x in s) for s in (s0, sT))
            y.append(-_two_block_log_prob(N, n0, nT, T) / N - np.log(N) / N)
        fit = 2.0 * y[1] - y[0]
        solves = [minimize_action(PathProblem(s0=np.array(s0), sT=np.array(sT), horizon=T, K=K),
                                  PARAMS, TWO_BLOCK, grid)
                  for K in (400, 800)]
        assert all(r.diagnostics["converged"] for r in solves)
        action = (4.0 * solves[1].action - solves[0].action) / 3.0  # error O(dt^2)
        gaps.append(fit - action)
    elapsed = time.time() - t0
    assert max(abs(g) for g in gaps) <= 1e-4, gaps
    assert elapsed <= 10.0
    report("A9", "two-block fitted exponent - minimum action "
                 + ", ".join(f"{g:+.2e}" for g in gaps) + f" within 1e-4 ({elapsed:.1f}s)")
