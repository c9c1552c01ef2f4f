"""Correctness checks of the benchmark workloads' outputs.

Every check compares a program output with a computation made apart from
the program (an event-log replay, a closed form, a ``scipy.integrate``
solution built from the kernel formula, the golden-section Lagrangian
oracle), or with a property the method must have (integer conservation,
per-site normalization, stationarity).  No check compares against a stored
copy of an earlier output.

Each check function returns a list of ``(name, ok, detail)`` triples.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from graphonldp.rate_function import sis_lagrangian_bruteforce

TWO_PI = 2.0 * np.pi


def _result(name, ok, detail):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# kernels written out from their formulas, apart from graphonldp.graphon

def circle_distance(x, y):
    d = np.abs(x - y) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def cosine_kernel(base, amplitude):
    return lambda x, y: base + amplitude * np.cos(x - y)


def small_world_kernel(high, low, cutoff):
    return lambda x, y: np.where(circle_distance(x, y) <= cutoff, high, low)


def sis_reference(kernel, M, beta, alpha, s0, t_eval):
    """Scalar SIS equation on the uniform M-node circle grid, by DOP853.

    ds/dt = -beta s K[1-s] + alpha (1-s) with K[f](x) = mean_z J(x, z) f(z),
    integrated together with the cumulative channel fluxes
    F_SI = int beta s K[1-s] dt and F_IS = int alpha (1-s) dt.
    Returns (s, F_SI, F_IS), each (len(t_eval), M).
    """
    x = TWO_PI * np.arange(M) / M
    Kq = np.asarray(kernel(x[:, None], x[None, :]), dtype=float) / M

    def rhs(_, y):
        s = y[:M]
        inf = beta * s * (Kq @ (1.0 - s))
        rec = alpha * (1.0 - s)
        return np.concatenate([rec - inf, inf, rec])

    y0 = np.concatenate([np.asarray(s0, dtype=float), np.zeros(2 * M)])
    sol = solve_ivp(rhs, (0.0, float(t_eval[-1])), y0, method="DOP853",
                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y.T
    return y[:, :M], y[:, M:2 * M], y[:, 2 * M:]


# ---------------------------------------------------------------------------
# epidemic_sparse

def replay_states(traj, t):
    """Configuration at time t by last write per node (events at t count)."""
    upto = int(np.searchsorted(traj.times, t, side="right"))
    last = np.full(traj.N, -1, dtype=np.int64)
    np.maximum.at(last, traj.nodes[:upto], np.arange(upto))
    return np.where(last >= 0, traj.to_codes[np.maximum(last, 0)], traj.initial)


def check_epidemic(cfg, traj, flux, occupations, snapshots, reference):
    """Checks of one replica.

    ``occupations`` are the program's replays at ``snapshots``;
    ``reference`` is (s, F_SI, F_IS) from :func:`sis_reference` on a
    ``cfg.bins``-node grid at the same snapshot times.
    """
    out = []
    bins = cfg.bins
    N = traj.N
    k = len(traj.labels)

    # the log is a jump chain: each event leaves the state its node is in
    state = traj.initial.copy()
    bad = -1
    for i, (j, a, b) in enumerate(zip(traj.nodes.tolist(), traj.from_codes.tolist(),
                                      traj.to_codes.tolist())):
        if state[j] != a or a == b:
            bad = i
            break
        state[j] = b
    ordered = bool(np.all(np.diff(traj.times) > 0)) and (
        len(traj.times) == 0 or (traj.times[0] > 0 and traj.times[-1] <= traj.horizon))
    detail = (f"event {bad} does not leave its node's state" if bad >= 0 else
              "ok" if ordered else "event times not increasing inside (0, T]")
    out.append(_result("event_log_is_jump_chain", bad < 0 and ordered, detail))

    idx = np.minimum((traj.positions / (TWO_PI / bins)).astype(np.int64), bins - 1)
    init_counts = np.zeros((k, bins), dtype=np.int64)
    np.add.at(init_counts, (traj.initial, idx), 1)
    replay_ok = conserve_ok = True
    worst = 0.0
    s_ref = reference[0]
    for n, (t, occ) in enumerate(zip(snapshots, occupations)):
        mine = np.zeros((k, bins), dtype=np.int64)
        np.add.at(mine, (replay_states(traj, t), idx), 1)
        replay_ok &= bool(np.array_equal(mine, occ.counts))
        # A7: occupation = initial + inflow - outflow, in integers
        pred = init_counts.copy()
        for a in range(k):
            for b in range(k):
                if a != b:
                    c = flux.channel_counts(traj.labels[a], traj.labels[b], bins, t_hi=t)
                    pred[b] += c
                    pred[a] -= c
        conserve_ok &= bool(np.array_equal(pred, occ.counts))
        nu = np.stack([s_ref[n], 1.0 - s_ref[n]])
        masses = 0.5 * (nu + np.roll(nu, -1, axis=1)) / bins
        worst = max(worst, float(np.max(np.abs(occ.counts / N - masses))))
    out.append(_result("replay_equals_last_write", replay_ok,
                       f"{len(snapshots)} snapshots"))
    out.append(_result("flux_occupation_conservation", conserve_ok,
                       f"{len(snapshots)} snapshots x {k * bins} cells, integer-exact"))
    out.append(_result("sup_deviation_from_meanfield", worst <= cfg.sup_deviation,
                       f"{worst:.5f} <= {cfg.sup_deviation}"))

    for (a, b), F in (((0, 1), reference[1]), ((1, 0), reference[2])):
        la, lb = traj.labels[a], traj.labels[b]
        got = flux.channel_mass(la, lb)
        want = float(F[-1].mean())
        rel = abs(got - want) / want
        out.append(_result(f"channel_mass_{la}{lb}", rel <= cfg.channel_rel_tol,
                           f"{got:.4f} vs mean-field {want:.4f} "
                           f"(rel {rel:.4f} <= {cfg.channel_rel_tol})"))
    return out


# ---------------------------------------------------------------------------
# continuum_fine

def check_continuum(cfg, s_eq, nu0, dens, flux, rate_g, action):
    """Checks of the fine-grid equilibrium, density path, flux and rates."""
    out = []
    M, beta, alpha = cfg.M, cfg.beta, cfg.alpha
    kernel = small_world_kernel(cfg.high, cfg.low, cfg.cutoff)
    x = TWO_PI * np.arange(M) / M
    Kq = np.asarray(kernel(x[:, None], x[None, :]), dtype=float) / M

    c = Kq.sum(axis=1)
    err = float(np.max(np.abs(s_eq - alpha / (beta * c))))
    out.append(_result("equilibrium_closed_form", err <= cfg.tol_exact,
                       f"|s - alpha/(beta c)| = {err:.2e} <= {cfg.tol_exact}"))

    times = dens.times
    s_ref, _, _ = sis_reference(kernel, M, beta, alpha, nu0[0], times[[0, -1]])
    err = float(np.max(np.abs(dens.state("S")[-1] - s_ref[-1])))
    out.append(_result("final_density_vs_solve_ivp", err <= cfg.tol_exact,
                       f"{err:.2e} <= {cfg.tol_exact}"))

    drift = float(np.max(np.abs(dens.values.sum(axis=1) - 1.0)))
    out.append(_result("per_site_normalization", drift <= cfg.tol_exact,
                       f"{drift:.2e} <= {cfg.tol_exact}"))

    # p_{S->I} = beta w_I S and p_{I->S} = alpha I at every recorded time
    S, I = dens.state("S"), dens.state("I")
    want = {("S", "I"): beta * S * (I @ Kq.T), ("I", "S"): alpha * I}
    err = max(float(np.max(np.abs(flux.densities[ch] - w))) for ch, w in want.items())
    out.append(_result("flux_equals_rate_times_density", err <= cfg.tol_exact,
                       f"{err:.2e} <= {cfg.tol_exact}"))

    for name, val in (("rate_G_zero_on_meanfield", rate_g),
                      ("sis_action_zero_on_meanfield", action)):
        v = float(val)
        out.append(_result(name, np.isfinite(v) and abs(v) <= cfg.tol_rate,
                           f"{v:.2e} <= {cfg.tol_rate}"))
    return out


# ---------------------------------------------------------------------------
# action_solve

def oracle_action(path, cfg):
    """The interval-trapezoid discrete action with L from the golden-section
    oracle and the infection intensity from the kernel formula."""
    path = np.asarray(path, dtype=float)
    n_t, M = path.shape
    dt = cfg.horizon / (n_t - 1)
    x = TWO_PI * np.arange(M) / M
    Kq = np.asarray(cosine_kernel(cfg.base, cfg.amplitude)(x[:, None], x[None, :])) / M
    lam = cfg.beta * path * ((1.0 - path) @ Kq.T)
    v = (path[1:] - path[:-1]) / dt
    L_lo = sis_lagrangian_bruteforce(v, path[:-1], lam[:-1], cfg.alpha)
    L_hi = sis_lagrangian_bruteforce(v, path[1:], lam[1:], cfg.alpha)
    return float(0.5 * dt * (L_lo + L_hi).mean(axis=1).sum())


def check_action(cfg, problem, result):
    """Checks of one minimum-action solve."""
    out = []
    d = result.diagnostics
    out.append(_result("grad_norm_within_tol", d["grad_norm"] <= d["grad_tol"],
                       f"{d['grad_norm']:.3e} <= {d['grad_tol']:.3e}"))
    pinned = (np.array_equal(result.path[0], problem.s0)
              and np.array_equal(result.path[-1], problem.sT))
    out.append(_result("endpoints_pinned", pinned, "first and last slices"))

    mine = oracle_action(result.path, cfg)
    rel = abs(mine - result.action) / abs(mine)
    out.append(_result("action_matches_oracle", rel <= cfg.tol_action,
                       f"reported {result.action:.12g}, oracle {mine:.12g}, "
                       f"rel {rel:.1e} <= {cfg.tol_action}"))
    linear = oracle_action(problem.initial_path(), cfg)
    out.append(_result("action_below_linear_interpolant", mine < linear,
                       f"{mine:.6g} < {linear:.6g}"))
    el = d["el_residual_max"]
    out.append(_result("el_residual_bound", el <= cfg.tol_el,
                       f"{el:.3e} <= {cfg.tol_el}"))
    return out
