"""Brute-force oracles the tests compare the solvers against, the test-only
rate family, and the yardsticks no pipeline stage calls: the uncoupled rate
functional, the contracted rate function of a small state space, the
occupation a flux reconstructs, the Frechet derivative of the infection
intensity, and the theorem's network diagnostics."""

import numpy as np

from graphonldp import action_path, meanfield
from graphonldp.core_model import SIS_SPACE, ModelError, RateFamily, StateSpace, _config_codes
from graphonldp.graphon import GraphonSpec, Network
from graphonldp.rate_function import (
    _checked_fluxes,
    _occupation_stacks,
    _time_grid,
    _trapezoid,
    ell,
    ell_scaled,
)


class ConstantRates(RateFamily):
    """Toy family with one constant rate on every off-diagonal channel.

    Satisfies the two-sided bound hypothesis exactly.
    """

    def __init__(self, states: StateSpace, rate: float):
        if rate <= 0:
            raise ModelError("constant rate must be positive")
        self.states = states
        self.rate = float(rate)
        self.lower_bound = self.rate
        self.upper_bound = self.rate
        self.lipschitz = 0.0
        self.bounded_below = True

    def rate_matrix(self, theta, from_codes, w):
        n, k = len(from_codes), self.states.size
        out = np.full((n, k), self.rate)
        out[np.arange(n), from_codes] = 0.0
        return out


def local_field(node, network, config, states: StateSpace = SIS_SPACE):
    """Local field w at one node: coupling-weighted neighbour state census.

    Returns the (k,) array w_state = (N * phi_N)^-1 * sum_k J[node, k] *
    1{config[k] == state}, in the order of ``states``, where phi_N is the
    network's sparsity (edge-density) scale: an exact integer count scaled
    once, the same bits the simulator uses.  ``config`` may be integer
    codes or labels from ``states``.
    """
    if not (0 <= node < network.N):
        raise IndexError(f"node {node} out of range for N={network.N}")
    codes = _config_codes(states, config, network.N, "config")
    row = slice(network.indptr[node], network.indptr[node + 1])
    counts = np.zeros(states.size, dtype=np.int64)
    np.add.at(counts, codes[network.cols[row]], network.weights[row])
    return counts * (1.0 / (network.N * network.phi_N))


def contracted_node_bruteforce(r, lam):
    """Zooming grid search over the flux polytope; oracle for small k.

    The first nfree = k(k-1) - (k-1) channels are free grid variables; the
    remaining k-1 are derived from the conservation rows (state 0's row is
    dependent since sum(r) = 0).  A dense grid over the free block, 9 points
    per channel, is refined 14 times around the best feasible point.  Honest derivative-free search,
    independent of the dual solver.
    """
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = len(r)
    chans = [(a, b) for a in range(k) for b in range(k) if a != b]
    nfree = len(chans) - (k - 1)
    free, rem = chans[:nfree], chans[nfree:]

    def coeff_matrix(cols):
        C = np.zeros((k - 1, len(cols)))
        for ci, (x, y) in enumerate(cols):
            for zi, z in enumerate(range(1, k)):
                if y == z:
                    C[zi, ci] += 1.0
                if x == z:
                    C[zi, ci] -= 1.0
        return C

    CF, CR = coeff_matrix(free), coeff_matrix(rem)
    CR_inv = np.linalg.inv(CR)
    lam_free = np.array([lam[c] for c in free])
    lam_rem = np.array([lam[c] for c in rem])

    def values(qf):  # qf: (P, nfree)
        qr = (r[1:][None, :] - qf @ CF.T) @ CR_inv.T
        q = np.concatenate([qf, qr], axis=1)
        lv = np.concatenate([lam_free, lam_rem])
        feasible = np.all(q >= -1e-12, axis=1) & ~np.any((lv[None, :] <= 0) & (q > 0), axis=1)
        qc = np.maximum(q, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cell = np.where(lv > 0, np.where(qc == 0, 0.0, qc * np.log(qc / lv)) - qc + lv, 0.0)
        out = cell.sum(axis=1)
        return np.where(feasible, out, np.inf)

    qmax = 2.0 * (float(lam.sum()) + float(np.abs(r).sum())) + 1.0
    lo = np.zeros(nfree)
    hi = np.full(nfree, qmax)
    best_q, best_v = None, np.inf
    for _ in range(14):
        axes = [np.linspace(lo[i], hi[i], 9) for i in range(nfree)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = values(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_q = float(vals[i]), pts[i]
        span = (hi - lo) * 0.5
        lo = np.maximum(best_q - 0.5 * span, 0.0)
        hi = best_q + 0.5 * span
    return best_v


def rate_I(flux_densities, grid, T, times=None):
    """Uncoupled rate functional: sum over channels of iint ell(p) dkappa dt.

    ``flux_densities`` maps channel -> (n_t, M) nonnegative density arrays,
    n_t >= 2, M = ``grid.M``, at least one channel, sampled on a uniform time
    grid over [0, T] or at explicit ``times`` (see ``rate_function._time_grid``):
    ValueError otherwise.
    Time integration is trapezoidal; space is the grid's kappa quadrature.
    """
    fluxes, n_t = _checked_fluxes(flux_densities, grid.M)
    tt = _time_grid(times, T, n_t)
    return sum(float(_trapezoid(ell(p) @ grid.kappa_weights, tt)) for p in fluxes.values())


def reconstruct_occupation(flux_densities, nu0, labels, times):
    """Occupation densities from initial value plus net time-integrated flux.

    nu_t(a) = nu_0(a) + int_0^t sum_{b != a} (p_{b->a} - p_{a->b}) ds,
    cumulative-trapezoid in time, accumulated one slice at a time in the
    order of a cumulative sum over slices.  Returns (n_t, k, M).
    """
    nu = np.empty((len(times),) + np.shape(nu0))
    for n0, stack in _occupation_stacks(flux_densities, nu0, labels, times):
        nu[n0:n0 + len(stack)] = stack
    return nu


class InfeasibleRateError(ValueError):
    """Requested occupation rate of change violates mass conservation."""


def contracted_node_value(r, lam):
    """Minimal Poisson cost of fluxes realizing occupation change r.

    Solves   min sum_{a != b} lam_ab ell(q_ab / lam_ab)
             s.t. q >= 0,  r_z = sum_{a != z} (q_az - q_za)
    by Newton iteration on the concave dual (at most 100 steps, to a flow
    residual of 1e-12 times the problem's scale): the optimal flux is
    q_ab = lam_ab exp(u_b - u_a) for node potentials u, and the potentials
    solve the flow-matching equations.  Requires sum(r) = 0 and positive
    intensities on enough channels to make r reachable.
    """
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = len(r)
    if lam.shape != (k, k):
        raise ValueError("lam must be (k, k)")
    if np.any(lam < 0):
        raise ValueError("intensities must be nonnegative")
    scale = max(1.0, float(np.max(lam)), float(np.max(np.abs(r))))
    if abs(float(r.sum())) > 1e-9 * scale:
        raise InfeasibleRateError(f"sum of rates must vanish, got {r.sum():.3g}")
    lam = lam.copy()
    np.fill_diagonal(lam, 0.0)

    u = np.zeros(k)

    def flows(u):
        E = np.exp(u[None, :] - u[:, None])
        return lam * E  # q_ab

    for _ in range(100):
        q = flows(u)
        F = q.sum(axis=0) - q.sum(axis=1) - r  # net inflow minus target
        if np.max(np.abs(F)) <= 1e-12 * scale:
            break
        # Jacobian dF_z/du_y: diagonal q_in+q_out, off-diagonal -(q_zy+q_yz)
        Jd = q.sum(axis=0) + q.sum(axis=1)
        Jac = -(q + q.T)
        np.fill_diagonal(Jac, Jd)
        # gauge: potentials defined up to a constant; pin u_0
        try:
            step = np.linalg.solve(Jac[1:, 1:], -F[1:])
        except np.linalg.LinAlgError:
            raise InfeasibleRateError("dual system singular: r unreachable for given intensities")
        full = np.zeros(k)
        full[1:] = step
        # damped update guarding against overflow of the exponentials
        t = 1.0
        base = np.max(np.abs(F))
        for _ in range(60):
            q2 = flows(u + t * full)
            F2 = q2.sum(axis=0) - q2.sum(axis=1) - r
            if np.all(np.isfinite(F2)) and np.max(np.abs(F2)) < base:
                break
            t *= 0.5
        u = u + t * full
    else:
        raise InfeasibleRateError("dual Newton failed to converge")
    return float(np.sum(ell_scaled(flows(u), lam)))


def contracted_L(r_fields, intensities, grid):
    """Grid-level contracted rate integrand: kappa-quadrature of node values.

    ``r_fields`` is (k, M) per-state occupation rates of change (summing to
    zero per node); ``intensities`` is (k, k, M) per-channel values
    lambda_ab(theta_i) = f_b(theta_i, a, w) nu(a, theta_i), assembled by
    ``meanfield.channel_intensities``.
    """
    r_fields = np.asarray(r_fields, dtype=float)
    k, M = r_fields.shape
    vals = np.empty(M)
    for i in range(M):
        vals[i] = contracted_node_value(r_fields[:, i], intensities[:, :, i])
    return float(vals @ grid.kappa_weights)


def frechet_lambda(s, x, params, kernel, grid):
    """Frechet derivative of the infection intensity in direction x:
    x(theta) beta int J(theta, z)(1 - s(z)) dmu - beta s(theta) int J(theta, z) x(z) dmu."""
    Km = meanfield._operator(kernel, grid)
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    # through the module, so a test that replaces meanfield._sis_field sees this call
    return action_path._frechet_lambda(s, x, meanfield._sis_field(s, grid, Km, params.beta)[0],
                                       params.beta, Km)


def degrees(network: Network):
    """Entries per row: the out-degree of each node."""
    return np.diff(network.indptr)


def row_dense(network: Network, j):
    """Dense coupling row J[j, :]."""
    out = np.zeros(network.N)
    row = slice(network.indptr[j], network.indptr[j + 1])
    out[network.cols[row]] = network.weights[row]
    return out


def eta_diagnostic(network: Network, spec: GraphonSpec):
    """Exact per-node graphon defects eta, an (N,) array, via the sign trick.

    eta_j = sup over test vectors a in {-1,0,1}^N of
    |sum_k (J_jk / phi_N - J(x_j, x_k)) a_k|; the supremum is attained at
    a_k = sign(J_jk / phi_N - J(x_j, x_k)), so it equals the L1 row norm of
    the defect and is computed exactly.
    """
    x = network.positions
    eta = np.empty(network.N)
    inv_phi = 1.0 / network.phi_N
    for j in range(network.N):
        d = inv_phi * row_dense(network, j) - np.asarray(spec.kernel(x[j], x), dtype=float)
        eta[j] = np.sum(np.abs(d))
    return eta


def max_degree_margin(network: Network, spec: GraphonSpec):
    """Ratio of observed max degree to the expected scale C_J * N * phi_N.

    The expected-degree bound lives on the N * phi_N scale under the
    density convention; callers assert this ratio <= 3 (sampling margin).
    """
    scale = spec.bound * network.N * network.phi_N
    if not np.isfinite(scale) or scale <= 0:
        return np.nan
    return float(degrees(network).max(initial=0) / scale)
