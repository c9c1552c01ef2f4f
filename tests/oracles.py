"""Brute-force oracles the tests compare the solvers against, and the
test-only rate family."""

import numpy as np

from graphonldp.core_model import SIS_SPACE, ModelError, RateFamily, StateSpace, _config_codes


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
