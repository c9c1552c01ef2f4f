"""Brute-force oracles the tests compare the solvers against."""

import numpy as np


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
