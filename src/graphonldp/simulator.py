"""Exact event-driven simulation of the N-node jump process.

The configuration-dependent rates are piecewise constant between events, so
the classical exponential-clock scheme (draw the next event time from the
total rate, then the node/channel categorically) samples the law exactly.
Each flip touches only the flipped node and its in-neighbours: local fields
are updated incrementally through the coupling column, and only the
affected rate rows are recomputed, giving O(degree) work per event.

Trajectories store the full event log; empirical occupation measures and
reaction fluxes are derived from it with integer counting, so the
occupation/flux conservation identity holds exactly, not just to float
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import TWO_PI, ModelError, NumericalError


class RateOverflowError(NumericalError):
    """A non-finite rate was produced during simulation."""

    def __init__(self, node, t):
        self.node, self.t = node, t
        super().__init__(f"non-finite rate at node {node}, time {t:.6g}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time-ordered event log of one realization."""

    N: int
    horizon: float
    labels: tuple
    positions: np.ndarray
    initial: np.ndarray          # (N,) int codes at t = 0
    times: np.ndarray            # (m,) strictly increasing
    nodes: np.ndarray            # (m,) int
    from_codes: np.ndarray       # (m,) int
    to_codes: np.ndarray         # (m,) int

    @property
    def n_events(self):
        return len(self.times)

    def config_at(self, t):
        """Configuration at time t (cadlag: events at t have happened)."""
        if not (0.0 <= t <= self.horizon):
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        cfg = self.initial.copy()
        upto = int(np.searchsorted(self.times, t, side="right"))
        for i in range(upto):
            cfg[self.nodes[i]] = self.to_codes[i]
        return cfg

    def write_jsonl(self, path):
        import json

        with open(path, "w") as fh:
            for t, j, a, b in zip(self.times, self.nodes, self.from_codes, self.to_codes):
                fh.write(json.dumps({"t": float(t), "j": int(j),
                                     "from": self.labels[a], "to": self.labels[b]}) + "\n")
        return path


@dataclass(frozen=True)
class EmpiricalFlux:
    """Normalized space-time atoms of each reaction channel, weight 1/N."""

    N: int
    labels: tuple
    horizon: float
    atoms: dict  # (from_label, to_label) -> (times, nodes, positions)

    def channel_mass(self, from_label, to_label):
        ch = self.atoms.get((from_label, to_label))
        return 0.0 if ch is None else len(ch[0]) / self.N

    def channel_counts(self, from_label, to_label, bins, t_hi=None, edges=None):
        """Integer transition counts per spatial bin up to time t_hi."""
        ch = self.atoms.get((from_label, to_label))
        counts = np.zeros(bins, dtype=np.int64)
        if ch is None:
            return counts
        times, _, pos = ch
        sel = slice(None) if t_hi is None else times <= t_hi
        idx = bin_index(pos[sel], bins, edges)
        np.add.at(counts, idx, 1)
        return counts

    def write_csv(self, path, bins, time_edges):
        with open(path, "w") as fh:
            fh.write("channel,bin,t_lo,t_hi,mass\n")
            for (a, b), (times, _, pos) in sorted(self.atoms.items()):
                for ti in range(len(time_edges) - 1):
                    t0, t1 = time_edges[ti], time_edges[ti + 1]
                    sel = (times > t0) & (times <= t1) if ti else (times >= t0) & (times <= t1)
                    idx = bin_index(pos[sel], bins)
                    cnt = np.zeros(bins, dtype=np.int64)
                    np.add.at(cnt, idx, 1)
                    for bi in range(bins):
                        fh.write(f"{a}->{b},{bi},{float(t0)!r},{float(t1)!r},{float(cnt[bi]) / self.N!r}\n")
        return path


@dataclass(frozen=True)
class EmpiricalOccupation:
    """Per-(state, bin) node counts at one time; masses are counts / N."""

    N: int
    labels: tuple
    t: float
    counts: np.ndarray  # (k, bins) int

    @property
    def masses(self):
        return self.counts / self.N

    def total_mass(self):
        return float(self.counts.sum()) / self.N


def bin_index(positions, bins, edges=None):
    """Uniform circular bins [2 pi b / M, 2 pi (b+1) / M)."""
    if edges is not None:
        return np.clip(np.searchsorted(edges, positions, side="right") - 1, 0, bins - 1)
    idx = np.floor(np.asarray(positions) / (TWO_PI / bins)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def simulate(network, rates, init, horizon, seed=0, max_events=50_000_000) -> TrajectoryRecord:
    """Run the exact jump-process sampler on one network realization.

    ``init`` is a length-N sequence of state labels or integer codes.
    Deterministic given ``seed``.  Raises RateOverflowError if the rate
    family produces a non-finite value, and NumericalError if the horizon
    is not reached within ``max_events`` events.
    """
    states = rates.states
    k = states.size
    N = network.N
    init = np.asarray(init)
    if init.dtype.kind in "US":
        config = states.codes(list(init))
    else:
        config = init.astype(np.int64).copy()
    if len(config) != N:
        raise ModelError("init length must equal N")
    if horizon <= 0:
        raise ModelError("horizon must be positive")
    initial_codes = config.copy()

    rng = np.random.default_rng(seed)
    scale = 1.0 / (N * network.phi_N)

    # local fields w[j, state]; incremental updates via the coupling column
    w = np.zeros((N, k))
    # in-neighbour structure: rows j that carry k in their coupling row,
    # i.e. the CSC transpose of the CSR adjacency
    order = np.lexsort((network.rows, network.cols))
    csc_rows = network.rows[order]
    csc_cols = network.cols[order]
    csc_data = network.weights[order]
    col_ptr = np.zeros(N + 1, dtype=np.int64)
    np.add.at(col_ptr, csc_cols + 1, 1)
    np.cumsum(col_ptr, out=col_ptr)

    for kk in range(N):
        lo, hi = col_ptr[kk], col_ptr[kk + 1]
        w[csc_rows[lo:hi], config[kk]] += csc_data[lo:hi] * scale

    R = rates.rate_matrix(network.positions, config, w)
    if not np.all(np.isfinite(R)):
        raise RateOverflowError(int(np.argmax(~np.isfinite(R).all(axis=1))), 0.0)
    totals = R.sum(axis=1)

    times, nodes, frs, tos = [], [], [], []
    t = 0.0
    for _ in range(max_events):
        grand = float(totals.sum())
        if grand <= 0.0:
            break
        t = t + rng.exponential(1.0 / grand)
        if t > horizon:
            break
        # categorical node draw, then channel within the node's rate row
        u = rng.random() * grand
        j = int(np.searchsorted(np.cumsum(totals), u))
        j = min(j, N - 1)
        row = R[j]
        v = rng.random() * float(row.sum())
        b = int(np.searchsorted(np.cumsum(row), v))
        b = min(b, k - 1)
        a = int(config[j])
        if a == b:  # zero-rate channel hit by roundoff; skip without recording
            continue

        times.append(t)
        nodes.append(j)
        frs.append(a)
        tos.append(b)
        config[j] = b

        lo, hi = col_ptr[j], col_ptr[j + 1]
        touched = csc_rows[lo:hi]
        w[touched, a] -= csc_data[lo:hi] * scale
        w[touched, b] += csc_data[lo:hi] * scale
        recompute = np.append(touched, j)
        R[recompute] = rates.rate_matrix(network.positions[recompute],
                                         config[recompute], w[recompute])
        if not np.all(np.isfinite(R[recompute])):
            raise RateOverflowError(j, t)
        totals[recompute] = R[recompute].sum(axis=1)
    else:
        raise NumericalError(f"event budget {max_events} exhausted at t={t:.6g} < horizon {horizon:.6g}")

    return TrajectoryRecord(
        N=N, horizon=float(horizon), labels=states.labels,
        positions=network.positions, initial=initial_codes,
        times=np.array(times), nodes=np.array(nodes, dtype=np.int64),
        from_codes=np.array(frs, dtype=np.int64), to_codes=np.array(tos, dtype=np.int64),
    )


def extract_flux(traj: TrajectoryRecord) -> EmpiricalFlux:
    """Empirical reaction fluxes: one (position, time) atom per event."""
    atoms = {}
    k = len(traj.labels)
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            sel = (traj.from_codes == a) & (traj.to_codes == b)
            if np.any(sel):
                atoms[(traj.labels[a], traj.labels[b])] = (
                    traj.times[sel], traj.nodes[sel], traj.positions[traj.nodes[sel]])
    return EmpiricalFlux(N=traj.N, labels=traj.labels, horizon=traj.horizon, atoms=atoms)


def occupation_at(traj: TrajectoryRecord, t, bins) -> EmpiricalOccupation:
    """Replay the event log up to t and bin the configuration."""
    cfg = traj.config_at(t)
    k = len(traj.labels)
    idx = bin_index(traj.positions, bins)
    counts = np.zeros((k, bins), dtype=np.int64)
    np.add.at(counts, (cfg, idx), 1)
    return EmpiricalOccupation(N=traj.N, labels=traj.labels, t=float(t), counts=counts)
