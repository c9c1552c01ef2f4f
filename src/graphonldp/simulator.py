"""Exact event-driven simulation of the N-node jump process.

The configuration-dependent rates are piecewise constant between events, so
the classical exponential-clock scheme (draw the next event time from the
total rate, then the node/channel categorically) samples the law exactly.
Each flip touches only the flipped node and its in-neighbours: the local
fields, exact integer counts, are updated through the coupling column and
only the affected rate rows are recomputed, in O(degree) work; the node draw
is still a cumulative sum over all N nodes, so an event costs O(N).

Trajectories store the full event log; empirical occupation measures and
reaction fluxes are derived from it with integer counting, so the
occupation/flux conservation identity holds exactly, not just to float
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import TWO_PI, ModelError, NumericalError, _config_codes


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

    def channel_counts(self, from_label, to_label, bins, t_hi=None):
        """Integer transition counts per spatial bin up to time t_hi."""
        ch = self.atoms.get((from_label, to_label))
        counts = np.zeros(bins, dtype=np.int64)
        if ch is None:
            return counts
        times, _, pos = ch
        sel = slice(None) if t_hi is None else times <= t_hi
        np.add.at(counts, bin_index(pos[sel], bins), 1)
        return counts


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


def bin_index(positions, bins):
    """Uniform circular bins [2 pi b / M, 2 pi (b+1) / M)."""
    idx = np.floor(np.asarray(positions) / (TWO_PI / bins)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def simulate(network, rates, init, horizon, seed=0, max_events=50_000_000) -> TrajectoryRecord:
    """Run the exact jump-process sampler on one network realization.

    ``init`` is a length-N sequence of state labels or integer codes; an
    unknown label or a code outside [0, k) raises ModelError.  Deterministic
    given ``seed``.
    Raises RateOverflowError if the rate family produces a non-finite value,
    and NumericalError if the horizon is not reached within ``max_events``
    events.
    """
    states = rates.states
    k = states.size
    N = network.N
    config = _config_codes(states, init, N, "init")
    if horizon <= 0:
        raise ModelError("horizon must be positive")
    initial_codes = config.copy()

    rng = np.random.default_rng(seed)
    scale = 1.0 / (N * network.phi_N)

    # in-neighbour lists: the rows j holding an entry (j, k), grouped by k
    order = np.argsort(network.cols, kind="stable")
    in_rows = network.rows[order]
    in_wts = network.weights[order]
    in_ptr = np.searchsorted(network.cols[order], np.arange(N + 1))

    # exact field counts c[j, a] = sum_k J_jk 1{config_k = a}; rates see c * scale
    counts = np.zeros((N, k), dtype=np.int64)
    np.add.at(counts, (network.rows, config[network.cols]), network.weights)

    R = rates.rate_matrix(network.positions, config, counts * scale)
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

        lo, hi = in_ptr[j], in_ptr[j + 1]
        touched = in_rows[lo:hi]
        counts[touched, a] -= in_wts[lo:hi]
        counts[touched, b] += in_wts[lo:hi]
        recompute = np.append(touched, j)
        R[recompute] = rates.rate_matrix(network.positions[recompute],
                                         config[recompute], counts[recompute] * scale)
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
