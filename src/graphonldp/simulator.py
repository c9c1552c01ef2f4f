"""Exact event-driven simulation of the N-node jump process.

The configuration-dependent rates are piecewise constant between events, so
exponential-clock schemes sample the law exactly.  ``simulate`` runs one of
two loops:

* the SIS loop, when the rate family is exactly :class:`SisRates` (not a
  subclass): the optimized Gillespie scheme of Cota & Ferreira (2017).  The
  total proposal rate alpha n_I + beta (N phi_N)^-1 D, with D the positive
  out-stubs of the infected nodes, changes by one node's stub count per
  event.  A recovery takes a uniform infected node; an infection proposal
  draws the infector by rejection on its stub count, then a uniform stub.
  A proposal onto an infected node, or one that fails the signed acceptance
  max(0, c_j) / c_j^+ (exact integer field over its positive part), is null:
  time advances but nothing is logged.  Each proposal costs O(1) Python
  work on an unsigned network and O(degree) on a signed one;
* the generic loop, for every other rate family: draw the next event time
  from the total rate, then the node and channel categorically.  A flip
  updates the exact integer fields of the in-neighbours and recomputes only
  their rate rows, but the node draw is a cumulative sum over all N nodes,
  so an event costs O(N).

Trajectories store the full event log; empirical occupation measures and
reaction fluxes are derived from it with integer counting, so the
occupation/flux conservation identity holds exactly, not just to float
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import I, S, TWO_PI, ModelError, NumericalError, SisRates, _config_codes


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
        upto = int(np.searchsorted(self.times, t, side="right"))
        if upto == 0:
            return self.initial.copy()
        # each node's last event index, by a max that ignores write order
        last = np.full(self.N, -1)
        np.maximum.at(last, self.nodes[:upto], np.arange(upto))
        return np.where(last >= 0, self.to_codes[last], self.initial)


@dataclass(frozen=True)
class EmpiricalFlux:
    """Normalized space-time atoms of each reaction channel, weight 1/N."""

    N: int
    labels: tuple
    horizon: float
    atoms: dict  # (from_label, to_label) -> (times, nodes, positions)

    # read only by bench/checks.py; the next benchmark change can delete it
    def channel_mass(self, from_label, to_label):
        ch = self.atoms.get((from_label, to_label))
        return 0.0 if ch is None else len(ch[0]) / self.N

    def channel_counts(self, from_label, to_label, bins, t_hi=None):
        """Integer transition counts per spatial bin up to time t_hi."""
        ch = self.atoms.get((from_label, to_label))
        if ch is None:
            return np.zeros(bins, dtype=np.int64)
        times, _, pos = ch
        sel = slice(None) if t_hi is None else times <= t_hi
        return np.bincount(bin_index(pos[sel], bins), minlength=bins)


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


def bin_index(positions, bins):
    """Uniform circular bins [2 pi b / M, 2 pi (b+1) / M)."""
    idx = np.floor(np.asarray(positions) / (TWO_PI / bins)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def simulate(network, rates, init, horizon, seed=0, max_events=50_000_000) -> TrajectoryRecord:
    """Run the exact jump-process sampler on one network realization.

    ``init`` is a length-N sequence of state labels or integer codes; an
    unknown label or a code outside [0, k) raises ModelError.  Deterministic
    given ``seed``.  A rate family of type exactly :class:`SisRates` runs the
    SIS loop (O(1) Python work per event; its null proposals advance time
    but are not logged), any other family, ``SisRates`` subclasses included,
    the generic O(N)-per-event loop; the two agree in law, not in their
    random streams.  Both read the network's in-neighbour index, built on
    its first call and kept, so replicas on one network sort it once.
    A horizon that is not positive, NaN included, raises ModelError; an
    infinite one runs until absorption or the event budget.
    Raises RateOverflowError if the rate family produces a non-finite value;
    the SIS loop raises NumericalError, before the first event, if its total
    rate can reach a non-finite value.  Raises NumericalError if the horizon
    is not reached within ``max_events`` logged events.
    """
    states = rates.states
    N = network.N
    config = _config_codes(states, init, N, "init")
    if not horizon > 0:
        raise ModelError(f"horizon must be positive, got {horizon!r}")
    initial_codes = config.copy()
    rng = np.random.default_rng(seed)
    if type(rates) is SisRates:
        times, nodes, tos = _sis_events(network, rates.params, config, horizon, rng, max_events)
        frs = 1 - np.array(tos, dtype=np.int64)  # an SIS event flips S <-> I
    else:
        times, nodes, frs, tos = _generic_events(network, rates, config, horizon, rng, max_events)
    return TrajectoryRecord(
        N=N, horizon=float(horizon), labels=states.labels,
        positions=network.positions, initial=initial_codes,
        times=np.array(times), nodes=np.array(nodes, dtype=np.int64),
        from_codes=np.array(frs, dtype=np.int64), to_codes=np.array(tos, dtype=np.int64),
    )


def _budget_error(max_events, t, horizon):
    return NumericalError(f"event budget {max_events} exhausted at t={t:.6g} < horizon {horizon:.6g}")


def _blocks(draw, size=16, largest=4096):
    """Endless stream of the floats ``draw(size)`` returns, in blocks that
    double up to ``largest``, so that a short run draws little."""
    while True:
        yield from draw(size).tolist()
        size = min(2 * size, largest)


def _sis_events(network, params, config, horizon, rng, max_events):
    """SIS event log by the rejection scheme of Cota & Ferreira (2017).

    ``config`` (int codes) is updated in place.  Returns the lists of event
    times, nodes and target codes.  Raises NumericalError, before the first
    event, if the largest total rate the loop can reach, alpha N plus
    beta / (N phi_N) times all +1 stubs, is not finite.
    """
    N = network.N
    cols, wts, indptr = network.cols, network.weights, network.indptr
    # positive out-stubs of node k: the rows j with J_jk = +1, grouped by k;
    # a memoryview reads a stub as a Python int
    idx = network._in_index
    stubs, k_max, signed = memoryview(idx.stubs), idx.k_max, idx.signed
    D = int(idx.n_stubs[config == I].sum())
    start, n_stubs = idx.start.tolist(), idx.n_stubs.tolist()

    # infected nodes in an add/remove list; where[j] is j's slot, -1 if susceptible
    infected = np.flatnonzero(config == I).tolist()
    where = [-1] * N
    for slot, j in enumerate(infected):
        where[j] = slot

    alpha, b = params.alpha, params.beta / (N * network.phi_N)
    # an infinite total leaves t in place and makes every proposal an
    # infection, and null proposals are not logged: the loop would not end
    top = float(alpha) * N + float(b) * int(idx.n_stubs.sum())
    if not np.isfinite(top):
        raise NumericalError(f"SIS total rate alpha N + beta / (N phi_N) * (all +1 stubs) "
                             f"= {top} is not finite")
    unif = _blocks(rng.random).__next__
    expo = _blocks(rng.standard_exponential).__next__
    times, nodes, tos = [], [], []
    t = 0.0
    while True:
        if len(times) >= max_events:
            raise _budget_error(max_events, t, horizon)
        n = len(infected)
        recovery = alpha * n
        total = recovery + b * D
        if total <= 0.0:
            break
        t += expo() / total
        if t > horizon:
            break
        if unif() * total < recovery:
            j = infected[int(unif() * n)]
            last = infected.pop()
            if last != j:
                infected[where[j]] = last
                where[last] = where[j]
            where[j] = -1
            D -= n_stubs[j]
            to = S
        else:
            while True:  # infector k with probability n_stubs[k] / D
                k = infected[int(unif() * n)]
                if unif() * k_max < n_stubs[k]:
                    break
            j = stubs[start[k] + int(unif() * n_stubs[k])]
            if where[j] >= 0:
                continue
            if signed:
                # accept with max(0, c_j) / c_j^+, counted on j's row
                lo, hi = indptr[j], indptr[j + 1]
                w = wts[lo:hi][config[cols[lo:hi]] == I]
                if not unif() * np.count_nonzero(w == 1) < w.sum():
                    continue
            where[j] = n
            infected.append(j)
            D += n_stubs[j]
            to = I
        config[j] = to
        times.append(t)
        nodes.append(j)
        tos.append(to)
    return times, nodes, tos


def _generic_events(network, rates, config, horizon, rng, max_events):
    """Event log of any rate family by the categorical exponential-clock
    scheme.  ``config`` (int codes) is updated in place."""
    k = rates.states.size
    N = network.N
    scale = 1.0 / (N * network.phi_N)

    # in-neighbour lists: the rows j holding an entry (j, k), grouped by k
    idx = network._in_index
    in_rows, in_wts, in_ptr = network.rows[idx.order], network.weights[idx.order], idx.ptr

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
        cum = np.cumsum(totals)
        grand = float(cum[-1])
        if grand <= 0.0:
            break
        t = t + rng.exponential(1.0 / grand)
        if t > horizon:
            break
        # categorical node draw, then channel within the node's rate row;
        # u < cum[-1] and side="right" land on an entry of positive rate
        j = int(np.searchsorted(cum, rng.random() * grand, side="right"))
        cum_row = np.cumsum(R[j])
        b = int(np.searchsorted(cum_row, rng.random() * cum_row[-1], side="right"))
        a = int(config[j])

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
        raise _budget_error(max_events, t, horizon)
    return times, nodes, frs, tos


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
    counts = np.bincount(cfg * bins + bin_index(traj.positions, bins), minlength=k * bins)
    return EmpiricalOccupation(N=traj.N, labels=traj.labels, t=float(t), counts=counts.reshape(k, bins))
