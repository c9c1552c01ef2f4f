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

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .core_model import I, S, TWO_PI, ModelError, NumericalError, SisRates, _config_codes


class RateOverflowError(NumericalError):
    """A non-finite rate, or total rate, was produced during simulation:
    ``node`` is the node whose rate row is not finite, or at which the
    running total of the rates leaves the float range."""

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
    infinite one runs until absorption or the event budget.  The SIS loop
    reads its uniform and exponential draws from two block streams on the
    one generator (:func:`_blocks`) and logs only target codes: the source
    codes are their complement, since an SIS event flips S <-> I.
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
        to_codes = np.array(tos, dtype=np.int64)
        from_codes = 1 - to_codes
    else:
        times, nodes, frs, tos = _generic_events(network, rates, config, horizon, rng, max_events)
        from_codes, to_codes = np.array(frs, dtype=np.int64), np.array(tos, dtype=np.int64)
    return TrajectoryRecord(
        N=N, horizon=float(horizon), labels=states.labels,
        positions=network.positions, initial=initial_codes,
        times=np.array(times), nodes=np.array(nodes, dtype=np.int64),
        from_codes=from_codes, to_codes=to_codes,
    )


def _budget_error(max_events, t, horizon):
    return NumericalError(f"event budget {max_events} exhausted at t={t:.6g} < horizon {horizon:.6g}")


# a draw stream's block sizes: 16 doubling to 4096, then 4096 for ever
_DOUBLING, _LARGEST = (16, 32, 64, 128, 256, 512, 1024, 2048), 4096


def _blocks(draw):
    """Endless stream of the floats ``draw`` returns, in blocks that double
    up to 4096, so that a short run draws little.  A C-level iterator: a
    block is drawn, and turned into Python floats, when the one before it
    runs out, so two streams on one generator interleave their blocks in
    the order the caller reads them."""
    return chain.from_iterable(map(np.ndarray.tolist, map(draw, chain(_DOUBLING, repeat(_LARGEST)))))


def _sis_events(network, params, config, horizon, rng, max_events):
    """SIS event log by the rejection scheme of Cota & Ferreira (2017).

    ``config`` (int codes) is read for the signed acceptance, and only a
    signed network keeps it current; the caller does not read it after.
    Returns the lists of event times, nodes and target codes.  The uniform
    and exponential draws come from two :func:`_blocks` streams on ``rng``.
    The budget is checked after each logged event, so ``max_events`` logged
    events raise at the last one's time.  Raises NumericalError, before the
    first event, if ``max_events`` is not positive (at t = 0) or if the
    largest total rate the loop can reach, alpha N plus beta / (N phi_N)
    times all +1 stubs, is not finite.
    """
    N = network.N
    cols, wts, indptr = network.cols, network.weights, network.indptr
    # positive out-stubs of node k: the rows j with J_jk = +1, grouped by k;
    # a memoryview reads a stub as a Python int
    idx = network._in_index
    stubs, k_max, signed = memoryview(idx.stubs), idx.k_max, idx.signed
    ill = config == I
    D = int(idx.n_stubs[ill].sum())
    start, n_stubs = idx.start.tolist(), idx.n_stubs.tolist()

    # infected nodes in an add/remove list; where[j] is j's slot, -1 if susceptible
    infected = ill.nonzero()[0].tolist()
    where = [-1] * N
    for slot, j in enumerate(infected):
        where[j] = slot

    alpha, b = params.alpha, params.beta / (N * network.phi_N)
    # an infinite total leaves t in place and makes every proposal an
    # infection, and null proposals are not logged: the loop would not end
    top = float(alpha) * N + float(b) * len(stubs)
    if not math.isfinite(top):
        raise NumericalError(f"SIS total rate alpha N + beta / (N phi_N) * (all +1 stubs) "
                             f"= {top} is not finite")
    unif = _blocks(rng.random).__next__
    expo = _blocks(rng.standard_exponential).__next__
    times, nodes, tos = [], [], []
    log_t, log_j, log_to = times.append, nodes.append, tos.append
    pop, push = infected.pop, infected.append
    t = 0.0
    if 0 >= max_events:
        raise _budget_error(max_events, t, horizon)
    while True:
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
            last = pop()
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
            push(j)
            D += n_stubs[j]
            to = I
        if signed:
            config[j] = to
        log_t(t)
        log_j(j)
        log_to(to)
        if len(times) >= max_events:
            raise _budget_error(max_events, t, horizon)
    return times, nodes, tos


def _generic_events(network, rates, config, horizon, rng, max_events):
    """Event log of any rate family by the categorical exponential-clock
    scheme.  ``config`` (int codes) is updated in place.  Raises
    RateOverflowError when a rate row, or the total over all nodes, is not
    finite."""
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
    # finite rates can sum past the float range: an overflowing total raises
    # RateOverflowError below, not a warning; np.add.accumulate forms the sums
    # of np.cumsum, without its dispatch, as the array methods below do
    with np.errstate(over="ignore"):
        totals = R.sum(axis=1)
        cum = np.add.accumulate(totals)

    times, nodes, frs, tos = [], [], [], []
    t = 0.0
    for _ in range(max_events):
        grand = float(cum[-1])
        if not math.isfinite(grand):
            raise RateOverflowError(int(np.argmax(~np.isfinite(cum))), t)
        if grand <= 0.0:
            break
        t = t + rng.exponential(1.0 / grand)
        if t > horizon:
            break
        # categorical node draw, then channel within the node's rate row;
        # u < cum[-1] and side="right" land on an entry of positive rate
        j = int(cum.searchsorted(rng.random() * grand, side="right"))
        cum_row = R[j].cumsum()
        b = int(cum_row.searchsorted(rng.random() * cum_row[-1], side="right"))
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
        with np.errstate(over="ignore"):
            totals[recompute] = R[recompute].sum(axis=1)
            np.add.accumulate(totals, out=cum)
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
