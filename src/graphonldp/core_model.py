"""Finite state space, transition-rate families, and local interaction fields.

The dynamical object throughout the package is a population of N agents at
fixed positions on a compact space (the circle, parameterized by [0, 2*pi)
with wrap-around metric).  Each agent carries a state from a small finite
alphabet and jumps between states at Poisson rates that depend on its
position, its current state, and a local field: the coupling-weighted census
of neighbour states.

Everything here is immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Density floor used inside logarithms by the rate functionals.  The SIS
#: infection intensity vanishes on the absorbing boundary s in {0, 1}; rate
#: evaluations clamp only the arguments of logs, never the densities
#: themselves.
EPS_S = 1e-8


def circle_distance(a, b):
    """Wrap-around distance on the circle, elementwise."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


class ModelError(ValueError):
    """Invalid model parameters or state-space usage."""


class NumericalError(RuntimeError):
    """A numerical loop stopped without meeting its own stopping rule, or
    produced a value it cannot continue from."""


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite alphabet of agent states."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ModelError("state space needs at least 2 states")
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("state labels must be unique")

    @property
    def size(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ModelError(f"unknown state label {label!r}") from None

    def codes(self, labels):
        """Translate a sequence of labels into integer codes."""
        lut = {lab: i for i, lab in enumerate(self.labels)}
        return np.array([lut[l] for l in labels], dtype=np.int64)


SIS_SPACE = StateSpace(("S", "I"))
S, I = 0, 1  # fixed SIS state codes


@dataclass(frozen=True)
class SisParams:
    """Infection coefficient and recovery rate of the stochastic SIS model."""

    beta: float
    alpha: float

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ModelError(f"beta must be positive, got {self.beta}")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ModelError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class FieldVector:
    """Per-state local field values w = (w_state)_state at one node."""

    labels: tuple
    values: np.ndarray

    def __getitem__(self, label):
        return float(self.values[self.labels.index(label)])


class RateFamily:
    """Interface for the per-channel jump rates.

    ``eval(to, theta, frm, w)`` is the instantaneous rate at which an agent
    at position ``theta`` currently in state ``frm`` jumps to state ``to``,
    given local field ``w`` (per-state components).  Rates into the current
    state are identically zero.

    ``bounded_below`` records whether the family genuinely satisfies the
    two-sided bound 0 < c_f <= rate <= C_f.  The SIS family does not (its
    infection rate vanishes with the field) and is flagged rather than
    rejected; downstream rate functionals handle the degeneracy explicitly.
    """

    states: StateSpace
    lower_bound: float
    upper_bound: float
    lipschitz: float
    bounded_below: bool

    def eval(self, to_label, theta, from_label, w: FieldVector) -> float:
        raise NotImplementedError

    def rate_matrix(self, theta, from_codes, w):
        """Vectorized rates out of given states.

        theta : (n,) positions; from_codes : (n,) int state codes;
        w : (n, k) per-state field components.  Returns (n, k) rates into
        each state, with the diagonal channel (into the current state) zero.
        """
        raise NotImplementedError


class SisRates(RateFamily):
    """Stochastic SIS rates: infection at beta * w_I, recovery at alpha.

    The S -> I channel is linear in the infected field component and hits
    zero when no infected mass is in range, so ``bounded_below`` is False.
    """

    def __init__(self, params: SisParams):
        self.params = params
        self.states = SIS_SPACE
        self.lower_bound = 0.0
        self.upper_bound = max(params.alpha, params.beta)  # times sup field
        self.lipschitz = params.beta
        self.bounded_below = False

    def eval(self, to_label, theta, from_label, w):
        to, frm = self.states.index(to_label), self.states.index(from_label)
        if to == frm:
            return 0.0
        if frm == S and to == I:
            return self.params.beta * max(0.0, w["I"] if isinstance(w, FieldVector) else w[I])
        if frm == I and to == S:
            return self.params.alpha
        return 0.0

    def rate_matrix(self, theta, from_codes, w):
        n = len(from_codes)
        out = np.zeros((n, 2))
        sus = from_codes == S
        out[sus, I] = self.params.beta * np.maximum(0.0, w[sus, I])
        out[~sus, S] = self.params.alpha
        return out


class ConstantRates(RateFamily):
    """Toy family with one constant rate on every off-diagonal channel.

    Satisfies the two-sided bound hypothesis exactly; shipped for tests only.
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

    def eval(self, to_label, theta, from_label, w):
        if self.states.index(to_label) == self.states.index(from_label):
            return 0.0
        return self.rate

    def rate_matrix(self, theta, from_codes, w):
        n, k = len(from_codes), self.states.size
        out = np.full((n, k), self.rate)
        out[np.arange(n), from_codes] = 0.0
        return out


def sis_rates(params: SisParams) -> SisRates:
    """Build the SIS rate family."""
    return SisRates(params)


def local_field(node, network, config, states: StateSpace = SIS_SPACE) -> FieldVector:
    """Local field w at one node: coupling-weighted neighbour state census.

    w_state = (N * phi_N)^-1 * sum_k J[node, k] * 1{config[k] == state},
    where phi_N is the network's sparsity (edge-density) scale: an exact
    integer count scaled once, the same bits the simulator uses.  ``config``
    may be integer codes or labels from ``states``.
    """
    if not (0 <= node < network.N):
        raise IndexError(f"node {node} out of range for N={network.N}")
    codes = np.asarray(config)
    if codes.dtype.kind in "US":
        codes = states.codes(list(config))
    else:
        codes = codes.astype(np.int64)
    if len(codes) != network.N:
        raise ModelError("config length must equal N")
    lo, hi = network.csr_row(node)
    counts = np.zeros(states.size, dtype=np.int64)
    np.add.at(counts, codes[network.cols[lo:hi]], network.weights[lo:hi])
    return FieldVector(states.labels, counts * (1.0 / (network.N * network.phi_N)))
