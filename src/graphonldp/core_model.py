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
        """Translate a sequence of labels into integer codes; an unknown
        label raises ModelError."""
        lut = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return np.array([lut[l] for l in labels], dtype=np.int64)
        except KeyError as e:
            raise ModelError(f"unknown state label {e.args[0]!r}; "
                             f"states are {self.labels}") from None


def _config_codes(states, config, n, name):
    """Integer codes of a length-n configuration given as labels or codes.

    Raises ModelError, naming the argument ``name``, for another length, an
    unknown label, a non-integer code or a code outside [0, k).  Always
    returns a new array.
    """
    config = np.asarray(config)
    if config.dtype.kind in "US":
        codes = states.codes(config.tolist())
    elif config.dtype.kind in "biu" or np.all(np.isfinite(config) & (np.floor(config) == config)):
        codes = config.astype(np.int64)
    else:
        raise ModelError(f"{name} codes must be integers")
    if len(codes) != n:
        raise ModelError(f"{name} length must equal N")
    if np.any((codes < 0) | (codes >= states.size)):
        raise ModelError(f"{name} codes must lie in [0, {states.size})")
    return codes


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


class RateFamily:
    """Interface for the per-channel jump rates.

    ``rate_matrix`` gives the instantaneous rates at which agents at given
    positions and states jump to each state, given their local fields
    (per-state components).  Rates into the current state are identically
    zero.

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

    def rate_matrix(self, theta, from_codes, w):
        n, k = len(from_codes), self.states.size
        out = np.full((n, k), self.rate)
        out[np.arange(n), from_codes] = 0.0
        return out


def sis_rates(params: SisParams) -> SisRates:
    """Build the SIS rate family."""
    return SisRates(params)


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
    lo, hi = network.csr_row(node)
    counts = np.zeros(states.size, dtype=np.int64)
    np.add.at(counts, codes[network.cols[lo:hi]], network.weights[lo:hi])
    return counts * (1.0 / (network.N * network.phi_N))
