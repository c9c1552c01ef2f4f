"""Continuum connectivity kernels and W-random sparse network sampling.

A kernel J(theta, theta') describes the limiting coupling density between
locations.  Finite networks are sampled with independent signed edges,

    P(J_jk = +1) = phi_N * max(J(x_j, x_k), 0),
    P(J_jk = -1) = phi_N * max(-J(x_j, x_k), 0),

so that E[J_jk / phi_N] = J(x_j, x_k).  An unbounded kernel (power-law)
has its pair probabilities clipped at 1.

Sampling costs O(N + edges), not O(N^2): each row walks its columns by
geometric gaps under an envelope (Miller & Hagberg 2011), the constant
min(1, phi_N * bound) for a bounded kernel or the last clipped pair
probability for the unbounded rank-1 family, and each proposal is thinned
to the exact marginals with one kernel evaluation.

Normalization convention (important, the literature conflates two scales):
``phi_N`` here is the *edge-density* scale, so the mean degree is
N * phi_N * <J> and the local field divides by N * phi_N.  Experiment
configs specify the degree exponent g ("phi_N = N^g" in degree language)
and the stored density is N^(g-1); see :func:`density_from_degree_exponent`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .core_model import TWO_PI, circle_distance


class GraphonError(ValueError):
    """Invalid kernel specification or sampling parameters."""


class ProbabilityOverflowError(GraphonError):
    """phi_N * |J| exceeded 1 at some pair of a bounded kernel."""

    def __init__(self, j, k, value):
        self.pair = (j, k)
        self.value = value
        super().__init__(
            f"edge probability {value:.6g} > 1 at pair ({j}, {k}); "
            "reduce phi_N or rescale the kernel"
        )


#: Slack on ``GraphonSpec.bound`` in the spot check and in sampling.
_BOUND_SLACK = 1e-9


def _grid_positions(N, domain):
    """Uniform node positions on [0, 2 pi), or on (0, 1] (no power-law pole)."""
    if domain == "circle":
        return TWO_PI * np.arange(N) / N
    return (np.arange(N) + 1.0) / N


def density_from_degree_exponent(N, exponent):
    """Edge-density scale giving mean degree ~ N^exponent."""
    return float(N) ** (float(exponent) - 1.0)


@dataclass(frozen=True)
class GraphonSpec:
    """A signed connectivity kernel, the one description sampling needs.

    ``kernel`` must accept numpy arrays (broadcasting in both arguments);
    its positive and negative parts give the +1 and -1 edge probabilities.
    ``bound`` is sup |J|; an infinite bound (power-law) makes sampling clip
    pair probabilities at 1 instead of rejecting them, matching that
    family's standard construction.  ``lipschitz_exempt`` marks families
    whose kernel is not uniformly Lipschitz (power-law blows up near 0; the
    small-world surrogate has a jump at the cutoff); the spot check skips
    them but keeps the flag visible.
    """

    kernel: object
    bound: float
    symmetric: bool
    family: str
    domain: str = "circle"  # or "unit-interval"
    lipschitz_exempt: bool = False

    def positions(self, N):
        """Canonical node positions for this family's domain."""
        return _grid_positions(N, self.domain)

    def validate(self):
        """Spot-check |J| <= bound and the Lipschitz property on a 64-point
        grid, with slack 1e-9."""
        xs = self.positions(64)
        K = np.asarray(self.kernel(xs[:, None], xs[None, :]), dtype=float)
        if not np.all(np.isfinite(K)):
            raise GraphonError(f"kernel not finite on spot grid ({self.family})")
        if np.max(np.abs(K)) > self.bound + _BOUND_SLACK:
            raise GraphonError(
                f"kernel exceeds stated bound {self.bound}: max |J| = {np.max(np.abs(K)):.6g}"
            )
        if not self.lipschitz_exempt:
            h = xs[1] - xs[0]
            slope = max(np.max(np.abs(np.diff(K, axis=0))), np.max(np.abs(np.diff(K, axis=1)))) / h
            if slope > self.bound + _BOUND_SLACK:
                raise GraphonError(
                    f"kernel Lipschitz spot check failed: slope {slope:.6g} > bound {self.bound}"
                )
        return True


def constant_kernel(level):
    """J == level everywhere on the circle."""
    lv = float(level)
    return GraphonSpec(
        kernel=lambda x, y: np.broadcast_to(np.float64(lv), np.broadcast_shapes(np.shape(x), np.shape(y))),
        bound=abs(lv), symmetric=True, family="constant",
    )


def cosine_kernel(base=1.0, amplitude=0.5):
    """Inhomogeneous circle kernel base + amplitude * cos(theta - theta')."""
    b, a = float(base), float(amplitude)
    if abs(a) > b:
        raise GraphonError("cosine kernel must stay nonnegative: |amplitude| <= base")
    if b + abs(a) == np.inf:
        raise GraphonError(f"cosine kernel values overflow: base + |amplitude| = {b!r} + {abs(a)!r}")
    return GraphonSpec(
        kernel=lambda x, y: b + a * np.cos(np.asarray(x) - np.asarray(y)),
        bound=b + abs(a), symmetric=True, family="inhomogeneous-circle",
    )


def small_world_kernel(high, low, cutoff):
    """Two-level ring kernel: W-random surrogate of a rewired lattice.

    ``high`` applies inside wrap-around distance ``cutoff`` (the lattice
    band, minus the rewired fraction), ``low`` outside (the rewired mass
    spread uniformly).  Piecewise constant, hence Lipschitz-exempt at the
    jump.
    """
    hi, lo, d0 = float(high), float(low), float(cutoff)
    if not (0 < d0 < np.pi):
        raise GraphonError("small-world cutoff must lie in (0, pi)")
    if hi < lo:
        raise GraphonError("small-world kernel needs high >= low")
    return GraphonSpec(
        kernel=lambda x, y: np.where(circle_distance(x, y) <= d0, hi, lo),
        bound=max(abs(hi), abs(lo)), symmetric=True, family="small-world",
        lipschitz_exempt=True,
    )


def power_law_kernel(beta_pl):
    """Sparse power-law kernel (1-b)^2 (x y)^(-b) on (0, 1].

    The kernel is unbounded near 0 (infinite ``bound``), so pair
    probabilities are clipped at 1 during sampling.
    """
    b = float(beta_pl)
    if not (0 < b < 1):
        raise GraphonError(f"power-law exponent must lie in (0, 1), got {b}")
    c = (1.0 - b) ** 2
    return GraphonSpec(
        kernel=lambda x, y: c * np.power(np.asarray(x, dtype=float) * np.asarray(y, dtype=float), -b),
        bound=np.inf, symmetric=True, family="power-law", domain="unit-interval",
        lipschitz_exempt=True,
    )


FAMILIES = {
    "constant": constant_kernel,
    "inhomogeneous-circle": cosine_kernel,
    "small-world": small_world_kernel,
    "power-law": power_law_kernel,
}


@dataclass(frozen=True)
class Network:
    """A sampled signed sparse network, immutable.

    The triples J[rows, cols] = weights, sorted lexicographically, are the one
    adjacency; row j is the slice indptr[j]:indptr[j + 1].  Construction
    rejects an N that is not an integer >= 1, a phi_N that is not finite and
    positive, positions whose length is not N, a non-integer index, an index
    outside [0, N), a weight outside {-1, 0, +1} and a repeated (j, k) pair;
    self-loops are allowed.  The entries are sorted once, as the int64 keys
    (j N + k) 3 + (w + 1), so N must also keep 3 N^2 below 2^63.
    ``phi_N`` is the edge-density scale of sampling and of the local-field
    normalization.  The in-neighbour index both event loops of ``simulate``
    read is built on the first call and kept (``_in_index``).
    """

    N: int
    positions: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    phi_N: float
    seed: int
    family: str
    indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_scalars(self.N, self.phi_N)
        N = int(self.N)
        positions = np.asarray(self.positions)
        if positions.shape != (N,):
            raise GraphonError(f"positions of shape {positions.shape} for N = {N}")
        rows, cols = _node_indices(self.rows), _node_indices(self.cols)
        weights = np.asarray(self.weights)
        if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
            raise GraphonError("rows, cols and weights must be 1-D arrays of one length")
        if len(rows) and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= N):
            raise GraphonError(f"node index outside [0, {N})")
        if not ((weights == -1) | (weights == 0) | (weights == 1)).all():
            raise GraphonError("couplings must be signed integers in {-1, 0, +1}")
        # one sort of the keys (j N + k) 3 + (w + 1), after which a repeated
        # (j, k) pair is two equal adjacent pair keys j N + k; in place, so that
        # besides its inputs at most four arrays of the entries are alive at once
        keys = rows * N
        keys += cols
        keys *= 3
        keys += weights.astype(np.int64, copy=False)
        keys += 1
        keys.sort()
        pairs = keys // 3
        if np.any(pairs[1:] == pairs[:-1]):
            raise GraphonError("repeated (j, k) coupling")
        keys %= 3
        keys -= 1
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "rows", pairs // N)
        object.__setattr__(self, "cols", pairs % N)
        object.__setattr__(self, "weights", keys)
        object.__setattr__(self, "indptr", np.searchsorted(self.rows, np.arange(N + 1)))
        for arr in (self.positions, self.rows, self.cols, self.weights, self.indptr):
            arr.setflags(write=False)

    @cached_property
    def _in_index(self):
        """In-neighbour lists: ``order`` (the stable argsort of ``cols``) puts
        column k's entries, by row, at order[ptr[k]:ptr[k + 1]]; ``stubs``, the
        rows of its +1 entries in that order, column k's ``n_stubs[k]`` from
        ``start[k]``; ``k_max`` = max ``n_stubs``; ``signed``: a weight is -1."""
        # (k, j) pairs are unique, so any argsort of k N + j is the stable one of k
        order = np.argsort(self.cols * self.N + self.rows)
        plus = self.weights == 1
        stubs = self.rows[order][plus[order]]
        n_stubs = np.bincount(self.cols[plus], minlength=self.N)
        ptr, start = (np.concatenate(([0], np.cumsum(c)))
                      for c in (np.bincount(self.cols, minlength=self.N), n_stubs))
        for arr in (order, ptr, stubs, start, n_stubs):
            arr.setflags(write=False)
        return SimpleNamespace(order=order, ptr=ptr, stubs=stubs, start=start, n_stubs=n_stubs,
                               k_max=int(n_stubs.max(initial=0)), signed=bool(np.any(self.weights < 0)))

    def __setstate__(self, state):
        # pickled arrays come back writeable: a copy is as read-only as its original
        self.__dict__.update(state)
        for arr in (*state.values(), *vars(state.get("_in_index", SimpleNamespace())).values()):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


def _check_scalars(N, phi_N):
    """GraphonError unless N is an integer >= 1 with 3 N^2 < 2^63, so that a
    Network's packed entry keys fit int64, and phi_N is finite and > 0."""
    if not isinstance(N, numbers.Integral) or N < 1:
        raise GraphonError(f"N must be an integer >= 1, got {N!r}")
    if 3 * int(N) ** 2 >= 2 ** 63:
        raise GraphonError(f"N = {N} is too large: 3 N^2 must stay below 2^63")
    if not (isinstance(phi_N, numbers.Real) and math.isfinite(phi_N) and phi_N > 0):
        raise GraphonError(f"phi_N must be finite and positive, got {phi_N!r}")


def _node_indices(a):
    """int64 node indices; a non-integer value raises GraphonError.  An
    integer array is only cast, with no per-entry check."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not np.all(np.isfinite(a) & (np.floor(a) == a)):
        raise GraphonError("node indices must be integers")
    return a.astype(np.int64, copy=False)


def sample_network(spec: GraphonSpec, N, phi_N, seed=0) -> Network:
    """Sample a W-random signed network with the stated edge marginals.

    Edges are independent (or mirrored when ``spec.symmetric``), with
    P(J=+1) = phi_N max(J, 0) and P(J=-1) = phi_N max(-J, 0) at the
    canonical node positions.  Pairs are proposed by one row walk, under a
    constant envelope for a bounded kernel and a moving one for an unbounded
    kernel, and thinned, so the kernel is evaluated once per proposed pair
    and the cost is O(N + edges) (:func:`_sample_rows`).  Deterministic
    given ``seed``.  Raises ProbabilityOverflowError when phi_N |J| > 1 at
    some pair, unless the kernel is unbounded (``spec.bound`` infinite), in
    which case probabilities are clipped at 1.
    """
    if N < 2:
        raise GraphonError(f"need N >= 2, got {N}")
    if not (phi_N > 0):
        raise GraphonError(f"phi_N must be positive, got {phi_N}")
    x = spec.positions(N)
    rng = np.random.default_rng(seed)
    empty = np.zeros(0, dtype=np.int64)
    triples = [(empty, empty, empty), *_sample_rows(spec, N, phi_N, x, rng)]
    j, k, w = (np.concatenate(a) for a in zip(*triples))
    if spec.symmetric:
        j, k, w = np.concatenate((j, k)), np.concatenate((k, j)), np.concatenate((w, w))
    return Network(N=N, positions=x, rows=j, cols=k, weights=w, phi_N=float(phi_N),
                   seed=int(seed), family=spec.family)


def _sample_rows(spec, N, phi_N, x, rng):
    """Per-row envelope skipping (Miller & Hagberg 2011): all rows, of the
    upper triangle or of the full off-diagonal, walk at once, each proposing
    its next column by a geometric gap at its envelope and keeping the
    proposal when u * envelope < p for one uniform u, with the sign of J.
    Yields the kept (j, k, sign) triples step by step.

    A bounded kernel keeps the envelope q = min(1, phi_N * bound), so q = 1
    proposes every pair; a NaN J raises GraphonError naming its pair,
    phi_N |J| > 1 raises ProbabilityOverflowError
    (:func:`_raise_overflow`), and while q < 1 a |J| above ``spec.bound``
    raises GraphonError, as thinning would under-sample it.  An unbounded
    kernel, which must not increase along a row (the power law is rank 1 and
    decreasing on its increasing positions), moves a row's envelope to its
    last clipped p = min(1, phi_N |J|) (1 before the first) and ends the row
    where p reaches 0; a p that is not finite or exceeds the envelope raises
    GraphonError.
    """
    bounded = not np.isinf(spec.bound)
    q = min(1.0, phi_N * spec.bound) if bounded else 1.0
    if q == 0:
        return
    rows = np.arange(N - 1 if spec.symmetric else N)
    length = N - 1 - rows if spec.symmetric else np.full(N, N - 1)
    pos = np.full(rows.size, -1)
    env = np.full(rows.size, q)
    while rows.size:
        pos = pos + rng.geometric(env)
        live = pos < length
        rows, pos, env, length = rows[live], pos[live], env[live], length[live]
        if not rows.size:
            return
        cols = rows + 1 + pos if spec.symmetric else pos + (pos >= rows)
        J = np.asarray(spec.kernel(x[rows], x[cols]), dtype=float)
        p = phi_N * np.abs(J)
        if bounded:
            if not np.all(p <= 1.0 + 1e-12):  # NaN included
                if np.isnan(p).any():
                    i = int(np.argmax(np.isnan(p)))
                    raise GraphonError(f"kernel ({spec.family}) is NaN at pair ({rows[i]}, {cols[i]})")
                _raise_overflow(spec, N, phi_N, x)
            above = np.abs(J) > spec.bound + _BOUND_SLACK
            if q < 1.0 and above.any():
                i = int(np.argmax(above))
                raise GraphonError(f"|J| = {abs(J[i]):.6g} at pair ({rows[i]}, {cols[i]}) "
                                   f"exceeds the stated bound {spec.bound} ({spec.family})")
        else:
            p = np.minimum(p, 1.0)
            below = p <= env * (1.0 + 1e-9)
            if not below.all():
                i = int(np.argmin(below))
                raise GraphonError(f"unbounded kernel ({spec.family}) must be finite and "
                                   f"non-increasing along each row: pair ({rows[i]}, {cols[i]})")
        hit = rng.random(p.size) * env < p
        yield rows[hit], cols[hit], np.where(J[hit] > 0, 1, -1)
        if not bounded:
            live = p > 0
            rows, pos, env, length = rows[live], pos[live], p[live], length[live]


def _raise_overflow(spec, N, phi_N, x):
    """ProbabilityOverflowError at the largest phi_N |J| of the first row,
    in row order, with phi_N |J| > 1 + 1e-12: a scan from row 0, taken only
    on error."""
    for j in range(N):
        ks = np.arange(j + 1, N) if spec.symmetric else np.delete(np.arange(N), j)
        p = phi_N * np.abs(np.asarray(spec.kernel(x[j], x[ks]), dtype=float))
        if np.any(p > 1.0 + 1e-12):
            i = int(np.argmax(p))
            raise ProbabilityOverflowError(j, int(ks[i]), float(p[i]))


# ---------------------------------------------------------------------------
# serialization: header "N phi_N seed family", a positions block unless the
# positions are the family's grid, then one "j k w" triple per line (0-based, ASCII)

def _file_positions(N, family):
    """The positions a network file without a positions block stands for."""
    return _grid_positions(N, "unit-interval" if family == "power-law" else "circle")


def write_network(path, network: Network):
    """Write ``network`` in the format :func:`read_network` parses.

    A positions block is written exactly when the positions are not the grid
    a file without one stands for.  Raises GraphonError, before any byte is
    written, at the first entry that is a self-loop or has weight 0: a
    network file holds neither.
    """
    triples = (network.rows, network.cols, network.weights)
    bad = np.flatnonzero((network.rows == network.cols) | (network.weights == 0))
    if bad.size:
        j, k, w = (int(a[bad[0]]) for a in triples)
        what = "a self-loop" if j == k else "of weight 0"
        raise GraphonError(f"entry ({j}, {k}, {w}) is {what}, which a network file cannot hold")
    lines = [f"{network.N} {network.phi_N!r} {network.seed} {network.family}\n"]
    if not np.array_equal(network.positions, _file_positions(network.N, network.family)):
        positions = network.positions.astype(float).tolist()
        lines += ["positions\n", *(f"{xj!r}\n" for xj in positions), "edges\n"]
    # formatted from Python ints: numpy scalars format about 4x slower
    lines += [f"{j} {k} {w}\n" for j, k, w in zip(*(a.tolist() for a in triples))]
    with open(path, "w") as fh:
        fh.write("".join(lines))
    return path


def read_network(path) -> Network:
    """Parse a file written by :func:`write_network`.

    Raises GraphonError on malformed content: a bad header (N not an
    integer >= 1 with 3 N^2 < 2^63, phi_N not finite and positive, checked
    before any array is built), a positions block whose length is not N, an
    edge line that is not three fields, a node index that is not an int64
    integer or lies outside [0, N), a repeated (j, k) pair, a self-loop or a
    weight other than -1, +1 (which may be written as a float, ``1.0``).
    Blank lines in the edge block are skipped.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        return _parse_network(lines)
    except (ValueError, IndexError) as e:
        raise GraphonError(f"malformed network file: {e}") from None


#: One edge line: integer node indices and a weight, which may be written as a float.
_TRIPLE = [("j", np.int64), ("k", np.int64), ("w", float)]


def _parse_network(lines) -> Network:
    head = lines[0].split()
    N, phi_N, seed, family = int(head[0]), float(head[1]), int(head[2]), head[3]
    _check_scalars(N, phi_N)
    i = 1
    if i < len(lines) and lines[i] == "positions":
        if "edges" not in lines[i + 1:]:
            raise ValueError("missing 'edges' marker")
        end = lines.index("edges", i + 1)
        if end - i - 1 != N:
            raise ValueError(f"{end - i - 1} positions for N={N}")
        x = np.array([float(v) for v in lines[i + 1:end]])
        i = end + 1
    else:
        x = _file_positions(N, family)
    # the edge block in one pass; loadtxt skips blank lines and warns on a block of none
    block = lines[i:]
    triples = (np.loadtxt(block, dtype=_TRIPLE, comments=None, ndmin=1)
               if any(map(str.strip, block)) else np.zeros(0, dtype=_TRIPLE))
    rows, cols, wts = triples["j"], triples["k"], triples["w"]
    if np.any(rows == cols):
        raise ValueError("self-loop")
    if np.any(np.abs(wts) != 1.0):
        raise ValueError("weight outside {-1, +1}")
    return Network(N=N, positions=x, rows=rows, cols=cols, weights=wts,
                   phi_N=phi_N, seed=seed, family=family)
