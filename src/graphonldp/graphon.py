"""Continuum connectivity kernels and W-random sparse network sampling.

A kernel J(theta, theta') describes the limiting coupling density between
locations.  Finite networks are sampled with independent signed edges,

    P(J_jk = +1) = phi_N * max(J(x_j, x_k), 0),
    P(J_jk = -1) = phi_N * max(-J(x_j, x_k), 0),

so that E[J_jk / phi_N] = J(x_j, x_k).  An unbounded kernel (power-law)
has its pair probabilities clipped at 1.

Normalization convention (important, the literature conflates two scales):
``phi_N`` here is the *edge-density* scale, so the mean degree is
N * phi_N * <J> and the local field divides by N * phi_N.  Experiment
configs specify the degree exponent g ("phi_N = N^g" in degree language)
and the stored density is N^(g-1); see :func:`density_from_degree_exponent`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

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
        if np.max(np.abs(K)) > self.bound + 1e-9:
            raise GraphonError(
                f"kernel exceeds stated bound {self.bound}: max |J| = {np.max(np.abs(K)):.6g}"
            )
        if not self.lipschitz_exempt:
            h = xs[1] - xs[0]
            slope = max(np.max(np.abs(np.diff(K, axis=0))), np.max(np.abs(np.diff(K, axis=1)))) / h
            if slope > self.bound + 1e-9:
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
    rejects a non-integer index, an index outside [0, N), a weight outside
    {-1, 0, +1} and a repeated (j, k) pair; self-loops are allowed.
    ``phi_N`` is the edge-density scale of sampling and of the local-field
    normalization.
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
        rows, cols = _node_indices(self.rows), _node_indices(self.cols)
        weights = np.asarray(self.weights)
        if len(rows) and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= self.N):
            raise GraphonError(f"node index outside [0, {self.N})")
        if not np.all(np.isin(weights, (-1, 0, 1))):
            raise GraphonError("couplings must be signed integers in {-1, 0, +1}")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
            raise GraphonError("repeated (j, k) coupling")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "weights", weights[order].astype(np.int64))
        object.__setattr__(self, "indptr", np.searchsorted(rows, np.arange(self.N + 1)))
        for arr in (self.positions, self.rows, self.cols, self.weights, self.indptr):
            arr.setflags(write=False)

    def csr_row(self, j):
        return int(self.indptr[j]), int(self.indptr[j + 1])

    def degrees(self):
        return np.diff(self.indptr)

    def row_dense(self, j):
        """Dense coupling row J[j, :]."""
        out = np.zeros(self.N)
        lo, hi = self.csr_row(j)
        out[self.cols[lo:hi]] = self.weights[lo:hi]
        return out


def _node_indices(a):
    """int64 node indices; a non-integer value raises GraphonError.  An
    integer array is only cast, with no per-entry check."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not np.all(np.isfinite(a) & (np.floor(a) == a)):
        raise GraphonError("node indices must be integers")
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Per-node graphon-approximation defects and their average."""

    eta: np.ndarray
    mean_eta: float


def sample_network(spec: GraphonSpec, N, phi_N, seed=0) -> Network:
    """Sample a W-random signed network with the stated edge marginals.

    Edges are independent (or mirrored when ``spec.symmetric``), with
    P(J=+1) = phi_N max(J, 0) and P(J=-1) = phi_N max(-J, 0) at the
    canonical node positions; the kernel is evaluated once per pair.
    Deterministic given ``seed``.  Raises ProbabilityOverflowError when
    phi_N |J| > 1 at some pair, unless the kernel is unbounded
    (``spec.bound`` infinite), in which case probabilities are clipped at 1.
    """
    if N < 2:
        raise GraphonError(f"need N >= 2, got {N}")
    if not (phi_N > 0):
        raise GraphonError(f"phi_N must be positive, got {phi_N}")
    clip = np.isinf(spec.bound)
    x = spec.positions(N)
    rng = np.random.default_rng(seed)

    empty = np.zeros(0, dtype=np.int64)
    rows, cols, wts = [empty], [empty], [empty]
    for j in range(N):
        ks = np.arange(j + 1, N) if spec.symmetric else np.concatenate(
            (np.arange(0, j), np.arange(j + 1, N)))
        if len(ks) == 0:
            continue
        J = np.asarray(spec.kernel(x[j], x[ks]), dtype=float)
        qp = phi_N * np.maximum(J, 0.0)
        qm = phi_N * np.maximum(-J, 0.0)
        tot = qp + qm
        if np.any(tot > 1.0 + 1e-12):
            if not clip:
                raise ProbabilityOverflowError(j, int(ks[np.argmax(tot)]), float(np.max(tot)))
            scale = 1.0 / np.maximum(tot, 1.0)
            qp, qm, tot = qp * scale, qm * scale, np.minimum(tot, 1.0)
        u = rng.random(len(ks))
        plus = u < qp
        minus = (~plus) & (u < tot)
        hit = plus | minus
        kh = ks[hit]
        w = np.where(plus[hit], 1.0, -1.0)
        rows.append(np.full(len(kh), j, dtype=np.int64))
        cols.append(kh.astype(np.int64))
        wts.append(w)
        if spec.symmetric:
            rows.append(kh.astype(np.int64))
            cols.append(np.full(len(kh), j, dtype=np.int64))
            wts.append(w.copy())

    return Network(N=N, positions=x, rows=np.concatenate(rows), cols=np.concatenate(cols),
                   weights=np.concatenate(wts), phi_N=float(phi_N), seed=int(seed),
                   family=spec.family)


def eta_diagnostic(network: Network, spec: GraphonSpec) -> ConvergenceDiagnostic:
    """Exact per-node graphon defect via the sign trick.

    eta_j = sup over test vectors a in {-1,0,1}^N of
    |sum_k (J_jk / phi_N - J(x_j, x_k)) a_k|; the supremum is attained at
    a_k = sign(J_jk / phi_N - J(x_j, x_k)), so it equals the L1 row norm of
    the defect and is computed exactly.
    """
    x = network.positions
    eta = np.empty(network.N)
    inv_phi = 1.0 / network.phi_N
    for j in range(network.N):
        d = inv_phi * network.row_dense(j) - np.asarray(spec.kernel(x[j], x), dtype=float)
        eta[j] = np.sum(np.abs(d))
    return ConvergenceDiagnostic(eta=eta, mean_eta=float(eta.mean()))


def max_degree_margin(network: Network, spec: GraphonSpec):
    """Ratio of observed max degree to the expected scale C_J * N * phi_N.

    The expected-degree bound lives on the N * phi_N scale under the
    density convention; callers assert this ratio <= 3 (sampling margin).
    """
    scale = spec.bound * network.N * network.phi_N
    if not np.isfinite(scale) or scale <= 0:
        return np.nan
    return float(network.degrees().max(initial=0) / scale)


# ---------------------------------------------------------------------------
# serialization: header "N phi_N seed family", optional explicit positions,
# then one "j k w" triple per line (0-based, ASCII)

def write_network(path, network: Network, explicit_positions=False):
    buf = io.StringIO()
    buf.write(f"{network.N} {network.phi_N!r} {network.seed} {network.family}\n")
    if explicit_positions:
        buf.write("positions\n")
        for xj in network.positions:
            buf.write(f"{float(xj)!r}\n")
        buf.write("edges\n")
    for j, k, w in zip(network.rows, network.cols, network.weights):
        buf.write(f"{j} {k} {int(w)}\n")
    data = buf.getvalue()
    with open(path, "w") as fh:
        fh.write(data)
    return path


def read_network(path) -> Network:
    """Parse a file written by :func:`write_network`.

    Raises GraphonError on malformed content: a bad header, a positions
    block whose length is not N, an edge line that is not three fields, a
    node index outside [0, N), a repeated (j, k) pair, a self-loop or a
    weight other than -1, +1.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        return _parse_network(lines)
    except (ValueError, IndexError) as e:
        raise GraphonError(f"malformed network file: {e}") from None


def _parse_network(lines) -> Network:
    head = lines[0].split()
    N, phi_N, seed, family = int(head[0]), float(head[1]), int(head[2]), head[3]
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
        x = _grid_positions(N, "unit-interval" if family == "power-law" else "circle")
    triples = [ln.split() for ln in lines[i:] if ln]
    for t in triples:
        if len(t) != 3:
            raise ValueError(f"edge line {' '.join(t)!r} is not 'j k w'")
    rows = np.array([int(t[0]) for t in triples], dtype=np.int64)
    cols = np.array([int(t[1]) for t in triples], dtype=np.int64)
    wts = np.array([float(t[2]) for t in triples])
    if np.any(rows == cols):
        raise ValueError("self-loop")
    if np.any(np.abs(wts) != 1.0):
        raise ValueError("weight outside {-1, +1}")
    return Network(N=N, positions=x, rows=rows, cols=cols, weights=wts,
                   phi_N=phi_N, seed=seed, family=family)
