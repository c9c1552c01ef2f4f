"""Large-N limiting density evolution on a spatial grid.

In the limit the per-state occupation density nu_t(state, theta) obeys the
nonlocal master equation

    d nu_t(a, theta) / dt = sum_{b != a} [ f_a(theta, b, w_t(theta)) nu_t(b, theta)
                                          - f_b(theta, a, w_t(theta)) nu_t(a, theta) ],

with fields w_{t,a}(theta) = integral J(theta, zeta) nu_t(a, zeta) dmu(zeta).
The right side is the divergence of the channel intensities lambda_{a,b} =
f_b(theta, a, w) nu(a), formed by :func:`channel_intensities` here and in
the coupled rate functional.  On the limit they are the reaction-flux
densities, recorded alongside; their signed sums reproduce the density
increments exactly (the continuum flux/occupation conservation identity),
which the tests check to integrator order.

Conventions: the node measure kappa has total mass 1 and is carried by one
array of per-node masses, ``SpatialGrid.kappa_weights`` (quadrature weight
times node density; the periodic trapezoid's uniform 1/M on the circle), so
it enters every integral exactly once.  Densities are per-site conditional,
so the states sum to 1 at every grid node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import TWO_PI, NumericalError


#: Largest per-site drift of the state sum that ``evolve`` accepts.
_NORM_TOL = 1e-8


class NormalizationError(NumericalError):
    """Per-site state-mass drifted beyond tolerance during integration."""


@dataclass(frozen=True)
class SpatialGrid:
    """Quadrature nodes on the domain and the node measure kappa on them: one
    mass per node (quadrature weight times node density), each > 0, summing
    to 1; else ValueError.  The grid holds read-only float copies of both
    (the caller's arrays stay as they were), so what a grid keeps, the
    kernel operator of its last kernel (``_operator``) and the intensity rows
    of its last stack shape (``_source_rows``), cannot go stale."""

    nodes: np.ndarray
    kappa_weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "kappa_weights"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        kw = self.kappa_weights
        if kw.shape != (self.M,):
            raise ValueError(f"need one kappa weight per node: {kw.shape} for {self.M} nodes")
        if not np.all(kw > 0):  # NaN included
            raise ValueError("quadrature weights must be positive")
        if abs(float(np.sum(kw)) - 1.0) > 1e-9:
            raise ValueError("grid must carry unit kappa-mass")
        for arr in (self.nodes, kw):
            arr.setflags(write=False)

    @property
    def M(self):
        return len(self.nodes)


def circle_grid(M) -> SpatialGrid:
    """Uniform periodic grid on the circle; trapezoid kappa-masses 1/M."""
    nodes = TWO_PI * np.arange(M) / M
    return SpatialGrid(nodes=nodes, kappa_weights=np.full(M, 1.0 / M))


def kernel_matrix(kernel, grid: SpatialGrid):
    """Dense kernel matrix K[i, k] = J(theta_i, theta_k)."""
    return np.asarray(kernel(grid.nodes[:, None], grid.nodes[None, :]), dtype=float)


#: Smallest M at which a circulant K is applied by FFT (the measured crossover).
_FFT_MIN_M = 256
#: Largest deviation from circulance, relative to max|K|, taken as round-off.
_CIRCULANT_TOL = 1e-13


class KernelOperator:
    """K on its grid: ``apply(d) = (d * kappa) @ K.T``, the fields of densities
    d, and ``apply_T(v) = (v * kappa) @ K``, along the last axis: the two
    kernel products, each into a fresh array or a given ``out``, sharing
    one body, ``_product``, that no other code calls.  With uniform
    kappa-masses, M >= ``_FFT_MIN_M`` and K circulant to round-off (every
    kernel of x - y on the uniform circle grid) both are circular convolutions
    by real FFT, O(M log M), from the two spectra alone (K is dropped);
    otherwise dense products, which stay the oracle."""

    def __init__(self, K, grid: SpatialGrid):
        self.kw = grid.kappa_weights
        col = K[:, 0]
        # row i of a circulant K read right to left is [col, col][i + 1 : i + 1 + M]
        rolls = np.lib.stride_tricks.sliding_window_view(np.concatenate([col, col])[1:], grid.M)
        self.fft = bool(grid.M >= _FFT_MIN_M and np.all(self.kw == self.kw[0])
                        and np.abs(dev := K[:, ::-1] - rolls, out=dev).max()
                        <= _CIRCULANT_TOL * float(max(K.max(), -K.min())))
        self.K = None if self.fft else K
        if self.fft:
            self._col, self._row = np.fft.rfft(col), np.fft.rfft(K[0])

    def _convolve(self, x, spectrum):
        return np.fft.irfft(np.fft.rfft(x) * spectrum, n=self.kw.size)

    def apply(self, density, out=None):
        return self._product(density, False, out)

    def apply_T(self, v, out=None):
        return self._product(v, True, out)

    def _product(self, v, transposed, out=None):
        """apply (K) or apply_T (K^T) of v, written into ``out`` when given."""
        x = v * self.kw
        if not self.fft:
            return np.matmul(x, self.K if transposed else self.K.T, out=out)
        y = self._convolve(x, self._row if transposed else self._col)
        if out is None:
            return y
        out[...] = y
        return out


def _operator(kernel, grid: SpatialGrid):
    """The KernelOperator of a kernel on ``grid``: KernelOperator's one
    FFT-or-dense rule for every input.  An operator passes through, and an
    (M, M) array is wrapped afresh at each call, as its owner may still write
    to it.  A GraphonSpec or a bare kernel callable is built once per grid:
    the grid keeps the last one in a single slot keyed by the kernel object,
    so ``evolve``, ``rate_G``, ``sis_action`` and the action solve on one
    (kernel, grid) share it, and another kernel replaces it."""
    if isinstance(kernel, KernelOperator):
        return kernel
    if isinstance(kernel, np.ndarray):
        return KernelOperator(kernel, grid)
    slot = grid.__dict__.get("_operator_slot")
    if slot is None or slot[0] is not kernel:
        slot = kernel, KernelOperator(kernel_matrix(getattr(kernel, "kernel", kernel), grid), grid)
        grid.__dict__["_operator_slot"] = slot  # a cached attribute of the frozen grid
    return slot[1]


@dataclass
class DensityField:
    """Occupation densities on grid x time: values[t_n, state, node]."""

    times: np.ndarray
    labels: tuple
    values: np.ndarray  # (n_t, k, M)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def state(self, label):
        return self.values[:, self.labels.index(label), :]

    def at_time(self, t):
        """Densities at the grid time t; raises ValueError for any other t."""
        n = int(round(t / self.dt)) if self.dt else 0
        if not (0 <= n < len(self.times) and abs(self.times[n] - t) <= 1e-9 * self.dt):
            raise ValueError(f"t={t!r} is not a grid time: multiples of dt={self.dt:.6g} "
                             f"in [0, {self.times[-1]:.6g}]")
        return self.values[n]


@dataclass
class LimitFlux:
    """Limiting reaction-flux densities per channel: p[(a, b)][t_n, node]."""

    times: np.ndarray
    labels: tuple
    densities: dict  # (from_label, to_label) -> (n_t, M) array


def field_from_density(grid: SpatialGrid, K, density, out=None):
    """Quadrature of w_a(theta_i) = integral J(theta_i, zeta) nu(a, zeta) dmu.

    ``K`` is a GraphonSpec, a kernel callable, an (M, M) array or a
    KernelOperator, made an operator by ``_operator``'s one rule; ``density``
    is (M,) or (k, M) and the result has the same shape: the kernel
    contraction of each row against the kappa-weighted density.  This is
    the one forward application of K, into a fresh array or into ``out``
    when given.
    """
    return _operator(K, grid).apply(density, out)


def _source_rows(grid: SpatialGrid, n, k):
    """(theta, codes) of ``channel_intensities``' one ``rate_matrix`` call on
    n (slice, node) rows per source state: the nodes tiled over k n rows and
    codes[a n : (a + 1) n] = a, in the smallest signed integer type that holds
    k.  Both read-only; the grid keeps those of the last (n, k), so a caller
    that walks one shape builds them once."""
    slot = grid.__dict__.get("_rows_slot")
    if slot is None or slot[0] != (n, k):
        theta = np.tile(grid.nodes, k * n // grid.M)
        codes = np.repeat(np.arange(k, dtype=np.min_scalar_type(-k)), n)
        for arr in (theta, codes):
            arr.setflags(write=False)
        slot = (n, k), theta, codes
        grid.__dict__["_rows_slot"] = slot
    return slot[1:]


def channel_intensities(rates, grid: SpatialGrid, nu, kernel):
    """Channel intensities lambda[..., a, b, i] = f_b(theta_i, a, w(theta_i)) nu(a, theta_i)
    of (k, M) densities ``nu`` or a (..., k, M) stack of them, with fields
    w = K[nu] for any ``kernel`` that ``field_from_density`` takes (one
    operator rule for all): one field application, and one ``rate_matrix``
    call on the rows of every slice, stacked once per source state (their
    fields handed over column-major).  The one product of rates and
    densities: the mean-field drift is its divergence, and the coupled rate
    functional compares fluxes against it."""
    nu = np.asarray(nu, dtype=float)
    k, M = nu.shape[-2:]
    n = nu.size // k  # (slice, node) rows per source state
    theta, codes = _source_rows(grid, n, k)
    w = np.empty((k, k, n // M, M))  # (state, source, slice, node): columns contiguous
    w[:] = field_from_density(grid, kernel, nu).reshape(-1, k, M).transpose(1, 0, 2)[:, None]
    r = rates.rate_matrix(theta, codes, w.reshape(k, -1).T)
    del w  # before lam: the call above sets the peak
    lam = np.empty((n // M, k, k, M))
    np.multiply(r.reshape(k, n // M, M, k).transpose(1, 0, 3, 2), nu.reshape(-1, k, 1, M), out=lam)
    return lam.reshape(nu.shape[:-1] + nu.shape[-2:])


def _sis_field(s, grid: SpatialGrid, K, beta, out=None):
    """(W, lam): the field W = K[1 - s] and the SIS infection intensity
    lam = beta s W of a slice s or a stack of slices, written into ``out`` =
    (W, lam) when given; lam holds 1 - s first.  The one place either is
    formed: ``sis_lambda_field`` and the action layer read it."""
    s = np.asarray(s, dtype=float)
    W, lam = (None, None) if out is None else out
    lam = np.subtract(1.0, s, out=lam)
    W = field_from_density(grid, K, lam, W)
    np.multiply(beta, s, out=lam)
    lam *= W
    return W, lam


def sis_lambda_field(s, grid: SpatialGrid, K, beta):
    """SIS infection intensity lambda(theta) = beta s(theta) * K[(1-s)](theta)."""
    return _sis_field(s, grid, K, beta)[1]


def _drift(rates, grid, K, nu):
    lam = channel_intensities(rates, grid, nu, K)
    return np.add.reduce(lam, 0) - np.add.reduce(lam, 1), lam


def evolve(grid: SpatialGrid, kernel, rates, nu0, T, dt):
    """Integrate the limiting dynamics with classical RK4 at fixed step.

    ``nu0`` is (k, M), per-site normalized; the step is T / round(T / dt).
    Returns (DensityField, LimitFlux); flux densities p_{a->b} =
    f_b(., a, w) nu_a are recorded at every grid time.  Aborts with
    NormalizationError if the per-site state-sum drifts by more than
    ``_NORM_TOL``, if a density goes clearly negative, or if either turns
    non-finite.  Raises ValueError unless T and dt are finite and positive
    and ``nu0`` is (k, M), k the states of ``rates`` and M = ``grid.M``.
    """
    if not (0.0 < T < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"T and dt must be finite and positive, got T={T!r}, dt={dt!r}")
    nu0 = np.asarray(nu0, dtype=float)
    k, M = len(rates.states.labels), grid.M
    if nu0.shape != (k, M):
        raise ValueError(f"nu0 incompatible with grid and states: must be (k, M) = ({k}, {M}), "
                         f"got {nu0.shape}")
    drift0 = np.max(np.abs(nu0.sum(axis=0) - 1.0))
    if not drift0 <= _NORM_TOL:
        raise NormalizationError(f"initial density not per-site normalized: {drift0:.3g}")
    steps = max(1, int(round(T / dt)))
    dt = T / steps
    K = _operator(kernel, grid)

    labels = rates.states.labels
    values = np.empty((steps + 1, k, M))
    values[0] = nu0
    chans = [(a, b) for a in range(k) for b in range(k) if a != b]
    flux = {c: np.empty((steps + 1, M)) for c in chans}

    nu, stage = nu0.copy(), np.empty((k, M))

    def at(h, slope):  # the stage point nu + h slope, in stage
        return np.add(nu, np.multiply(h, slope, out=stage), out=stage)

    # an overflowing step leaves nu non-finite, which fails the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            k1, lam = _drift(rates, grid, K, nu)
            for (a, b) in chans:
                flux[(a, b)][n] = lam[a, b]
            k2, _ = _drift(rates, grid, K, at(0.5 * dt, k1))
            k3, _ = _drift(rates, grid, K, at(0.5 * dt, k2))
            k4, _ = _drift(rates, grid, K, at(dt, k3))
            # nu + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), its additions in that order
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= dt / 6.0
            nu += k1
            # written so that NaN fails both checks
            drift = np.abs(nu.sum(axis=0) - 1.0).max()
            if not drift <= _NORM_TOL:
                raise NormalizationError(
                    f"per-site normalization drifted to {drift:.3g} at t={dt * (n + 1):.6g}")
            # positivity is monitored, never clipped: a clear excursion below
            # zero means the step size violated the stability bound
            if not nu.min() >= -1e-6:
                raise NormalizationError(
                    f"density went negative ({nu.min():.3g}) at t={dt * (n + 1):.6g}; "
                    "reduce dt")
            values[n + 1] = nu
    _, lam = _drift(rates, grid, K, nu)
    for (a, b) in chans:
        flux[(a, b)][steps] = lam[a, b]

    times = dt * np.arange(steps + 1)
    return (DensityField(times=times, labels=labels, values=values),
            LimitFlux(times=times, labels=labels,
                      densities={(labels[a], labels[b]): flux[(a, b)] for (a, b) in chans}))


def sis_drift(s, grid: SpatialGrid, K, beta, alpha):
    """Scalar SIS form: ds/dt = -beta s * K[1-s] + alpha (1-s)."""
    return alpha * (1.0 - s) - sis_lambda_field(s, grid, K, beta)


def endemic_equilibrium(grid: SpatialGrid, kernel, beta, alpha, max_iter=200000):
    """The stable fixed point of the scalar SIS dynamics, by its fixed-point map.

    s = T(s) = alpha / (alpha + beta K[1 - s]) at every rest point.  For
    K >= 0 the map preserves order (the multi-group SIS model of Lajmanovich
    & Yorke 1976), so its iterates from T(0) rise monotonically to the least
    fixed point: the endemic state when R0 > 1, else the disease-free state,
    the state that relaxation reaches.  Near it the error shrinks by about
    1/R0 per step, whatever the kernel's size.  Each step takes the map from
    the drift ds: alpha - ds = s (alpha + beta K[1 - s]), so T(s) = s + s ds /
    (alpha - ds), with the denominator floored at alpha s, which keeps only
    the field's positive part; a negative field then steps to the clip at 1.
    A zero numerator s ds is a zero step, also at s = 0 where the floored
    denominator is 0 (an alpha so small that T(0) underflows), so every
    returned profile is finite.

    Returns the susceptible profile; for a constant kernel J0 with
    alpha < beta * J0 this is the endemic level alpha / (beta * J0),
    otherwise the disease-free state s == 1.  Raises NumericalError before
    the first step if alpha + beta K[1] overflows (where T(0) would be 0 and
    every step a zero step), at the first non-finite drift, or if the drift
    is still at or above 1e-13 after ``max_iter`` steps.
    """
    K = _operator(kernel, grid)
    with np.errstate(over="ignore"):  # the map's largest denominator, at s = 0
        top = alpha + beta * np.maximum(K.apply(np.ones(grid.M)), 0.0)
    if np.isinf(top).any():
        raise NumericalError(f"endemic equilibrium: alpha + beta K[1] overflows at "
                             f"alpha = {alpha!r}, beta = {beta!r}")
    s = alpha / top
    drift = np.inf
    for n in range(max_iter):
        ds = sis_drift(s, grid, K, beta, alpha)
        step = s * ds
        np.divide(step, np.maximum(alpha - ds, alpha * s), out=step, where=step != 0)
        s = np.clip(s + step, 0.0, 1.0)
        drift = np.max(np.abs(ds))
        if drift < 1e-13:
            return s
        if not np.isfinite(drift):
            raise NumericalError(f"endemic equilibrium drift is {drift} at step {n}")
    raise NumericalError(
        f"endemic equilibrium not reached in {max_iter} steps: drift {drift:.3g} >= tol 1e-13")
