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

Conventions: the reference measure on the circle is normalized to total
mass 1 and carried by quadrature weights summing to 1 (periodic trapezoid,
uniform weights 1/M).  Densities are per-site conditional, so the states
sum to 1 at every grid node; a node-density rho (uniform 1 on the circle)
multiplies the weights wherever the node measure kappa enters.
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
    """Quadrature nodes, weights (sum 1), and node density on the domain."""

    nodes: np.ndarray
    weights: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(np.sum(self.weights * self.rho)) - 1.0) > 1e-9:
            raise ValueError("grid must carry unit kappa-mass")

    @property
    def M(self):
        return len(self.nodes)

    @property
    def kappa_weights(self):
        return self.weights * self.rho


def circle_grid(M) -> SpatialGrid:
    """Uniform periodic grid on the circle; trapezoid weights 1/M, rho == 1."""
    nodes = TWO_PI * np.arange(M) / M
    return SpatialGrid(nodes=nodes, weights=np.full(M, 1.0 / M), rho=np.ones(M))


def kernel_matrix(kernel, grid: SpatialGrid):
    """Dense kernel matrix K[i, k] = J(theta_i, theta_k)."""
    return np.asarray(kernel(grid.nodes[:, None], grid.nodes[None, :]), dtype=float)


#: Smallest M at which a circulant K is applied by FFT (the measured crossover).
_FFT_MIN_M = 256
#: Largest deviation from circulance, relative to max|K|, taken as round-off.
_CIRCULANT_TOL = 1e-13


class KernelOperator:
    """K on its grid: ``apply(d) = (d * kappa) @ K.T``, the fields of densities
    d, and ``apply_T(v) = (v * kappa) @ K``, along the last axis.  With uniform
    weights, M >= ``_FFT_MIN_M`` and K circulant to round-off (every kernel of
    x - y on the uniform circle grid) both are circular convolutions by real
    FFT, O(M log M); otherwise dense products, which stay the oracle."""

    def __init__(self, K, grid: SpatialGrid):
        self.K, self.kw = K, grid.kappa_weights
        self.max_abs = float(np.max(np.abs(K)))
        col = K[:, 0]
        # row i of a circulant K read right to left is [col, col][i + 1 : i + 1 + M]
        rolls = np.lib.stride_tricks.sliding_window_view(np.concatenate([col, col])[1:], grid.M)
        self.fft = bool(grid.M >= _FFT_MIN_M and np.all(self.kw == self.kw[0])
                        and np.max(np.abs(K[:, ::-1] - rolls)) <= _CIRCULANT_TOL * self.max_abs)
        if self.fft:
            self._col, self._row = np.fft.rfft(col), np.fft.rfft(K[0])

    def _convolve(self, x, spectrum):
        return np.fft.irfft(np.fft.rfft(x) * spectrum, n=self.kw.size)

    def apply(self, density):
        x = density * self.kw
        return self._convolve(x, self._col) if self.fft else x @ self.K.T

    def apply_T(self, v):
        x = v * self.kw
        return self._convolve(x, self._row) if self.fft else x @ self.K


def _operator(kernel, grid: SpatialGrid):
    """The KernelOperator of a GraphonSpec, a bare kernel callable or a
    prebuilt (M, M) array; an operator is passed through unchanged."""
    if isinstance(kernel, KernelOperator):
        return kernel
    if not isinstance(kernel, np.ndarray):
        kernel = kernel_matrix(getattr(kernel, "kernel", kernel), grid)
    return KernelOperator(kernel, grid)


@dataclass
class DensityField:
    """Occupation densities on grid x time: values[t_n, state, node]."""

    times: np.ndarray
    labels: tuple
    values: np.ndarray  # (n_t, k, M)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def horizon(self):
        return float(self.times[-1])

    def state(self, label):
        return self.values[:, self.labels.index(label), :]

    def at_time(self, t):
        """Densities at the grid time t; raises ValueError for any other t."""
        n = int(round(t / self.dt)) if self.dt else 0
        if not (0 <= n < len(self.times) and abs(self.times[n] - t) <= 1e-9 * self.dt):
            raise ValueError(f"t={t!r} is not a grid time: multiples of dt={self.dt:.6g} "
                             f"in [0, {self.horizon:.6g}]")
        return self.values[n]


@dataclass
class LimitFlux:
    """Limiting reaction-flux densities per channel: p[(a, b)][t_n, node]."""

    times: np.ndarray
    labels: tuple
    densities: dict  # (from_label, to_label) -> (n_t, M) array


def field_from_density(grid: SpatialGrid, K, density):
    """Quadrature of w_a(theta_i) = integral J(theta_i, zeta) nu(a, zeta) dmu.

    ``K`` is a KernelOperator or a dense (M, M) array; ``density`` is (M,)
    or (k, M) and the result has the same shape: the kernel contraction of
    each row against the kappa-weighted density.  This is the one forward
    application of K.
    """
    return _operator(K, grid).apply(density)


def channel_intensities(rates, grid: SpatialGrid, nu, kernel):
    """Channel intensities lambda[a, b, i] = f_b(theta_i, a, w(theta_i)) nu(a, theta_i)
    of the (k, M) densities ``nu``, with fields w = K[nu] for a GraphonSpec,
    kernel callable, (M, M) array or KernelOperator ``kernel``.  The one
    product of rates and densities: the mean-field drift is its divergence,
    and the coupled rate functional compares fluxes against it."""
    nu = np.asarray(nu, dtype=float)
    w = field_from_density(grid, kernel, nu).T
    lam = np.empty((nu.shape[0],) + nu.shape)
    for a in range(nu.shape[0]):
        lam[a] = rates.rate_matrix(grid.nodes, np.full(grid.M, a, dtype=np.int64), w).T * nu[a]
    return lam


def sis_lambda_field(s, grid: SpatialGrid, K, beta):
    """SIS infection intensity lambda(theta) = beta s(theta) * K[(1-s)](theta)."""
    s = np.asarray(s, dtype=float)
    return beta * s * field_from_density(grid, K, 1.0 - s)


def _drift(rates, grid, K, nu):
    lam = channel_intensities(rates, grid, nu, K)
    return lam.sum(axis=0) - lam.sum(axis=1), lam


def evolve(grid: SpatialGrid, kernel, rates, nu0, T, dt):
    """Integrate the limiting dynamics with classical RK4 at fixed step.

    ``nu0`` is (k, M), per-site normalized; the step is T / round(T / dt).
    Returns (DensityField, LimitFlux); flux densities p_{a->b} =
    f_b(., a, w) nu_a are recorded at every grid time.  Aborts with
    NormalizationError if the per-site state-sum drifts by more than
    ``_NORM_TOL``, if a density goes clearly negative, or if either turns
    non-finite.  Raises ValueError unless T and dt are finite and positive.
    """
    if not (0.0 < T < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"T and dt must be finite and positive, got T={T!r}, dt={dt!r}")
    nu0 = np.asarray(nu0, dtype=float)
    k, M = nu0.shape
    if M != grid.M:
        raise ValueError("nu0 incompatible with grid")
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

    nu = nu0.copy()
    for n in range(steps):
        k1, lam = _drift(rates, grid, K, nu)
        for (a, b) in chans:
            flux[(a, b)][n] = lam[a, b]
        k2, _ = _drift(rates, grid, K, nu + 0.5 * dt * k1)
        k3, _ = _drift(rates, grid, K, nu + 0.5 * dt * k2)
        k4, _ = _drift(rates, grid, K, nu + dt * k3)
        nu = nu + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # written so that NaN fails both checks
        drift = np.max(np.abs(nu.sum(axis=0) - 1.0))
        if not drift <= _NORM_TOL:
            raise NormalizationError(
                f"per-site normalization drifted to {drift:.3g} at t={dt * (n + 1):.6g}")
        # positivity is monitored, never clipped: a clear excursion below
        # zero means the step size violated the stability bound
        if not np.min(nu) >= -1e-6:
            raise NormalizationError(
                f"density went negative ({np.min(nu):.3g}) at t={dt * (n + 1):.6g}; "
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
    """Relax the scalar SIS dynamics to its stable fixed point.

    Returns the susceptible profile; for a constant kernel J0 with
    alpha < beta * J0 this is the endemic level alpha / (beta * J0),
    otherwise the disease-free state s == 1.  Raises NumericalError at the
    first non-finite drift, or if the drift is still at or above 1e-13
    after ``max_iter`` steps.
    """
    K = _operator(kernel, grid)
    s = np.full(grid.M, 0.5)
    dt = 0.2 / max(alpha, beta * K.max_abs)
    drift = np.inf
    for n in range(max_iter):
        ds = sis_drift(s, grid, K, beta, alpha)
        s = np.clip(s + dt * ds, 0.0, 1.0)
        drift = np.max(np.abs(ds))
        if drift < 1e-13:
            return s
        if not np.isfinite(drift):
            raise NumericalError(f"endemic equilibrium drift is {drift} at step {n}")
    raise NumericalError(
        f"endemic equilibrium not reached in {max_iter} steps: drift {drift:.3g} >= tol 1e-13")
