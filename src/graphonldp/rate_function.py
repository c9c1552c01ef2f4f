"""Large-deviation rate functionals for fluxes and occupation paths.

Everything is built from the Poisson entropy cell

    ell(a) = a log a - a + 1,        ell(0) = 1,  0 log 0 = 0,

which is nonnegative, strictly convex, and vanishes only at a = 1.

Three levels of rate function are evaluated:

* ``rate_I`` - the uncoupled functional: space-time integral of ell of the
  flux density against the node measure.  Its exact finite-N counterpart is
  the Poisson tail computed by :func:`poisson_tail_log_prob`.
* ``rate_G`` - the coupled functional: ell of flux over its own
  state-consistent intensity, with occupation and fields reconstructed from
  the fluxes themselves so inconsistent inputs cannot sneak in.  The
  intensities come from :func:`graphonldp.meanfield.channel_intensities`,
  the builder the limiting dynamics use, so the functional is zero exactly
  on them.
* the two-state (SIS) contraction: the per-point Lagrangian L(sdot, s) with
  its closed-form inner minimizer A(sdot, s), plus the general small-state
  contraction solved as a convex program per grid node.

Every closed form sums the cell lam ell(p / lam) of :func:`ell_scaled` over
reaction channels.  The cell is +inf exactly where a zero intensity meets
positive flux, the one source of the infinity marker; nothing is floored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .meanfield import _operator, channel_intensities, sis_lambda_field

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class RateValue:
    """A rate-functional evaluation; ``finite`` is False for the +inf marker.

    The marker comes from comparisons, never from overflow (NaN or negative
    inputs raise ValueError); ``where`` locates the first degenerate point
    (channel, time index, node index) when known.
    """

    value: float
    finite: bool = True
    where: tuple = None

    def __float__(self):
        return self.value if self.finite else np.inf


def ell(a):
    """Poisson entropy cell a log a - a + 1 with ell(0) = 1."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("ell requires nonnegative input")
    return ell_scaled(a, 1.0)


def ell_scaled(p, lam):
    """The Poisson cost cell lam * ell(p / lam) of flux p at intensity lam.

    It is lam where p = 0, +inf exactly where lam <= 0 < p (by that
    comparison), and lam * [(1+x) log1p(x) - x] with x = (p - lam)/lam near
    p = lam, where the naive p log(p/lam) - p + lam loses all precision.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (p - lam) / lam
        near = np.abs(x) < 0.5
        xn = np.where(near, x, 0.0)
        small = lam * ((1.0 + xn) * np.log1p(xn) - xn)
        big = xlogy(p, p / lam) - p + lam
    out = np.where(near, small, np.where(p == 0, lam, big))
    out = np.where((lam <= 0) & (p > 0), np.inf, out)
    return out if out.ndim else float(out)


def poisson_tail_log_prob(k, mean):
    """log P(X >= k) for X ~ Poisson(mean), by stable tail summation.

    Log-terms -mean + j log(mean) - log(j!) are accumulated with logsumexp
    until they fall 60 nats below the running maximum; past the mode the
    term ratio mean/j < 1 guarantees geometric decay, so the truncation
    error is negligible at double precision.
    """
    k = int(k)
    if k <= 0:
        return 0.0
    js = np.arange(k, k + 64)
    logs = -mean + js * np.log(mean) - gammaln(js + 1.0)
    best = float(logs.max())
    while logs[-1] > best - 60.0 and len(logs) < 1_000_000:
        j0 = js[-1] + 1
        js2 = np.arange(j0, j0 + 256)
        # recurrence: log term(j) = log term(j-1) + log(mean) - log(j)
        logs2 = logs[-1] + np.cumsum(np.log(mean) - np.log(js2))
        js = np.concatenate([js, js2])
        logs = np.concatenate([logs, logs2])
        best = max(best, float(logs2.max()))
    return float(logsumexp(logs))


def _checked_fluxes(flux_densities):
    """The flux densities as float arrays; ValueError on a negative or NaN entry."""
    out = {}
    for chan, p in flux_densities.items():
        p = np.asarray(p, dtype=float)
        if not np.all(p >= 0):
            raise ValueError(f"negative or NaN flux density on channel {chan}")
        out[chan] = p
    return out


def rate_I(flux_densities, grid, T, times=None):
    """Uncoupled rate functional: sum over channels of iint ell(p) dkappa dt.

    ``flux_densities`` maps channel -> (n_t, M) nonnegative density arrays
    sampled on a uniform time grid over [0, T] (or at explicit ``times``).
    Time integration is trapezoidal; space is the grid's kappa quadrature.
    """
    total = 0.0
    kw = grid.kappa_weights
    for p in _checked_fluxes(flux_densities).values():
        tt = np.linspace(0.0, T, p.shape[0]) if times is None else times
        space = ell(p) @ kw
        total += float(_trapezoid(space, tt))
    return total


def reconstruct_occupation(flux_densities, nu0, labels, times):
    """Occupation densities from initial value plus net time-integrated flux.

    nu_t(a) = nu_0(a) + int_0^t sum_{b != a} (p_{b->a} - p_{a->b}) ds,
    cumulative-trapezoid in time.  Returns (n_t, k, M).
    """
    nu0 = np.asarray(nu0, dtype=float)
    k, M = nu0.shape
    n_t = len(times)
    rate = np.zeros((n_t, k, M))
    idx = {lab: i for i, lab in enumerate(labels)}
    for (a, b), p in flux_densities.items():
        rate[:, idx[b], :] += p
        rate[:, idx[a], :] -= p
    dt = np.diff(times)[:, None, None]
    nu = np.empty((n_t, k, M))
    nu[0] = nu0
    np.cumsum(0.5 * dt * (rate[1:] + rate[:-1]), axis=0, out=nu[1:])
    nu[1:] += nu0[None]
    return nu


#: How far a density may leave [0, 1]: the occupation reconstructed by
#: ``rate_G``, and the susceptible value given to ``sis_lagrangian``.
_DENSITY_TOL = 1e-6


def rate_G(flux_densities, nu0, grid, kernel, rates, T, times=None):
    """Coupled rate functional on flux densities.

    The occupation path and interaction fields are reconstructed internally
    from (nu0, fluxes); the functional is

        sum_{a != b} iint ell(p_{a->b} / lambda_{a,b}) lambda_{a,b} dkappa dt,
        lambda_{a,b}(x, t) = f_b(x, a, w(x, t)) nu_t(a, x).

    Returns a RateValue; the infinity marker fires if the reconstructed
    occupation exits [0, 1] beyond ``_DENSITY_TOL`` or if some channel has
    positive flux against zero intensity.  A negative or NaN flux entry, or
    a non-finite entry of ``nu0``, raises ValueError.
    """
    labels = rates.states.labels
    flux_densities = _checked_fluxes(flux_densities)
    if not np.all(np.isfinite(nu0)):
        raise ValueError("initial occupation nu0 has a non-finite entry")
    n_t = next(iter(flux_densities.values())).shape[0]
    tt = np.linspace(0.0, T, n_t) if times is None else np.asarray(times)
    nu = reconstruct_occupation(flux_densities, nu0, labels, tt)
    if np.min(nu) < -_DENSITY_TOL or np.max(nu) > 1.0 + _DENSITY_TOL:
        n, a, i = np.unravel_index(int(np.argmax(np.abs(nu - 0.5))), nu.shape)
        return RateValue(np.inf, finite=False, where=("occupation", n, i))

    K = _operator(kernel, grid)
    kw = grid.kappa_weights
    idx = {lab: i for i, lab in enumerate(labels)}

    # one slice at a time: a whole-path intensity tensor would hold n_t (k, k, M) copies
    integrand = np.zeros(n_t)
    for n in range(n_t):
        # fields from the reconstructed occupation as it is; only the intensity is clamped
        lam = np.maximum(channel_intensities(rates, grid, nu[n], K), 0.0)
        for (la, lb), p in flux_densities.items():
            a, b = idx[la], idx[lb]
            cell = ell_scaled(p[n], lam[a, b])
            if np.isinf(cell).any():
                return RateValue(np.inf, finite=False, where=((la, lb), n, int(np.argmax(cell))))
            integrand[n] += float(cell @ kw)
    return RateValue(float(_trapezoid(integrand, tt)))


# ---------------------------------------------------------------------------
# SIS two-state machinery

def _sis_disc2(sdot, s_local, lam, alpha):
    """c = max(4 alpha lam (1-s), 0) and the discriminant sdot^2 + c of sis_A."""
    c = 4.0 * alpha * np.asarray(lam, dtype=float) * (1.0 - np.asarray(s_local, dtype=float))
    c = np.maximum(c, 0.0)
    return c, sdot * sdot + c


def sis_A(sdot, s_local, lam, alpha):
    """Closed-form optimal downward-flux intensity.

    The nonnegative root of a^2 + a sdot - alpha lam (1-s) = 0, i.e.
    0.5 (-sdot + sqrt(sdot^2 + 4 alpha lam (1-s))); evaluated in the
    cancellation-free form when sdot > 0.  Degenerate lam (1-s) = 0 gives
    max(0, -sdot).
    """
    sdot = np.asarray(sdot, dtype=float)
    c, disc2 = _sis_disc2(sdot, s_local, lam, alpha)
    disc = np.sqrt(disc2)
    with np.errstate(divide="ignore", invalid="ignore"):
        alt = 0.5 * c / (disc + sdot)  # == 0.5 (disc - sdot), stable for sdot > 0
    out = np.where(sdot > 0, np.where(disc + sdot > 0, alt, 0.0), 0.5 * (disc - sdot))
    return out if out.ndim else float(out)


def sis_lagrangian(sdot, s_local, lam, alpha):
    """Per-point SIS cost L(sdot, s): the exact infimum over flux splits.

    The two channel cells at the optimal split, lam ell(A / lam) for the
    infection flux A = sis_A(...) and alpha (1-s) ell(B / (alpha (1-s)))
    for the recovery flux B = sdot + A (clamped at 0 against round-off).
    Where the sign of sdot forces flow through a zero intensity, the cell
    gives the +inf marker.  A susceptible value outside [0, 1] by more than
    ``_DENSITY_TOL`` raises ValueError.
    """
    s_local = np.asarray(s_local, dtype=float)
    if not np.all((s_local >= -_DENSITY_TOL) & (s_local <= 1.0 + _DENSITY_TOL)):
        raise ValueError("susceptible density outside [0, 1]")
    A = sis_A(sdot, s_local, lam, alpha)
    B = np.maximum(sdot + A, 0.0)
    return ell_scaled(A, lam) + ell_scaled(B, alpha * (1.0 - s_local))


def sis_lagrangian_bruteforce(sdot, s_local, lam, alpha):
    """Independent convex-minimization oracle for the SIS Lagrangian.

    Golden-section search (90 steps) on the downward flux a over
    [max(0, -sdot), A + 10 (1 + |sdot| + alpha lam (1 - s))]; the objective
    is convex in a, so the search brackets the infimum.  Vectorized over
    array inputs.
    """
    sdot = np.asarray(sdot, dtype=float)
    s_local = np.asarray(s_local, dtype=float)
    lam = np.asarray(lam, dtype=float)
    up = alpha * (1.0 - s_local)

    def objective(a):
        b = sdot + a
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = xlogy(a, a / lam) - a + lam
            t2 = xlogy(b, b / up) - b + up
        return t1 + t2

    A = np.asarray(sis_A(sdot, s_local, lam, alpha))
    lo = np.maximum(0.0, -sdot) * np.ones_like(A)
    hi = A + 10.0 * (1.0 + np.abs(sdot) + alpha * lam * (1.0 - s_local))
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    for _ in range(90):
        keep = fc < fd
        hi = np.where(keep, d, hi)
        lo = np.where(keep, lo, c)
        # probe both new points afresh rather than reusing a stale value
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = objective(c), objective(d)
    mid = 0.5 * (lo + hi)
    out = objective(mid)
    return out if out.ndim else float(out)


def path_time_derivative(path, dt):
    """Centered time differences, one-sided second order at the endpoints."""
    path = np.asarray(path, dtype=float)
    sdot = np.empty_like(path)
    sdot[1:-1] = (path[2:] - path[:-2]) / (2.0 * dt)
    sdot[0] = (-3.0 * path[0] + 4.0 * path[1] - path[2]) / (2.0 * dt)
    sdot[-1] = (3.0 * path[-1] - 4.0 * path[-2] + path[-3]) / (2.0 * dt)
    return sdot


def sis_action(path, params, kernel, grid, T):
    """Space-time quadrature of the SIS Lagrangian along a density path.

    ``path`` is (n_t, M) susceptible values in [0, 1]; the time derivative
    uses centered differences (one-sided at the endpoints) and the time
    integral is trapezoidal.  Degenerate points propagate the infinity
    marker; a non-finite path entry raises ValueError.
    """
    path = np.asarray(path, dtype=float)
    n_t = path.shape[0]
    if n_t < 3:
        raise ValueError("need at least 3 time slices")
    if not np.all(np.isfinite(path)):
        raise ValueError("path has a non-finite entry")
    dt = T / (n_t - 1)
    K = _operator(kernel, grid)
    sdot = path_time_derivative(path, dt)
    lam = sis_lambda_field(path, grid, K, params.beta)
    L = sis_lagrangian(sdot, path, lam, params.alpha)
    if np.isinf(L).any():
        n, i = np.unravel_index(int(np.argmax(L)), L.shape)
        return RateValue(np.inf, finite=False, where=("L", n, i))
    space = L @ grid.kappa_weights
    return RateValue(float(_trapezoid(space, dx=dt)))


# ---------------------------------------------------------------------------
# contracted rate function on small state spaces

class InfeasibleRateError(ValueError):
    """Requested occupation rate of change violates mass conservation."""


def contracted_node_value(r, lam):
    """Minimal Poisson cost of fluxes realizing occupation change r.

    Solves   min sum_{a != b} lam_ab ell(q_ab / lam_ab)
             s.t. q >= 0,  r_z = sum_{a != z} (q_az - q_za)
    by Newton iteration on the concave dual (at most 100 steps, to a flow
    residual of 1e-12 times the problem's scale): the optimal flux is
    q_ab = lam_ab exp(u_b - u_a) for node potentials u, and the potentials
    solve the flow-matching equations.  Requires sum(r) = 0 and positive
    intensities on enough channels to make r reachable.
    """
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = len(r)
    if lam.shape != (k, k):
        raise ValueError("lam must be (k, k)")
    if np.any(lam < 0):
        raise ValueError("intensities must be nonnegative")
    scale = max(1.0, float(np.max(lam)), float(np.max(np.abs(r))))
    if abs(float(r.sum())) > 1e-9 * scale:
        raise InfeasibleRateError(f"sum of rates must vanish, got {r.sum():.3g}")
    lam = lam.copy()
    np.fill_diagonal(lam, 0.0)

    u = np.zeros(k)

    def flows(u):
        E = np.exp(u[None, :] - u[:, None])
        return lam * E  # q_ab

    for _ in range(100):
        q = flows(u)
        F = q.sum(axis=0) - q.sum(axis=1) - r  # net inflow minus target
        if np.max(np.abs(F)) <= 1e-12 * scale:
            break
        # Jacobian dF_z/du_y: diagonal q_in+q_out, off-diagonal -(q_zy+q_yz)
        Jd = q.sum(axis=0) + q.sum(axis=1)
        Jac = -(q + q.T)
        np.fill_diagonal(Jac, Jd)
        # gauge: potentials defined up to a constant; pin u_0
        try:
            step = np.linalg.solve(Jac[1:, 1:], -F[1:])
        except np.linalg.LinAlgError:
            raise InfeasibleRateError("dual system singular: r unreachable for given intensities")
        full = np.zeros(k)
        full[1:] = step
        # damped update guarding against overflow of the exponentials
        t = 1.0
        base = np.max(np.abs(F))
        for _ in range(60):
            q2 = flows(u + t * full)
            F2 = q2.sum(axis=0) - q2.sum(axis=1) - r
            if np.all(np.isfinite(F2)) and np.max(np.abs(F2)) < base:
                break
            t *= 0.5
        u = u + t * full
    else:
        raise InfeasibleRateError("dual Newton failed to converge")
    return float(np.sum(ell_scaled(flows(u), lam)))


def contracted_node_bruteforce(r, lam):
    """Zooming grid search over the flux polytope; oracle for small k.

    The first nfree = k(k-1) - (k-1) channels are free grid variables; the
    remaining k-1 are derived from the conservation rows (state 0's row is
    dependent since sum(r) = 0).  A dense grid over the free block, 9 points
    per channel, is refined 14 times around the best feasible point.  Honest derivative-free search,
    independent of the dual solver.
    """
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    k = len(r)
    chans = [(a, b) for a in range(k) for b in range(k) if a != b]
    nfree = len(chans) - (k - 1)
    free, rem = chans[:nfree], chans[nfree:]

    def coeff_matrix(cols):
        C = np.zeros((k - 1, len(cols)))
        for ci, (x, y) in enumerate(cols):
            for zi, z in enumerate(range(1, k)):
                if y == z:
                    C[zi, ci] += 1.0
                if x == z:
                    C[zi, ci] -= 1.0
        return C

    CF, CR = coeff_matrix(free), coeff_matrix(rem)
    CR_inv = np.linalg.inv(CR)
    lam_free = np.array([lam[c] for c in free])
    lam_rem = np.array([lam[c] for c in rem])

    def values(qf):  # qf: (P, nfree)
        qr = (r[1:][None, :] - qf @ CF.T) @ CR_inv.T
        q = np.concatenate([qf, qr], axis=1)
        lv = np.concatenate([lam_free, lam_rem])
        feasible = np.all(q >= -1e-12, axis=1) & ~np.any((lv[None, :] <= 0) & (q > 0), axis=1)
        qc = np.maximum(q, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cell = np.where(lv[None, :] > 0, xlogy(qc, qc / np.maximum(lv[None, :], 1e-300)) - qc + lv[None, :], 0.0)
        out = cell.sum(axis=1)
        return np.where(feasible, out, np.inf)

    qmax = 2.0 * (float(lam.sum()) + float(np.abs(r).sum())) + 1.0
    lo = np.zeros(nfree)
    hi = np.full(nfree, qmax)
    best_q, best_v = None, np.inf
    for _ in range(14):
        axes = [np.linspace(lo[i], hi[i], 9) for i in range(nfree)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = values(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_q = float(vals[i]), pts[i]
        span = (hi - lo) * 0.5
        lo = np.maximum(best_q - 0.5 * span, 0.0)
        hi = best_q + 0.5 * span
    return best_v


def contracted_L(r_fields, intensities, grid):
    """Grid-level contracted rate integrand: kappa-quadrature of node values.

    ``r_fields`` is (k, M) per-state occupation rates of change (summing to
    zero per node); ``intensities`` is (k, k, M) per-channel values
    lambda_ab(theta_i) = f_b(theta_i, a, w) nu(a, theta_i), assembled by
    :func:`channel_intensities`.
    """
    r_fields = np.asarray(r_fields, dtype=float)
    k, M = r_fields.shape
    vals = np.empty(M)
    for i in range(M):
        vals[i] = contracted_node_value(r_fields[:, i], intensities[:, :, i])
    return float(vals @ grid.kappa_weights)
