"""Large-deviation rate functionals for fluxes and occupation paths.

Everything is built from the Poisson entropy cell

    ell(a) = a log a - a + 1,        ell(0) = 1,  0 log 0 = 0,

which is nonnegative, strictly convex, and vanishes only at a = 1.  The
module evaluates

* ``rate_G`` - the coupled functional: ell of flux over its own
  state-consistent intensity, with occupation and fields reconstructed from
  the fluxes themselves so inconsistent inputs cannot sneak in.  The
  intensities come from :func:`graphonldp.meanfield.channel_intensities`,
  the builder the limiting dynamics use, so the functional is zero exactly
  on them.
* the two-state (SIS) contraction: the per-point Lagrangian L(sdot, s) with
  its closed-form inner minimizer A(sdot, s).
* :func:`poisson_tail_log_prob`, the exact finite-N counterpart of the
  uncoupled functional ``rate_I``.  That functional and the general
  small-state contraction are test yardsticks, in ``tests/oracles.py``.

Every closed form sums the cell lam ell(p / lam) of :func:`ell_scaled` over
reaction channels.  The cell is +inf exactly where a zero intensity meets
positive flux, the one source of the infinity marker; nothing is floored.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .core_model import NumericalError
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

    With x = (p - lam)/lam, each cell takes one of two formulas.  Near
    balance, |x| < 0.5, it is lam * [(1+x) log1p(x) - x], where the naive
    form loses all precision; log1p is taken on these cells only.  The other
    cells alone are gathered for p log(p/lam) - p + lam, with lam where p = 0
    and +inf exactly where lam <= 0 < p (by that comparison; such a cell has
    |x| >= 1 or NaN).
    """
    p, lam = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(lam, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (p - lam) / lam
        near = np.abs(x) < 0.5
        out = np.log1p(x, out=np.zeros(x.shape), where=near)
        np.multiply(lam, (1.0 + x) * out - x, out=out, where=near)
        pf, lf = p[~near], lam[~near]
        out[~near] = np.where((lf <= 0) & (pf > 0), np.inf,
                              np.where(pf == 0, lf, pf * np.log(pf / lf) - pf + lf))
    return out if out.ndim else float(out)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_INT64_MAX = int(np.iinfo(np.int64).max)


def poisson_tail_log_prob(k, mean):
    """log P(X >= k) for X ~ Poisson(mean), by stable tail summation.

    Above the mean the tail is summed up from j = k by term(j) = term(j-1)
    mean / j; at or below it, log1p(-P(X <= k - 1)) sums down from j = k - 1,
    so no sum crosses the mode.  Its first term, from ``math.lgamma``, is the
    largest; it stops 60 nats below.  A non-integer k counts as its ceiling,
    the least integer the event X >= k contains.  ValueError unless mean is
    finite and >= 0 and k is finite; at mean = 0 the tail of k >= 1 is -inf.
    NumericalError if a sum needs more than 10^6 terms (a mean near 10^12);
    if its term indices would leave int64 (a sum that reaches j above about
    9.2e18, so with a mean about as large), decided before they are formed;
    or if the first term's log j! may leave the float range: that is decided
    before ``math.lgamma`` is called, from j log j > the largest float (k
    above about 2.556e305).
    """
    if not (math.isfinite(mean) and mean >= 0.0):
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mean!r}")
    if isinstance(k, numbers.Integral):
        k = int(k)
    elif math.isfinite(k):
        k = math.ceil(k)
    else:
        raise ValueError(f"tail level k must be finite, got {k!r}")
    if k <= 0:
        return 0.0
    if mean == 0.0:
        return -np.inf
    below = k <= mean
    j = k - 1 if below else k
    # log j! <= j log j; taken in logs, as j may be an int beyond the float range
    if j > 1 and math.log(j) + math.log(math.log(j)) > _LOG_FLOAT_MAX:
        raise NumericalError(f"Poisson tail of k = 10^{math.log10(k):.3f}, mean={mean!r}: "
                             f"the log-factorial of its first term leaves the float range")
    top = -mean + j * math.log(mean) - math.lgamma(j + 1)
    chunks, n = [np.array([top])], 1
    while chunks[-1][-1] > top - 60.0 and not (below and n > j):
        if n >= 1_000_000:
            raise NumericalError(f"Poisson tail of k={k}, mean={mean!r} needs over 10^6 terms")
        if (j if below else j + n + 256) > _INT64_MAX:  # arange would hold ints with no log
            raise NumericalError(f"Poisson tail of k={k}, mean={mean!r}: its term indices "
                                 f"leave the int64 range")
        js = np.arange(j - n + 1, max(j - n - 255, 0), -1) if below else np.arange(j + n, j + n + 256)
        steps = math.log(mean) - np.log(js)  # log term(j) - log term(j-1)
        chunks.append(chunks[-1][-1] + np.cumsum(-steps if below else steps))
        n += len(js)
    log_sum = float(top + np.log(np.exp(np.concatenate(chunks) - top).sum()))
    return math.log1p(-math.exp(log_sum)) if below else log_sum


def _checked_fluxes(flux_densities, M):
    """The flux densities as float arrays, and their common slice count n_t.
    ValueError unless there is at least one channel and every channel's
    density is an (n_t, M) array with the first channel's n_t, finite and >= 0."""
    out = {chan: np.asarray(p, dtype=float) for chan, p in flux_densities.items()}
    if not out:
        raise ValueError("no flux density given: need at least one channel")
    first = next(iter(out.values()))
    n_t = first.shape[0] if first.ndim else 0
    for chan, p in out.items():
        if p.shape != (n_t, M):
            raise ValueError(f"flux on channel {chan} must be (n_t, M) = ({n_t}, {M}), "
                             f"got {p.shape}")
        if not np.all((p >= 0) & (p < np.inf)):
            raise ValueError(f"negative, NaN or infinite flux density on channel {chan}")
    return out, n_t


def _check_horizon(T):
    if not 0.0 < T < np.inf:
        raise ValueError(f"horizon T must be finite and > 0, got T={T!r}")


def _time_grid(times, T, n_t):
    """The n_t >= 2 slice times: a uniform grid over [0, T], or ``times``, which
    must be finite, strictly increasing, n_t long and run from 0 to T, each end
    to a relative 1e-9 of T (ValueError otherwise, as for a bad T)."""
    _check_horizon(T)
    if n_t < 2:
        raise ValueError(f"need at least 2 slice times, one per flux slice; got {n_t}")
    if times is None:
        return np.linspace(0.0, T, n_t)
    tt = np.asarray(times, dtype=float)
    if tt.shape != (n_t,):
        raise ValueError(f"times must hold one entry per flux slice, shape ({n_t},); "
                         f"got {tt.shape}")
    if not (np.all(np.isfinite(tt)) and np.all(np.diff(tt) > 0)):
        raise ValueError("times must be finite and strictly increasing")
    if not (abs(tt[0]) <= 1e-9 * T and abs(tt[-1] - T) <= 1e-9 * T):
        raise ValueError(f"times must run from 0 to T = {T!r}, got {tt[0]!r} to {tt[-1]!r}")
    return tt


#: How far a density may leave [0, 1]: the occupation reconstructed by
#: ``rate_G``, and the susceptible value given to ``sis_lagrangian``.
_DENSITY_TOL = 1e-6
#: Most time slices per stack in ``rate_G`` and ``sis_action``, so their
#: working memory is independent of n_t.
_CHUNK = 128
#: Most (slice, node) cells per stack: at M = 1024 a stack of 32 slices, with
#: 1 MiB of intensities at k = 2; a grid of M <= 256 keeps ``_CHUNK`` slices.
_STACK_CELLS = 32 * 1024


def _stack_slices(M):
    """Time slices per stack on a grid of M nodes: at most ``_CHUNK``, and at
    most ``_STACK_CELLS`` cells, but at least one slice."""
    return max(1, min(_CHUNK, _STACK_CELLS // M))


def _occupation_stacks(flux_densities, nu0, labels, times):
    """(n0, nu[n0 : n0 + size]) for n0 = 0, size, ..., size =
    ``_stack_slices(M)``: the occupation nu_t(a) = nu_0(a) + int_0^t
    sum_{b != a} (p_{b->a} - p_{a->b}) ds by the cumulative trapezoid, its
    increments summed in slice order, the running total carried across
    stacks."""
    nu0 = np.asarray(nu0, dtype=float)
    chans = [(labels.index(a), labels.index(b), p) for (a, b), p in flux_densities.items()]
    size, total = _stack_slices(nu0.shape[-1]), np.zeros(nu0.shape)
    for n0 in range(0, len(times), size):
        n1 = min(n0 + size, len(times))
        lo = max(n0 - 1, 0)  # the slice before the stack, for its first increment
        rate = np.zeros((n1 - lo,) + nu0.shape)  # net inflow into each state per slice
        for a, b, p in chans:
            rate[:, b] += p[lo:n1]
            rate[:, a] -= p[lo:n1]
        nu = np.zeros((n1 - n0,) + nu0.shape)
        inc = nu if n0 else nu[1:]  # the increments into slices max(n0, 1) .. n1 - 1
        np.add(rate[1:], rate[:-1], out=inc)
        inc *= 0.5 * np.diff(times[lo:n1])[:, None, None]
        nu[0] += total
        for n in range(1, len(nu)):  # in slice order; np.add.accumulate on axis 0 is ~8x slower
            nu[n] += nu[n - 1]
        total = nu[-1].copy()
        nu += nu0
        yield n0, nu


def rate_G(flux_densities, nu0, grid, kernel, rates, T, times=None):
    """Coupled rate functional on flux densities.

    The occupation path and interaction fields are reconstructed internally
    from (nu0, fluxes); the functional is

        sum_{a != b} iint ell(p_{a->b} / lambda_{a,b}) lambda_{a,b} dkappa dt,
        lambda_{a,b}(x, t) = f_b(x, a, w(x, t)) nu_t(a, x).

    The occupation and intensities are formed in stacks of
    ``_stack_slices(M)`` time slices, one :func:`channel_intensities` stack
    and one :func:`ell_scaled` call per channel each.  Returns a RateValue;
    the infinity marker fires if the reconstructed occupation exits [0, 1]
    beyond ``_DENSITY_TOL``, naming its largest excursion |nu - 1/2|, first
    in (slice, state, node) order; else if some channel has positive flux
    against zero intensity, naming the first such cell in (slice, channel,
    node) order.  ValueError unless the fluxes are keyed by exactly the
    off-diagonal channels of ``rates.states``; for a negative or NaN flux
    entry, a non-finite entry of ``nu0``, fluxes that are not (n_t, M) with
    n_t >= 2 or ``nu0`` that is not (k, M) with M = ``grid.M``, bad ``times``
    (see :func:`_time_grid`) or horizon T.
    """
    labels = rates.states.labels
    chans = [(a, b) for a in labels for b in labels if a != b]
    missing = [c for c in chans if c not in flux_densities]
    unknown = [c for c in flux_densities if c not in chans]
    if missing or unknown:
        raise ValueError(f"fluxes must be given on exactly the channels {chans}: "
                         f"missing {missing}, unknown {unknown}")
    flux_densities, n_t = _checked_fluxes(flux_densities, grid.M)
    nu0 = np.asarray(nu0, dtype=float)
    if nu0.shape != (len(labels), grid.M):
        raise ValueError(f"nu0 must be (k, M) = ({len(labels)}, {grid.M}), got {nu0.shape}")
    if not np.all(np.isfinite(nu0)):
        raise ValueError("initial occupation nu0 has a non-finite entry")
    tt = _time_grid(times, T, n_t)
    K = _operator(kernel, grid)
    integrand = np.empty(n_t)
    outside, peak, occupation, channel = False, -1.0, None, None
    for n0, nu in _occupation_stacks(flux_densities, nu0, labels, tt):
        outside = outside or nu.min() < -_DENSITY_TOL or nu.max() > 1.0 + _DENSITY_TOL
        dev = np.abs(nu - 0.5)
        j = int(np.argmax(dev))
        if dev.flat[j] > peak:
            peak, occupation = dev.flat[j], ("occupation", n0 + j // nu[0].size, j % grid.M)
        if outside or channel:
            continue  # the occupation marker outranks a channel marker: walk only it on
        sl = slice(n0, n0 + len(nu))
        # fields from the reconstructed occupation as it is; only the intensity is clamped
        lam = channel_intensities(rates, grid, nu, K)
        np.maximum(lam, 0.0, out=lam)
        cells = np.stack([ell_scaled(p[sl], lam[:, labels.index(a), labels.index(b)])
                          for (a, b), p in flux_densities.items()])
        dead = np.isinf(cells).transpose(1, 0, 2)  # (slice, channel, node)
        if dead.any():
            n, c, i = map(int, np.unravel_index(np.argmax(dead), dead.shape))
            channel = (list(flux_densities)[c], n0 + n, i)
            continue
        integrand[sl] = (cells @ grid.kappa_weights).sum(axis=0)
    if outside or channel:
        return RateValue(np.inf, finite=False, where=occupation if outside else channel)
    return RateValue(float(_trapezoid(integrand, tt)))


# ---------------------------------------------------------------------------
# SIS two-state machinery

def sis_A(sdot, s_local, lam, alpha):
    """Closed-form optimal downward-flux intensity.

    The nonnegative root of a^2 + a sdot - alpha lam (1-s) = 0, i.e.
    0.5 (D - sdot) with D = sqrt(sdot^2 + 4 alpha lam (1-s)): the A of
    :func:`_sis_split`, which takes the cancellation-free form where sdot > 0.
    Degenerate lam (1-s) = 0 gives max(0, -sdot).  A susceptible value outside
    [0, 1] by more than ``_DENSITY_TOL`` raises ValueError.
    """
    A = _sis_split(sdot, s_local, lam, alpha)[0]
    return A if A.ndim else float(A)


def _split_state(s_local, lam, alpha, out=None):
    """The velocity-free half of the flux split at a point: the recovery
    intensity up = alpha (1 - s) and the flux product c = max(lam up, 0),
    written into ``out`` = (up, c) when given.  A susceptible value outside
    [0, 1] by more than ``_DENSITY_TOL`` (or NaN, which fails both sides of
    the one min and max) raises ValueError; an empty array passes.
    Vectorized."""
    s_local = np.asarray(s_local, dtype=float)
    if s_local.size and not (s_local.min() >= -_DENSITY_TOL and s_local.max() <= 1.0 + _DENSITY_TOL):
        raise ValueError("susceptible density outside [0, 1]")
    if out is None:
        shape = np.broadcast_shapes(s_local.shape, np.shape(alpha))
        out = np.empty(shape), np.empty(np.broadcast_shapes(shape, np.shape(lam)))
    up, c = out
    np.multiply(alpha, np.subtract(1.0, s_local, out=up), out=up)
    np.multiply(lam, up, out=c)
    return up, np.maximum(c, 0.0, out=c)


def _flux_split(sdot, up, c, out=None):
    """The optimal flux split at velocity sdot of a point with state (up, c)
    from :func:`_split_state`: (A, B, up, D) with B - A = sdot, A B = c and
    D = A + B = sqrt(sdot^2 + 4 c).

    With a = |sdot| the two fluxes are big = (D + a) / 2 and small =
    (4 c / (D + a)) / 2 = c / big: A = small where sdot > 0 and big
    elsewhere, B = small where sdot < 0 and big elsewhere, so neither form
    cancels, and the quotient taken before the halving keeps a subnormal
    sdot off 0 / 0.  One add and one divide serve both fluxes, bit for bit
    the two-branch form A = (sdot > 0 ? 4 c / (D + sdot) : D - sdot) / 2,
    B = (sdot < 0 ? 4 c / (D - sdot) : D + sdot) / 2: negating a float is
    exact, so D - sdot = D + a where sdot <= 0 (-0.0 included) and
    D + sdot = D + a where sdot >= 0.  Where c = 0, the flux against sdot is
    0.  ``out`` = (A, B, D, work), four arrays of the broadcast shape, takes
    the results and the quotient in place of fresh arrays.  NumericalError
    where sdot^2 + 4 c overflows (|sdot| above about 1.3e154).  Vectorized."""
    sdot = np.asarray(sdot, dtype=float)
    if out is None:
        shape = np.broadcast_shapes(sdot.shape, np.shape(up), np.shape(c))
        out = [np.empty(shape) for _ in range(4)]
    A, B, D, q = out
    c4 = np.multiply(4.0, c, out=q)
    try:
        with np.errstate(over="raise"):
            np.multiply(sdot, sdot, out=D)
            D += c4
    except FloatingPointError:
        raise NumericalError(f"sdot^2 + 4 c overflows at a velocity |sdot| up to "
                             f"{np.max(np.abs(sdot)):.3g}") from None
    np.sqrt(D, out=D)
    big = np.add(D, np.abs(sdot, out=B), out=B)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.divide(c4, big, out=q)
    small *= 0.5
    big *= 0.5
    np.copyto(A, big)
    np.copyto(A, small, where=sdot > 0)
    np.copyto(B, small, where=sdot < 0)
    return A, B, up, D


def _sis_split(sdot, s_local, lam, alpha):
    """The optimal flux split of L(sdot, s): (A, B, up, D), with infection flux
    A, recovery flux B, the recovery intensity up = alpha (1 - s) and D = A + B,
    so that B - A = sdot and A B = max(lam up, 0); where sdot < 0 and lam up
    <= 0 (s just outside [0, 1], s = 1 or lam = 0), B = 0.  The state half of
    :func:`_split_state` and the velocity half of :func:`_flux_split`, which
    the discrete action calls once per interval side on state formed once per
    path.  A susceptible value outside [0, 1] by more than ``_DENSITY_TOL``
    raises ValueError.  Vectorized."""
    return _flux_split(sdot, *_split_state(s_local, lam, alpha))


def sis_lagrangian(sdot, s_local, lam, alpha):
    """Per-point SIS cost L(sdot, s): the exact infimum over flux splits.

    The two channel cells at the optimal split of :func:`_sis_split`,
    lam ell(A / lam) for the infection flux A and alpha (1-s)
    ell(B / (alpha (1-s))) for the recovery flux B.  Where the sign of sdot
    forces flow through a zero intensity, the cell gives the +inf marker.  A
    susceptible value outside [0, 1] by more than ``_DENSITY_TOL`` raises
    ValueError.
    """
    A, B, up, _ = _sis_split(sdot, s_local, lam, alpha)
    return ell_scaled(A, lam) + ell_scaled(B, up)


# here only for bench/checks.py's import; the next benchmark change can move it to tests/oracles.py
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
            t1 = np.where(a == 0, 0.0, a * np.log(a / lam)) - a + lam
            t2 = np.where(b == 0, 0.0, b * np.log(b / up)) - b + up
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
    uses centered differences (one-sided at the endpoints), taken on stacks
    of ``_stack_slices(M)`` slices with one halo row on either side, and the time
    integral is trapezoidal.  Degenerate points give the infinity marker at
    the first infinite cell; a velocity whose square overflows raises
    NumericalError; a non-finite path entry, a path that is not (n_t, grid.M),
    or a horizon T that is not finite and > 0 raises ValueError.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != grid.M:
        raise ValueError(f"path must be (n_t, M) with M = {grid.M}, got {path.shape}")
    n_t = path.shape[0]
    if n_t < 3:
        raise ValueError("need at least 3 time slices")
    if not np.all(np.isfinite(path)):
        raise ValueError("path has a non-finite entry")
    _check_horizon(T)
    dt = T / (n_t - 1)
    K = _operator(kernel, grid)
    space, where, size = np.empty(n_t), None, _stack_slices(grid.M)
    for n0 in range(0, n_t, size):
        n1 = min(n0 + size, n_t)
        lo, hi = max(min(n0 - 1, n_t - 3), 0), min(max(n1 + 1, 3), n_t)  # >= 3 rows
        s = path[n0:n1]
        sdot = path_time_derivative(path[lo:hi], dt)[n0 - lo:n1 - lo]
        L = sis_lagrangian(sdot, s, sis_lambda_field(s, grid, K, params.beta), params.alpha)
        if where is None and np.isinf(L).any():
            n, i = np.unravel_index(int(np.argmax(L)), L.shape)
            where = ("L", n0 + n, i)
        space[n0:n1] = L @ grid.kappa_weights
    if where:
        return RateValue(np.inf, finite=False, where=where)
    return RateValue(float(_trapezoid(space, dx=dt)))
