"""Most-likely transition paths for the SIS model.

A pinned-endpoint discrete path s[n, i] over time nodes t_n = n T / K and
circle nodes theta_i is scored by the space-time quadrature of the SIS
Lagrangian; the exact gradient of that discrete action drives a truncated
Newton solve, conjugate gradients preconditioned in time.  The discretized
action is the source of truth; the Euler-Lagrange operators evaluated along
the converged path serve as an independent stationarity verification, not
as the solver.

The field W = K[1 - s] and the infection intensity lam = beta s W come
from one function, ``meanfield._sis_field``; every SIS consumer reads it,
``sis_lambda_field`` included.  The Lagrangian is an infimum over the flux
split: infection flux A = ``sis_A`` and recovery flux B with B - A = sdot
and A B = c = max(lam up, 0), up = alpha (1 - s), so D = A + B = sqrt(sdot^2
+ 4 c).  One function forms that split, ``rate_function._sis_split``, and
returns D with it; ``sis_lagrangian`` and the Euler-Lagrange operators read
it, and by the envelope theorem every derivative is a function of it:

    dL/dsdot = log(B / up),   d2L/dsdot2 = 1 / D,
    dA/dsdot = -A / D,        d2A/dsdot2 = 2 A B / D^3,
    M = dL/dlam = 1 - up / B, N = dL/ds at fixed lam = -alpha (1 - B / up),
    O = delta_A / B + alpha sdot / up.

Since A B = lam up at the split, L is the Legendre transform of the
Hamiltonian H = D - lam - up at the momentum p = dL/dsdot:

    L = sdot p - H,   p = log(B / up) = log(lam / A),

the two forms of p agreeing wherever lam up > 0.  The discrete action reads
each cell that way.  ``_interval_sides`` forms W, lam, up, c and the [0, 1]
range check once per path, and ``_side`` one interval side's p, D and
r = B / up: p gives the cells and the gradient's velocity route, r gives
M = 1 - 1 / r and N = -alpha (1 - r).  The Newton preconditioner reads the
D of the evaluation made at its iterate.

A solve's objective, ``_objective``, makes one ``_Workspace`` for all its
calls, which write it with ``out=``, one array per quantity, all views of
one allocation: W and lam, v, up and c, each side's A, B and D, the momentum
sum, the cells, the Frechet fields and G's two kernel terms, the kernel
products among them written by the operator's ``apply`` and ``apply_T``;
beside it the objective keeps the unpacked iterate and the preconditioner's
arrays, and _newton_cg its difference point and one scratch vector.  At
K = 200, M = 64 each (K, M) array is 100 KiB, and glibc hands the heap top
back to the system once more than 128 KiB is free there, so fresh
temporaries would fault their pages in again on every call.  What
``_newton_cg`` keeps across calls stays fresh: the gradient, which the
Hessian product (g(x + h p) - g) / h differences against the next call's,
the iterates and the returned path.  The start is evaluated once, value and
gradient together: a start of infinite action raises EndpointError, and the
start's value sets the gradient tolerance.

Nothing is floored: every field is the exact envelope derivative wherever
B > 0, and a cell with B = 0 is degenerate.  Tests check each field against a
finite-difference oracle, and G and O through the gradient and stationarity.

The stationarity identity checked by ``el_residual`` is

    sdd * d2L/dsdot2 + O - G = 0,

i.e. d/dt [dL/dsdot] = G with the time derivative expanded by the chain
rule; O is the directional derivative of dL/dsdot along the path's own
velocity field and therefore already carries the velocity factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import NumericalError
from .meanfield import _operator, _sis_field
from .rate_function import _flux_split, _sis_split, _split_state, path_time_derivative

#: The box of the path solve: interior slices stay in [_EPS_S, 1 - _EPS_S].
_EPS_S = 1e-8
_TINY = np.finfo(float).tiny  # the smallest normal float


class EndpointError(ValueError):
    """Endpoint profiles must lie strictly inside (0, 1), and the start path
    between them must have finite action."""


@dataclass
class PathProblem:
    """Pinned-endpoint action minimization data."""

    s0: np.ndarray
    sT: np.ndarray
    horizon: float
    K: int = 200

    def __post_init__(self):
        self.s0 = np.asarray(self.s0, dtype=float)
        self.sT = np.asarray(self.sT, dtype=float)
        for name, prof in (("initial", self.s0), ("final", self.sT)):
            if not (prof.size and np.all((prof > 0.0) & (prof < 1.0))):  # NaN fails both
                got = f"range [{np.min(prof):.3g}, {np.max(prof):.3g}]" if prof.size else "no values"
                raise EndpointError(f"{name} endpoint must satisfy 0 < s < 1, got {got}")
        if len(self.s0) != len(self.sT):
            raise EndpointError("endpoint grids differ in size")
        if not (0 < self.horizon < np.inf):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        if self.K < 3:
            raise ValueError(f"need K >= 3, got {self.K}")

    @property
    def M(self):
        return len(self.s0)

    def initial_path(self):
        """Linear interpolation between the endpoints; constant where they agree."""
        lam = np.linspace(0.0, 1.0, self.K + 1)[:, None]
        return self.s0 + lam * (self.sT - self.s0)


@dataclass
class ElOperators:
    """Analytic derivative fields of the Lagrangian along a path slice, or
    along an (n, M) stack of slices; NaN on degenerate cells."""

    dA_dsdot: np.ndarray
    d2A_dsdot2: np.ndarray
    dL_dsdot: np.ndarray
    d2L_dsdot2: np.ndarray
    M_field: np.ndarray
    N_field: np.ndarray
    G_field: np.ndarray
    delta_lam: np.ndarray
    delta_A: np.ndarray
    O_field: np.ndarray
    degenerate: np.ndarray


# --- pointwise analytic formulas ------------------------------------------

def _pointwise(split, alpha):
    """The pointwise fields of L(sdot, s, lam) at the optimal split
    (A, B, up, D) = ``_sis_split(sdot, s, lam, alpha)``: dL/dsdot = log r and
    the Frechet fields M, N of :func:`_frechet_fields`, all from r = B / up;
    then dA/dsdot = -A / D, d2A/dsdot2 = 2 (A / D) (B / D) / D and
    d2L/dsdot2 = 1 / D, where A, B <= D, so no intermediate overflows where
    D^3 would.  Vectorized."""
    A, B, up, D = split
    with np.errstate(divide="ignore", invalid="ignore"):
        r = B / up
        return (np.log(r), *_frechet_fields(r, alpha),
                -A / D, 2.0 * (A / D) * (B / D) / D, 1.0 / D)


def _frechet_fields(r, alpha, out=None):
    """M = dL/dlam = 1 - 1 / r and N = dL/ds at fixed lam = -alpha (1 - r)
    from r = B / up, written into ``out`` = (M, N) when given.  Vectorized."""
    Mf, Nf = out if out is not None else (np.empty(np.shape(r)), np.empty(np.shape(r)))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(1.0, np.divide(1.0, r, out=Mf), out=Mf)
        np.multiply(-alpha, np.subtract(1.0, r, out=Nf), out=Nf)
    return Mf, Nf


def _G_field(N, M, s, W, beta, Km, out=None):
    """Nonlocal G = N + beta M W - beta K^T[kappa M s] with W = K[1 - s], the
    first variation of int L dkappa in s at fixed sdot; s is (M,) or (n, M).
    A fresh array; ``out``, two arrays of G's shape, takes M s and
    K^T[kappa M s] when given."""
    G = np.multiply(beta, M)
    G *= W
    np.add(N, G, out=G)
    Ms, KTMs = (None, None) if out is None else out
    Ms = np.multiply(M, s, out=Ms)
    KTMs = Km.apply_T(Ms, out=KTMs)
    KTMs *= beta
    G -= KTMs
    return G


# --- slice-level operators --------------------------------------------------

def el_operators(sdot, s, params, kernel, grid) -> ElOperators:
    """Every Euler-Lagrange field on one slice or an (n, M) stack of slices.

    The sdot-derivatives of A and L, the Frechet fields M, N, the nonlocal
    G, the velocity-direction Frechet increments (delta_lam, delta_A) and
    the chain-rule field O; all are NaN where the recovery flux B is 0.
    """
    Km = _operator(kernel, grid)
    s = np.asarray(s, dtype=float)
    sdot = np.asarray(sdot, dtype=float)
    W, lam = _sis_field(s, grid, Km, params.beta)
    split = _sis_split(sdot, s, lam, params.alpha)
    dL, Mf, Nf, dA, d2A, d2L = _pointwise(split, params.alpha)
    _, B, _, D = split
    delta_lam = _frechet_lambda(s, sdot, W, params.beta, Km)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the Frechet increment of A along the velocity
        delta_A = params.alpha / D * (-lam * sdot + (1.0 - s) * delta_lam)
        O = delta_A / B + sdot / (1.0 - s)
        G = _G_field(Nf, Mf, s, W, params.beta, Km)  # M = -inf meets W = 0 on a zero kernel

    mask = ~(B > 0.0)
    fields = dict(dA_dsdot=dA, d2A_dsdot2=d2A, dL_dsdot=dL, d2L_dsdot2=d2L,
                  M_field=Mf, N_field=Nf, G_field=G,
                  delta_lam=delta_lam, delta_A=delta_A, O_field=O)
    for arr in fields.values():
        arr[mask] = np.nan
    return ElOperators(**fields, degenerate=mask)


def _frechet_lambda(s, x, W, beta, Km):
    """Frechet derivative of lam = beta s K[1 - s] in direction x, given the
    field W = K[1 - s] and the operator Km: x beta W - beta s K[x]."""
    return x * beta * W - beta * s * Km.apply(x)


def el_residual(path, params, kernel, grid, horizon):
    """Stationarity defect sdd * d2L/dsdot2 + O - G on interior time nodes.

    Returns (n_t, M) with NaN on the first and last rows, where the second
    time difference is not defined.  NumericalError where dt^2 is not a
    normal float (dt below about 1.5e-154): sdd would divide by 0.
    """
    path = np.asarray(path, dtype=float)
    dt = horizon / (path.shape[0] - 1)
    if not dt * dt >= _TINY:
        raise NumericalError(f"el_residual: the time step dt = {dt:.3g} squares below the "
                             f"smallest normal float, and the second time difference needs dt^2")
    sdot = path_time_derivative(path, dt)
    sdd = (path[2:] - 2.0 * path[1:-1] + path[:-2]) / (dt * dt)
    ops = el_operators(sdot[1:-1], path[1:-1], params, kernel, grid)
    out = np.full_like(path, np.nan)
    out[1:-1] = sdd * ops.d2L_dsdot2 + ops.O_field - ops.G_field
    return out


# --- discrete action and its exact gradient ---------------------------------

class _Workspace:
    """The arrays a discrete_action call on an (n_t, M) path writes and no
    caller keeps, one per quantity: W and lam (1 - s before it), the
    velocity v, the split state (up, c), each interval side's (A, B, D), the
    momentum sum P, the cells L, each side's Frechet fields (M, N), and G's
    M s and K^T[kappa M s]; the two flux splits take turns with one quotient
    array.  All are views of one allocation, about 2 MiB at the default
    grid: above glibc's mmap threshold, so freeing the first one raises
    that threshold and the trim threshold, and the workspaces of later
    solves come from a heap that is no longer trimmed between them.
    discrete_action alone makes a fresh one per call; ``_objective`` makes
    one per solve, which all its calls write, so that they do not grow the
    heap again.  ``sides`` holds the interval sides of the latest call, for
    the Newton preconditioner, which reads their D alone."""

    def __init__(self, n_t, M):
        K = n_t - 1
        rows = [n_t] * 4 + [K] * 10 + [K - 1] * 6
        (W, lam, up, c, v, quotient, A_lo, B_lo, D_lo, A_hi, B_hi, D_hi, P, L,
         M_lo, N_lo, M_hi, N_hi, Ms, KTMs) = np.split(np.empty((sum(rows), M)), np.cumsum(rows)[:-1])
        self.field, self.state, self.v, self.P, self.L = (W, lam), (up, c), v, P, L
        self.split = [(A_lo, B_lo, D_lo, quotient), (A_hi, B_hi, D_hi, quotient)]
        self.fields, self.G = [(M_lo, N_lo), (M_hi, N_hi)], (Ms, KTMs)
        self.sides = None


def _interval_sides(path, params, Km, grid, dt, work):
    """The one per-path frame of the discrete action and the Newton
    preconditioner: W = K[1 - s] on the (K + 1, M) path, the forward
    velocity v_n = (s_{n+1} - s_n)/dt, and each interval side as (lam, up, p,
    D, r), the low side at s_n, the high side at s_{n+1}.  W, lam, (up, c) and
    the range check are formed once and sliced; :func:`_side` does the rest.
    Every array is a buffer of the :class:`_Workspace` ``work``."""
    v = np.subtract(path[1:], path[:-1], out=work.v)
    v /= dt
    W, lam = _sis_field(path, grid, Km, params.beta, work.field)
    up, c = _split_state(path, lam, params.alpha, work.state)
    return W, v, [(lam[sl], up[sl], *_side(v, lam[sl], up[sl], c[sl], out))
                  for sl, out in zip((np.s_[:-1], np.s_[1:]), work.split)]


def _side(v, lam, up, c, out):
    """One interval side at velocity v and state (lam, up, c): the momentum
    p = dL/dsdot, D of the flux split and r = B / up, in the split's buffers
    ``out`` = (A, B, D, work).  p = log(lam / A) where v < 0 and log r
    elsewhere: equal wherever lam up > 0, and the first is finite at s = 1
    (B = up = 0)."""
    A, B, _, D = _flux_split(v, up, c, out)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(B, up, out=B)
        p = np.divide(lam, A, out=A)
        np.copyto(p, r, where=v >= 0)
        return np.log(p, out=p), D, r


def discrete_action(path, params, kernel, grid, horizon, with_grad=False, *, _work=None):
    """Interval-based trapezoid quadrature of the action and its gradient.

    H = sum_n (dt/2) int [ L(v_n, s_n) + L(v_n, s_{n+1}) ] dkappa with the
    forward-difference velocity v_n = (s_{n+1} - s_n)/dt.  This is the
    exact action of the piecewise-linear interpolant under trapezoid
    quadrature: second-order accurate and variationally compatible, so the
    discrete minimizer has no spurious boundary layer.  (A centered-
    difference quadrature looks natural but its minimizers develop an
    O(1/dt) stationarity defect at the pinned end; see the tests.)

    Each cell is read off its side of :func:`_side` by the Legendre identity
    L = v p - H, H = D - lam - up, with v p = 0 where v = 0; +inf if the sum
    is not finite.  With ``with_grad`` also returns the exact gradient with
    respect to the interior slices, a fresh array, non-finite next to a cell
    with B = 0: K[1 - s] serves lam and both sides of G, and K^T is applied
    once to the sum of both sides.  ``_work`` exists only for the solve's
    objective, :func:`_objective`: a :class:`_Workspace` of the path's shape
    whose buffers the call writes, and whose ``sides`` receives the interval
    sides for the Newton preconditioner, which reads D there.
    """
    path = np.asarray(path, dtype=float)
    n_t, M = path.shape
    dt = horizon / (n_t - 1)
    Km = _operator(kernel, grid)
    kw = grid.kappa_weights
    work = _Workspace(n_t, M) if _work is None else _work
    W, v, sides = _interval_sides(path, params, Km, grid, dt, work)
    work.sides = sides
    (_, _, p_lo, _, r_lo), (_, _, p_hi, _, r_hi) = sides
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf next to a cell with B = 0
        P = np.add(p_lo, p_hi, out=work.P)
        L = np.multiply(v, P, out=work.L)
        np.copyto(L, 0.0, where=v == 0)
        for lam, up, _, D, _ in sides:  # in place: one (K, M) buffer
            L += lam
            L += up
            L -= D
        action = float(0.5 * dt * (L @ kw).sum())
    action = action if np.isfinite(action) else np.inf
    if not with_grad:
        return action
    if action == np.inf:
        return action, np.full((n_t - 2, M), np.nan)

    with np.errstate(invalid="ignore"):  # a cell with B = 0 makes the gradient NaN
        # slice route: s_m is the high side of interval m - 1 and the low side of interval m
        lo, hi = work.fields
        Mf, Nf = _frechet_fields(r_lo[1:], params.alpha, lo)
        for F, F_hi in zip((Mf, Nf), _frechet_fields(r_hi[:-1], params.alpha, hi)):
            F += F_hi
        grad = _G_field(Nf, Mf, path[1:-1], W[1:-1], params.beta, Km, work.G)
        grad *= 0.5 * dt * kw
        # velocity route: dv_n/ds_{n+1} = 1/dt, dv_n/ds_n = -1/dt
        P *= 0.5 * kw                                       # (K, M), dt cancels
        grad += P[:-1]
        grad -= P[1:]
    return action, grad


_CG_MAX = 40       # CG steps per Newton step
_FD_STEP = 1e-7    # max-norm size of the difference step in H v
_TO_BOX = 0.99     # share of the distance to the box one step may cover


@dataclass
class ActionOptions:
    max_iters: int = 20000
    tol_grad: float = 1e-6
    initial_path: np.ndarray = None


@dataclass
class ActionResult:
    path: np.ndarray
    action: float
    el_residual: np.ndarray  # el_residual of path: NaN on its end slices
    diagnostics: dict


def _room(x, d, lo, hi, out=None):
    """The largest t >= 0 with lo <= x + t d <= hi; ``out``, an array of x's
    shape, takes the distances to the faces when given."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.subtract(hi, x, out=out)
        np.subtract(lo, x, out=t, where=~(d > 0))
        t /= d
        return float(np.min(t, initial=np.inf, where=d != 0))


def _newton_cg(fun, x0, first, lo, hi, precondition, maxiter, gtol):
    """Truncated Newton for ``fun(x) -> (f, g)`` on the box [lo, hi], from x0
    and ``first``, the list [f0, g0] of fun(x0), which the caller has made
    and which counts as the first gradient evaluation; it is emptied, so
    that nothing keeps g0 once the first step replaces it.  CG on
    H d = -g, preconditioned by ``precondition()``, with H v a forward
    difference of g, stops at the forcing tolerance min(0.5, sqrt|g|) |g|
    or on non-positive curvature, which includes a direction that leaves
    the box at once (then the first step is the preconditioned gradient);
    Armijo backtracking follows, and
    the accepted trial's gradient is kept.  ``precondition()`` is called
    right after the evaluation at the current iterate: the caller's at x0,
    else the accepted trial's.  A non-finite gradient,
    preconditioned gradient or curvature stops the solve.  Returns the last
    iterate, its f and g, and the solve's diagnostics entries
    (``action_history``: f after each accepted step).  ``fun`` returns a
    fresh g and keeps nothing of its x: the difference point x + h p is
    formed in a buffer of the solve, and g(x + h p) - g in place."""
    probe, tmp = np.empty(np.shape(x0)), np.empty(np.shape(x0))  # x + h p; each product's scratch
    x, (f, g) = x0, first
    first.clear()
    nit, cg_iters, evals, message, history = 0, 0, 1, "iteration limit reached", []
    while not np.max(np.abs(g)) <= gtol and nit < maxiter:
        if not np.all(np.isfinite(g)):
            message = "non-finite gradient"
            break
        solve, d, r = precondition(), np.zeros_like(x), -g
        p = z = solve(r)
        with np.errstate(over="ignore", invalid="ignore"):
            rz = r @ z
        if not np.isfinite(rz):  # z or r z overflowed, at a dt far above the solve's scale
            message = "non-finite Newton direction"
            break
        gnorm = np.linalg.norm(g)
        for j in range(_CG_MAX):
            size = np.max(np.abs(p, out=tmp))
            h = min(_FD_STEP / size, 0.5 * _room(x, p, lo, hi, tmp)) if size > 0.0 else 0.0
            if h > 0.0:
                Hp, evals = fun(np.add(x, np.multiply(h, p, out=probe), out=probe))[1], evals + 1
                Hp -= g
                Hp /= h
                with np.errstate(over="ignore", invalid="ignore"):  # p and Hp near the float range
                    curv = p @ Hp
            else:  # p is zero or leaves the box at once: no curvature to measure along it
                curv = 0.0
            if not np.isfinite(curv):
                d = None
                break
            if not curv > 0.0:
                if j == 0:
                    d = z
                break
            d += np.multiply(rz / curv, p, out=tmp)
            r -= np.multiply(rz / curv, Hp, out=tmp)
            if np.linalg.norm(r) <= min(0.5, np.sqrt(gnorm)) * gnorm:
                break
            z = solve(r)
            rz, rz_old = r @ z, rz
            p = z + np.multiply(rz / rz_old, p, out=tmp)
        cg_iters += j + 1
        if d is None:
            message = "non-finite curvature"
            break
        step, slope = min(1.0, _TO_BOX * _room(x, d, lo, hi, tmp)), g @ d
        while step > 1e-12:
            trial = x + np.multiply(step, d, out=tmp)
            (f_trial, g_trial), evals = fun(trial), evals + 1
            if f_trial < f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            message = "line search failed"
            break
        x, f, g, nit = trial, f_trial, g_trial, nit + 1
        history.append(float(f))
    success = bool(np.max(np.abs(g)) <= gtol)
    diag = {"iters": nit, "cg_iters": cg_iters, "grad_evals": evals,
            "converged": success, "action_history": history}
    if not success:
        diag["warning"] = f"gradient tolerance not reached ({message}); returning the last iterate"
    return x, f, g, diag


def _objective(start, params, Km, grid, horizon):
    """``fun`` and ``precondition`` of :func:`_newton_cg` for the discrete
    action over the interior slices of paths with ``start``'s pinned ends.
    Their buffers are made here, once per solve, and rewritten by every
    call: the solve's :class:`_Workspace`, whose sides the preconditioner
    reads, the unpacked iterate and the preconditioner's weights.  The
    gradient stays fresh, since _newton_cg differences it against the next
    call's."""
    n_t, M = start.shape
    dt = horizon / (n_t - 1)
    work = _Workspace(n_t, M)
    iterate, (inv, q, qi) = start.copy(), (np.empty((n_t - 1, M)) for _ in range(3))

    def fun(x):
        iterate[1:-1] = x.reshape(n_t - 2, M)
        a, g = discrete_action(iterate, params, Km, grid, horizon, with_grad=True, _work=work)
        return a, g.ravel()

    def precondition():
        """Solver of E^T diag(c) E y = r per circle node, with E the pinned-end
        time difference and c = kappa (d2L_lo + d2L_hi) / (2 dt), d2L = 1 / D,
        per interval: the flux q = c E y has E^T q = r, so q is minus the running
        sum of r plus a constant, which the pinned ends fix: sum_n q_n / c_n = 0.
        A node whose every interval has D = 0 gets a zero step.  _newton_cg
        calls it right after fun at its current iterate, so it reads the D of
        that evaluation's sides and splits no path itself.  The weights c^-1, q
        and q c^-1 are formed in buffers of the solve."""
        D_lo, D_hi = (D for _, _, _, D, _ in work.sides)
        # at a dt near the float range inv and q overflow, and _newton_cg stops
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(np.multiply(2.0 * dt, D_lo, out=inv), D_hi, out=inv)
            np.divide(inv, np.multiply(grid.kappa_weights, np.add(D_lo, D_hi, out=q), out=q), out=inv)
            np.nan_to_num(inv, copy=False)
            total = inv.sum(axis=0)

        def solve(r):
            """A fresh z: _newton_cg keeps it as its CG direction."""
            with np.errstate(over="ignore", invalid="ignore"):
                q[0] = 0.0
                q[1:] = r.reshape(n_t - 2, M)
                np.negative(np.cumsum(q, axis=0, out=q), out=q)
                np.subtract(q, np.divide(np.multiply(q, inv, out=qi).sum(axis=0), total,
                                         out=np.zeros(M), where=total > 0), out=q)
                return np.cumsum(np.multiply(q[:-1], inv[:-1], out=qi[:-1]), axis=0).ravel()
        return solve

    return fun, precondition


def minimize_action(problem: PathProblem, params, kernel, grid,
                    opts: ActionOptions = None) -> ActionResult:
    """Locally minimize the discrete action between pinned endpoints.

    Truncated Newton (``_newton_cg``, at most ``opts.max_iters`` steps) on
    the clamped box, from the linear interpolation unless a (K + 1, M) guess
    is given; its end slices are replaced by ``problem.s0`` and ``problem.sT``.
    When the gradient tolerance is not met, returns the last iterate with a
    warning in the diagnostics.
    """
    opts = opts or ActionOptions()
    Km = _operator(kernel, grid)
    n_t, M = problem.K + 1, problem.M
    lo, hi = _EPS_S, 1.0 - _EPS_S

    start = problem.initial_path() if opts.initial_path is None else np.array(opts.initial_path, dtype=float)
    if start.shape != (n_t, M):
        raise ValueError(f"initial path has shape {start.shape}, expected {(n_t, M)}")
    start = np.clip(start, lo, hi)
    start[0], start[-1] = problem.s0, problem.sT
    fun, precondition = _objective(start, params, Km, grid, problem.horizon)
    x0 = start[1:-1].ravel()
    first = list(fun(x0))  # [f0, g0]: the value is formed before the gradient, as in a value-only call
    f0 = first[0]
    if not np.isfinite(f0):
        raise EndpointError("initial path has infinite action: it needs a flux through "
                            "a zero intensity, e.g. s falling where lam = 0")
    tol = opts.tol_grad * max(1.0, abs(f0))

    x, f, g, stats = _newton_cg(fun, x0, first, lo, hi, precondition, opts.max_iters, tol)
    del fun, precondition  # the solve's buffers make room for el_residual's fields
    path = start.copy()
    path[1:-1] = x.reshape(n_t - 2, M)
    residual = el_residual(path, params, Km, grid, problem.horizon)
    diag = {
        "action": float(f),
        "grad_norm": float(np.max(np.abs(g))),
        "grad_tol": tol,
        "el_residual_max": float(np.fmax.reduce(np.abs(residual), axis=None)),  # NaN if all degenerate
        **stats,
    }
    return ActionResult(path=path, action=float(f), el_residual=residual, diagnostics=diag)


def __getattr__(name):
    # read only by the hook in bench/tracing.py; the next benchmark change deletes both
    if name == "scipy_minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
