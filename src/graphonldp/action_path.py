"""Most-likely transition paths for the SIS model.

A pinned-endpoint discrete path s[n, i] over time nodes t_n = n T / K and
circle nodes theta_i is scored by the space-time quadrature of the SIS
Lagrangian; the exact gradient of that discrete action drives a truncated
Newton solve, conjugate gradients preconditioned in time.  The discretized
action is the source of truth; the Euler-Lagrange operators evaluated along
the converged path serve as an independent stationarity verification, not
as the solver.

The analytic derivative formulas (A and L partials in sdot and the Frechet
fields M, N) are long hand-derived expressions; the test suite checks each
one against its defining finite-difference oracle.  The nonlocal G and the
chain-rule field O are built from these and are verified through the
gradient and stationarity tests.

The stationarity identity checked by ``el_residual`` is

    sdd * d2L/dsdot2 + O - G = 0,

i.e. d/dt [dL/dsdot] = G with the time derivative expanded by the chain
rule; O is the directional derivative of dL/dsdot along the path's own
velocity field and therefore already carries the velocity factor.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .meanfield import _operator, field_from_density, sis_lambda_field
from .rate_function import _sis_disc2, path_time_derivative, sis_A, sis_lagrangian

#: Floor of the action layer: the path solve stays in [_EPS_S, 1 - _EPS_S],
#: the derivative fields floor A and lam at it inside their logarithms, and
#: a cell with lam (1 - s) at or below it is degenerate.
_EPS_S = 1e-8


class EndpointError(ValueError):
    """Endpoint profiles must lie strictly inside (0, 1)."""


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
            if prof.min() <= 0.0 or prof.max() >= 1.0:
                raise EndpointError(
                    f"{name} endpoint must satisfy 0 < s < 1, got range "
                    f"[{prof.min():.3g}, {prof.max():.3g}]")
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
        """Linear interpolation between the endpoints."""
        lam = np.linspace(0.0, 1.0, self.K + 1)[:, None]
        return (1.0 - lam) * self.s0[None, :] + lam * self.sT[None, :]


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

class _Pointwise(NamedTuple):
    D: np.ndarray
    lr: np.ndarray        # log(lam / A), both floored at _EPS_S
    Asafe: np.ndarray
    lamsafe: np.ndarray
    bracket: np.ndarray
    dA: np.ndarray
    d2A: np.ndarray
    dL: np.ndarray
    d2L: np.ndarray
    M: np.ndarray
    N: np.ndarray


def _pointwise(sdot, s, lam, alpha):
    """A, D, log(lam/A), the A and L derivatives in sdot at fixed (s, lam),
    and the Frechet coefficient fields of dL = M dlam + x(theta) N;
    vectorized."""
    up = alpha * (1.0 - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc2 = _sis_disc2(sdot, s, lam, alpha)[1]
        D = np.sqrt(disc2)
        A = sis_A(sdot, s, lam, alpha)
        Asafe = np.maximum(A, _EPS_S)
        lamsafe = np.maximum(lam, _EPS_S)
        lr = np.log(lamsafe) - np.log(Asafe)
        bracket = 1.0 + up * lam / (Asafe * Asafe)

        dA = -0.5 + 0.5 * sdot / D
        d2A = 0.5 / D - 0.5 * sdot * sdot / (D * disc2)
        dL = -dA * lr * bracket
        d2L = (-d2A * lr * bracket
               + dA * dA * (1.0 / Asafe
                            + 2.0 * up * lam / Asafe ** 3 * lr
                            + up * lam / Asafe ** 3))

        x2 = A / lamsafe
        ell_A_over_lam = -x2 * lr - x2 + 1.0
        M = (ell_A_over_lam
             + (up / Asafe + A / lamsafe) * lr
             + up / D * lr * (-up * lam / (Asafe * Asafe) - 1.0))
        x1 = lam / Asafe
        ell_lam_over_A = x1 * lr - x1 + 1.0
        N = -alpha * ell_lam_over_A + alpha * lam / D * lr * (up * lam / (Asafe * Asafe) + 1.0)
    return _Pointwise(D, lr, Asafe, lamsafe, bracket, dA, d2A, dL, d2L, M, N)


def _G_field(pw, s, beta, grid, Km):
    """Nonlocal G = N + beta M K[1 - s] - beta K^T[kappa M s], the first
    variation of int L dkappa in s at fixed sdot; s is (M,) or (n, M)."""
    return (pw.N + beta * pw.M * field_from_density(grid, Km, 1.0 - s)
            - beta * Km.apply_T(pw.M * s))


def _delta_A(pw, s, lam, x, dlam, alpha):
    """alpha D^-1 (-lam x(theta) + (1 - s) dlam), with dlam the Frechet
    derivative of lam in direction x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return alpha / pw.D * (-lam * x + (1.0 - s) * dlam)


# --- slice-level operators --------------------------------------------------

def el_operators(sdot, s, params, kernel, grid) -> ElOperators:
    """Every Euler-Lagrange field on one slice or an (n, M) stack of slices.

    The sdot-derivatives of A and L, the Frechet fields M, N, the nonlocal
    G, the velocity-direction Frechet increments (delta_lam, delta_A) and
    the chain-rule field O; all are NaN where lam (1 - s) vanishes.
    """
    Km = _operator(kernel, grid)
    s = np.asarray(s, dtype=float)
    sdot = np.asarray(sdot, dtype=float)
    alpha = params.alpha
    lam = sis_lambda_field(s, grid, Km, params.beta)
    pw = _pointwise(sdot, s, lam, alpha)
    delta_lam = frechet_lambda(s, sdot, params, Km, grid)
    delta_A = _delta_A(pw, s, lam, sdot, delta_lam, alpha)
    dA, lr, bracket, Asafe, D = pw.dA, pw.lr, pw.bracket, pw.Asafe, pw.D
    with np.errstate(divide="ignore", invalid="ignore"):
        O = (dA * bracket * (delta_A / Asafe - delta_lam / pw.lamsafe)
             + alpha * sdot * lr * bracket * D ** -3 * ((1.0 - s) * delta_lam - lam * sdot)
             + alpha * dA * lr * (sdot * lam / Asafe ** 2
                                  + 2.0 * (1.0 - s) * lam * delta_A / Asafe ** 3
                                  - (1.0 - s) * delta_lam / Asafe ** 2))

    mask = (lam * (1.0 - s)) <= _EPS_S
    fields = dict(dA_dsdot=dA, d2A_dsdot2=pw.d2A, dL_dsdot=pw.dL, d2L_dsdot2=pw.d2L,
                  M_field=pw.M, N_field=pw.N, G_field=_G_field(pw, s, params.beta, grid, Km),
                  delta_lam=delta_lam, delta_A=delta_A, O_field=O)
    for arr in fields.values():
        arr[mask] = np.nan
    return ElOperators(**fields, degenerate=mask)


def frechet_lambda(s, x, params, kernel, grid):
    """Frechet derivative of the infection intensity in direction x:
    x(theta) beta int J(theta, z)(1 - s(z)) dmu - beta s(theta) int J(theta, z) x(z) dmu."""
    Km = _operator(kernel, grid)
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    return (x * params.beta * field_from_density(grid, Km, 1.0 - s)
            - params.beta * s * field_from_density(grid, Km, x))


def frechet_A(sdot, s, x, params, kernel, grid):
    """Frechet derivative of the inner minimizer A in direction x:
    alpha D^-1 (-lam x(theta) + (1 - s) Dlam . x)."""
    Km = _operator(kernel, grid)
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = sis_lambda_field(s, grid, Km, params.beta)
    pw = _pointwise(np.asarray(sdot, dtype=float), s, lam, params.alpha)
    return _delta_A(pw, s, lam, x, frechet_lambda(s, x, params, Km, grid), params.alpha)


def el_residual(path, params, kernel, grid, horizon):
    """Stationarity defect sdd * d2L/dsdot2 + O - G on interior time nodes.

    Returns (n_t, M) with NaN on the first and last rows, where the second
    time difference is not defined.
    """
    path = np.asarray(path, dtype=float)
    dt = horizon / (path.shape[0] - 1)
    sdot = path_time_derivative(path, dt)
    sdd = (path[2:] - 2.0 * path[1:-1] + path[:-2]) / (dt * dt)
    ops = el_operators(sdot[1:-1], path[1:-1], params, kernel, grid)
    out = np.full_like(path, np.nan)
    out[1:-1] = sdd * ops.d2L_dsdot2 + ops.O_field - ops.G_field
    return out


# --- discrete action and its exact gradient ---------------------------------

def _slice_fields(sdot, s, lam, params, grid, Km):
    """dL/dsdot and the nonlocal G for one batch of (velocity, slice)
    pairs; arrays are (n, M)."""
    pw = _pointwise(sdot, s, lam, params.alpha)
    return pw.dL, _G_field(pw, s, params.beta, grid, Km)


def discrete_action(path, params, kernel, grid, horizon, with_grad=False):
    """Interval-based trapezoid quadrature of the action and its gradient.

    H = sum_n (dt/2) int [ L(v_n, s_n) + L(v_n, s_{n+1}) ] dkappa with the
    forward-difference velocity v_n = (s_{n+1} - s_n)/dt.  This is the
    exact action of the piecewise-linear interpolant under trapezoid
    quadrature: second-order accurate and variationally compatible, so the
    discrete minimizer has no spurious boundary layer.  (A centered-
    difference quadrature looks natural but its minimizers develop an
    O(1/dt) stationarity defect at the pinned end; see the tests.)

    With ``with_grad`` also returns the exact gradient with respect to the
    interior slices.
    """
    path = np.asarray(path, dtype=float)
    n_t, M = path.shape
    dt = horizon / (n_t - 1)
    Km = _operator(kernel, grid)
    kw = grid.kappa_weights
    alpha = params.alpha

    v = (path[1:] - path[:-1]) / dt                     # (K, M)
    lam = sis_lambda_field(path, grid, Km, params.beta)  # (n_t, M)
    L_lo = sis_lagrangian(v, path[:-1], lam[:-1], alpha)
    L_hi = sis_lagrangian(v, path[1:], lam[1:], alpha)
    if not (np.all(np.isfinite(L_lo)) and np.all(np.isfinite(L_hi))):
        if not with_grad:
            return np.inf
        return np.inf, np.full((n_t - 2, M), np.nan)
    action = float(0.5 * dt * ((L_lo + L_hi) @ kw).sum())
    if not with_grad:
        return action

    dL_lo, G_lo = _slice_fields(v, path[:-1], lam[:-1], params, grid, Km)
    dL_hi, G_hi = _slice_fields(v, path[1:], lam[1:], params, grid, Km)
    grad = np.zeros((n_t, M))
    # slice route: s_m enters interval m-1 on the high side, interval m low
    grad[1:-1] += 0.5 * dt * kw[None, :] * (G_hi[:-1] + G_lo[1:])
    # velocity route: dv_n/ds_{n+1} = 1/dt, dv_n/ds_n = -1/dt
    C = 0.5 * kw[None, :] * (dL_lo + dL_hi)            # (K, M), dt cancels
    grad[1:] += C
    grad[:-1] -= C
    return action, grad[1:-1]


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
    diagnostics: dict = field(default_factory=dict)


def _room(x, d, lo, hi):
    """The largest t >= 0 with lo <= x + t d <= hi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(np.where(d > 0, hi - x, lo - x) / d, initial=np.inf, where=d != 0))


# history: the objective after each accepted step
_NewtonResult = namedtuple("_NewtonResult", "x fun jac nit nfev cg_iters success message history")


def _newton_cg(fun, x0, lo, hi, precondition, maxiter, gtol):
    """Truncated Newton for ``fun(x) -> (f, g)`` on the box [lo, hi].  CG on
    H d = -g, preconditioned by ``precondition(x)``, with H v a forward
    difference of g, stops at the forcing tolerance min(0.5, sqrt|g|) |g| or
    on non-positive curvature, which includes a direction that leaves the box
    at once (then the first step is the preconditioned gradient); Armijo
    backtracking follows, and the accepted trial's gradient is kept."""
    x, (f, g) = x0, fun(x0)
    nit, cg_iters, evals, message, history = 0, 0, 1, "iteration limit reached", []
    while np.max(np.abs(g)) > gtol and nit < maxiter:
        solve, gnorm = precondition(x), np.linalg.norm(g)
        d, r = np.zeros_like(x), -g
        p = z = solve(r)
        rz = r @ z
        for j in range(_CG_MAX):
            h = min(_FD_STEP / np.max(np.abs(p)), 0.5 * _room(x, p, lo, hi))
            if h > 0.0:
                Hp, evals = (fun(x + h * p)[1] - g) / h, evals + 1
                curv = p @ Hp
            else:  # p leaves the box at once: no curvature to measure along it
                curv = 0.0
            if not curv > 0.0:
                if j == 0:
                    d = z
                break
            d, r = d + (rz / curv) * p, r - (rz / curv) * Hp
            if np.linalg.norm(r) <= min(0.5, np.sqrt(gnorm)) * gnorm:
                break
            z = solve(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        cg_iters += j + 1
        step, slope = min(1.0, _TO_BOX * _room(x, d, lo, hi)), g @ d
        while step > 1e-12:
            (f_trial, g_trial), evals = fun(x + step * d), evals + 1
            if f_trial < f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            message = "line search failed"
            break
        x, f, g, nit = x + step * d, f_trial, g_trial, nit + 1
        history.append(float(f))
    success = bool(np.max(np.abs(g)) <= gtol)
    return _NewtonResult(x, f, g, nit, evals, cg_iters, success,
                         "gradient tolerance reached" if success else message, history)


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
    dt = problem.horizon / problem.K
    lo, hi = _EPS_S, 1.0 - _EPS_S

    start = problem.initial_path() if opts.initial_path is None else np.array(opts.initial_path, dtype=float)
    if start.shape != (n_t, M):
        raise ValueError(f"initial path has shape {start.shape}, expected {(n_t, M)}")
    start = np.clip(start, lo, hi)
    start[0], start[-1] = problem.s0, problem.sT
    a0 = discrete_action(start, params, Km, grid, problem.horizon)
    if not np.isfinite(a0):
        raise ValueError("initial path has infinite action; move endpoints off the boundary")
    tol = opts.tol_grad * max(1.0, abs(a0))

    def unpack(x):
        p = start.copy()
        p[1:-1] = x.reshape(n_t - 2, M)
        return p

    def fun(x):
        a, g = discrete_action(unpack(x), params, Km, grid, problem.horizon, with_grad=True)
        return a, g.ravel()

    def precondition(x):
        """Solver of D^T diag(c) D y = r per circle node, with D the pinned-end
        time difference and c = kappa (d2L_lo + d2L_hi) / (2 dt) per interval:
        the flux q = c D y has D^T q = r, so q is minus the running sum of r
        plus a constant, which the pinned ends fix: sum_n q_n / c_n = 0."""
        path = unpack(x)
        v, lam = (path[1:] - path[:-1]) / dt, sis_lambda_field(path, grid, Km, params.beta)
        inv = 2.0 * dt / (grid.kappa_weights * (_pointwise(v, path[:-1], lam[:-1], params.alpha).d2L
                                                + _pointwise(v, path[1:], lam[1:], params.alpha).d2L))
        total = inv.sum(axis=0)

        def solve(r):
            q = -np.cumsum(np.vstack([np.zeros(M), r.reshape(n_t - 2, M)]), axis=0)
            q -= (q * inv).sum(axis=0) / total
            return np.cumsum(q * inv, axis=0)[:-1].ravel()
        return solve

    res = _newton_cg(fun, start[1:-1].ravel(), lo, hi, precondition, opts.max_iters, tol)
    path = unpack(res.x)
    residual = el_residual(path, params, Km, grid, problem.horizon)
    diag = {
        "action": float(res.fun),
        "grad_norm": float(np.max(np.abs(res.jac))),
        "grad_tol": tol,
        "el_residual_max": float(np.nanmax(np.abs(residual))),
        "iters": int(res.nit),
        "cg_iters": int(res.cg_iters),
        "grad_evals": int(res.nfev),
        "converged": res.success,
        "action_history": res.history,
    }
    if not res.success:
        diag["warning"] = f"gradient tolerance not reached ({res.message}); returning the last iterate"
    return ActionResult(path=path, action=float(res.fun), diagnostics=diag)


def __getattr__(name):
    # read only by the hook in bench/tracing.py; the next benchmark change deletes both
    if name == "scipy_minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
