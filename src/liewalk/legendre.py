"""Log moment generating function and its convex conjugate.

For a finitely supported law the log-MGF is everywhere finite and the
conjugate sup_lambda <lambda, x> - Lambda(lambda) is finite exactly on the
convex hull of the support.  Points are classified by linear programming
(inside / boundary / outside, tolerance 1e-9); interior values come from a
damped Newton iteration on the concave dual objective restricted to the
affine hull of the support (the objective is unbounded in directions the
support cannot see), and boundary values are computed on the minimal face
with the original sub-probability weights, matching the limit value of the
conjugate there.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from .distributions import IncrementDistribution
from .errors import InvalidArgumentError, NonConvergenceError
from .lie import AlgebraVector, _frobenius_norms

DOMAIN_TOL = 1e-9
GRAD_TOL = 1e-8       # stationarity tolerance of the dual optimizer
DIVERGENCE_NORM = 1e6


def log_mgf(dist: IncrementDistribution, lam: AlgebraVector) -> float:
    """Lambda(lambda) = log sum_i w_i e^{<lambda, X_i>} with max-shift."""
    scores = np.array([lam.inner(a) for a in dist.atoms])
    logs = np.log(np.array(dist.weights)) + scores
    top = logs.max()
    return float(top + np.log(np.exp(logs - top).sum()))


@dataclass(frozen=True)
class SupportGeometry:
    """Affine-hull frame of the support: x = xbar + sum_j t_j U_j."""

    xbar: np.ndarray          # (d, d) weighted mean of the atoms
    frame: np.ndarray         # (r, d, d) orthonormal directions spanning the hull
    atom_coords: np.ndarray   # (k, r)
    log_weights: np.ndarray   # (k,)

    @property
    def rank(self) -> int:
        return self.frame.shape[0]

    def to_coords(self, x: np.ndarray):
        """Frame coordinates of x - xbar and the off-hull residual norm."""
        diff = (x - self.xbar).ravel()
        if self.rank == 0:
            return np.zeros(0), float(np.linalg.norm(diff))
        flat = self.frame.reshape(self.rank, -1)
        t = flat @ diff
        residual = float(np.linalg.norm(diff - flat.T @ t))
        return t, residual

    def from_lambda_coords(self, c: np.ndarray) -> np.ndarray:
        return np.tensordot(c, self.frame, axes=1)


@lru_cache(maxsize=128)
def _support_geometry(dist: IncrementDistribution) -> SupportGeometry:
    stack = dist.atom_stack()
    w = np.array(dist.weights)
    xbar = np.tensordot(w, stack, axes=1)
    centered = (stack - xbar).reshape(len(w), -1)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    keep = s > 1e-12 * max(1.0, s[0] if s.size else 0.0)
    frame = vt[keep].reshape(-1, dist.dim, dist.dim)
    coords_ = centered @ vt[keep].T + 0.0
    return SupportGeometry(xbar=xbar, frame=frame, atom_coords=coords_,
                           log_weights=np.log(w))


# ---------------------------------------------------------------------------
# domain classification by linear programming

def _lp_feasibility_slack(geom: SupportGeometry, t: np.ndarray) -> float:
    """Minimal sup-norm slack s with sum nu = 1, |A^T nu - t|_inf <= s, nu >= 0."""
    k, r = geom.atom_coords.shape
    # variables: nu_1..nu_k, s
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * r, k + 1))
    b_ub = np.zeros(2 * r)
    a_ub[:r, :k] = geom.atom_coords.T
    a_ub[:r, -1] = -1.0
    b_ub[:r] = t
    a_ub[r:, :k] = -geom.atom_coords.T
    a_ub[r:, -1] = -1.0
    b_ub[r:] = -t
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * k + [(0, None)], method="highs")
    if not res.success:
        raise NonConvergenceError(f"feasibility LP failed: {res.message}")
    return float(res.fun)


def _lp_min_weight(geom: SupportGeometry, t: np.ndarray, tol: float) -> float:
    """Max over representations of the minimum atom weight (relative-interior test)."""
    k, r = geom.atom_coords.shape
    # variables: nu_1..nu_k, tmin ; maximize tmin
    c = np.zeros(k + 1)
    c[-1] = -1.0
    rows = []
    rhs = []
    rows.append(np.concatenate([geom.atom_coords.T, -np.zeros((r, 1))], axis=1))
    rhs.append(t + tol)
    rows.append(np.concatenate([-geom.atom_coords.T, -np.zeros((r, 1))], axis=1))
    rhs.append(tol - t)
    nu_rows = np.zeros((k, k + 1))
    nu_rows[:, :k] = -np.eye(k)
    nu_rows[:, -1] = 1.0
    rows.append(nu_rows)           # tmin - nu_i <= 0
    rhs.append(np.zeros(k))
    a_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * k + [(None, None)], method="highs")
    if not res.success:
        raise NonConvergenceError(f"interior LP failed: {res.message}")
    return float(-res.fun)


def _lp_max_atom(geom: SupportGeometry, t: np.ndarray, tol: float, i: int) -> float:
    """Max of nu_i over representations of t (minimal-face membership test)."""
    k, r = geom.atom_coords.shape
    c = np.zeros(k)
    c[i] = -1.0
    a_ub = np.vstack([geom.atom_coords.T, -geom.atom_coords.T])
    b_ub = np.concatenate([t + tol, tol - t])
    a_eq = np.ones((1, k))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * k, method="highs")
    if not res.success:
        return 0.0
    return float(-res.fun)


def domain_check(dist: IncrementDistribution, x: AlgebraVector,
                 tol: float = DOMAIN_TOL) -> str:
    """Classify x against the convex hull of the support: inside|boundary|outside."""
    if x.dim != dist.dim:
        raise InvalidArgumentError("dimension mismatch between x and the support")
    geom = _support_geometry(dist)
    t, residual = geom.to_coords(x.entries)
    if residual > tol:
        return "outside"
    if geom.rank == 0:
        return "inside" if np.linalg.norm(t) <= tol else "outside"
    if _lp_feasibility_slack(geom, t) > tol:
        return "outside"
    return "inside" if _lp_min_weight(geom, t, tol) > tol else "boundary"


def minimal_face(dist: IncrementDistribution, x: AlgebraVector,
                 tol: float = DOMAIN_TOL) -> tuple[int, ...]:
    """Atom indices of the smallest face of the support hull containing x."""
    geom = _support_geometry(dist)
    t, residual = geom.to_coords(x.entries)
    if residual > tol:
        raise InvalidArgumentError("x lies outside the affine hull of the support")
    return tuple(i for i in range(dist.n_atoms)
                 if _lp_max_atom(geom, t, tol, i) > tol)


# ---------------------------------------------------------------------------
# the conjugate

@dataclass(frozen=True)
class LegendreResult:
    value: float
    maximizer: AlgebraVector | None
    grad_norm: float
    iterations: int
    classification: str
    face: tuple[int, ...] | None = None

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.value))


def _dual_newton(atom_coords: np.ndarray, log_weights: np.ndarray,
                 target: np.ndarray, start: np.ndarray | None = None,
                 max_iter: int = 200):
    """Maximize c . target - logsumexp(log_w + A c) by damped Newton.

    Returns (value, c, grad_norm, iterations, converged).  Diverging iterates
    (|c| beyond DIVERGENCE_NORM with the objective still climbing) report
    converged=False, which callers interpret as an infinite conjugate.
    """
    k, r = atom_coords.shape
    c = np.zeros(r) if start is None else start.copy()

    def objective(cv):
        logs = log_weights + atom_coords @ cv
        top = logs.max()
        lse = top + np.log(np.exp(logs - top).sum())
        return float(cv @ target - lse), logs - lse

    val, logp = objective(c)
    grad_norm = np.inf
    tie = 1e-14
    for it in range(1, max_iter + 1):
        p = np.exp(logp)
        grad = target - p @ atom_coords
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= 0.01 * GRAD_TOL:
            return val, c, grad_norm, it, True
        mean = p @ atom_coords
        cov = (atom_coords * p[:, None]).T @ atom_coords - np.outer(mean, mean)
        mu = 1e-12 * max(1.0, float(np.trace(cov)) / max(r, 1))
        for _ in range(60):
            try:
                step = np.linalg.solve(cov + mu * np.eye(r), grad)
                break
            except np.linalg.LinAlgError:
                mu *= 100.0
        scale = 1.0
        improved = False
        strict = False
        for _ in range(60):
            cand = c + scale * step
            cand_val, cand_logp = objective(cand)
            # tie-tolerant: near the optimum value gains fall below float
            # resolution while the polishing step still shrinks the gradient
            if cand_val > val - tie * max(1.0, abs(val)):
                strict = cand_val > val
                c, val, logp = cand, cand_val, cand_logp
                improved = True
                break
            scale *= 0.5
        if not improved or (not strict and grad_norm <= GRAD_TOL):
            return val, c, grad_norm, it, grad_norm <= GRAD_TOL
        if np.linalg.norm(c) > DIVERGENCE_NORM:
            return val, c, grad_norm, it, False
    return val, c, grad_norm, max_iter, grad_norm <= GRAD_TOL


def _dual_newton_stack(atom_coords: np.ndarray, log_weights: np.ndarray,
                       targets: np.ndarray, starts: np.ndarray,
                       max_iter: int = 200):
    """_dual_newton on every row of targets (n, r), row i started at starts[i].

    Each row follows _dual_newton's steps, ties, backtracking, divergence and
    stopping rules and leaves the iteration as soon as they say it would.
    Returns arrays (values, c, grad_norms, iterations, converged).
    """
    n, r = targets.shape
    c = starts.astype(np.float64, copy=True)
    eye = np.eye(r)

    def objective(cv, tg):
        logs = log_weights + (atom_coords @ cv[..., None])[..., 0]
        top = logs.max(axis=1, keepdims=True)
        lse = top + np.log(np.exp(logs - top).sum(axis=1, keepdims=True))
        return (cv[:, None, :] @ tg[..., None])[:, 0, 0] - lse[:, 0], logs - lse

    def solve(cov, mu, grad):
        try:
            return np.linalg.solve(cov + mu[:, None, None] * eye, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            steps = np.zeros_like(grad)
            for i in range(len(grad)):
                mu_i = mu[i]
                for _ in range(60):
                    try:
                        steps[i] = np.linalg.solve(cov[i] + mu_i * eye, grad[i])
                        break
                    except np.linalg.LinAlgError:
                        mu_i *= 100.0
            return steps

    val, logp = objective(c, targets)
    grad_norm = np.full(n, np.inf)
    iterations = np.full(n, max_iter)
    converged = np.zeros(n, dtype=bool)
    live = np.arange(n)
    tie = 1e-14
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        p = np.exp(logp[live])
        mean = (p[:, None, :] @ atom_coords)[:, 0, :]
        grad = targets[live] - mean
        gn = _frobenius_norms(grad[:, None, :])
        grad_norm[live] = gn
        done = gn <= 0.01 * GRAD_TOL
        iterations[live[done]] = it
        converged[live[done]] = True
        live, p, mean, grad, gn = live[~done], p[~done], mean[~done], grad[~done], gn[~done]
        if not live.size:
            break
        cov = (np.swapaxes(atom_coords * p[:, :, None], 1, 2) @ atom_coords
               - mean[:, :, None] * mean[:, None, :])
        mu = 1e-12 * np.maximum(1.0, np.trace(cov, axis1=1, axis2=2) / max(r, 1))
        step = solve(cov, mu, grad)
        scale = np.ones(len(live))
        improved = np.zeros(len(live), dtype=bool)
        strict = np.zeros(len(live), dtype=bool)
        pending = np.arange(len(live))
        for _ in range(60):
            if not pending.size:
                break
            rows = live[pending]
            cand = c[rows] + scale[pending, None] * step[pending]
            cand_val, cand_logp = objective(cand, targets[rows])
            # tie-tolerant, as in _dual_newton
            take = cand_val > val[rows] - tie * np.maximum(1.0, np.abs(val[rows]))
            strict[pending[take]] = cand_val[take] > val[rows[take]]
            c[rows[take]] = cand[take]
            val[rows[take]] = cand_val[take]
            logp[rows[take]] = cand_logp[take]
            improved[pending[take]] = True
            scale[pending[~take]] *= 0.5
            pending = pending[~take]
        stop = ~improved | (~strict & (gn <= GRAD_TOL))
        iterations[live[stop]] = it
        converged[live[stop]] = gn[stop] <= GRAD_TOL
        diverged = ~stop & (_frobenius_norms(c[live][:, None, :]) > DIVERGENCE_NORM)
        iterations[live[diverged]] = it
        live = live[~stop & ~diverged]
    converged[live] = grad_norm[live] <= GRAD_TOL
    return val, c, grad_norm, iterations, converged


def legendre(dist: IncrementDistribution, x: AlgebraVector) -> LegendreResult:
    """Convex conjugate of the log-MGF at x, with maximizer when attained.

    Outside the support hull the value is +inf.  On the relative boundary
    the finite limit value is computed on the minimal face; for a vertex
    atom with weight w the value is -log(w) and no maximizer exists.
    """
    cls = domain_check(dist, x)
    if cls == "outside":
        return LegendreResult(np.inf, None, np.nan, 0, "outside")
    geom = _support_geometry(dist)
    t, _ = geom.to_coords(x.entries)
    if cls == "inside":
        if geom.rank == 0:
            return LegendreResult(float(-geom.log_weights[0]), None, 0.0, 0,
                                  "inside", face=(0,))
        val, c, gn, it, ok = _dual_newton(geom.atom_coords, geom.log_weights, t)
        if not ok:
            raise NonConvergenceError(
                f"dual optimizer stalled: grad_norm={gn:.3e} after {it} iterations, "
                f"|lambda|={np.linalg.norm(c):.3e}")
        lam = AlgebraVector(geom.from_lambda_coords(c))
        return LegendreResult(val, lam, gn, it, "inside")
    face = minimal_face(dist, x)
    if len(face) == 0:
        return LegendreResult(np.inf, None, np.nan, 0, "outside")
    if len(face) == 1:
        return LegendreResult(float(-geom.log_weights[face[0]]), None, 0.0, 0,
                              "boundary", face=face)
    sub = geom.atom_coords[list(face)]
    center = sub.mean(axis=0)
    u, s, vt = np.linalg.svd(sub - center, full_matrices=False)
    keep = s > 1e-12 * max(1.0, s[0])
    proj = vt[keep]                    # face frame inside the hull frame
    sub_coords = (sub - center) @ proj.T
    t_face = proj @ (t - center)
    val, c, gn, it, ok = _dual_newton(sub_coords, geom.log_weights[list(face)], t_face)
    if not ok:
        raise NonConvergenceError("face-restricted dual optimizer stalled")
    lam = AlgebraVector(geom.from_lambda_coords(proj.T @ c))
    return LegendreResult(val, lam, gn, it, "boundary", face=face)


def legendre_closed_form_s2(x1: float, x2: float, alpha: float, beta: float) -> float:
    """Closed-form conjugate for the two-state model at x = [[-x1, x1], [x2, -x2]].

    Finite only for x1 in [0, alpha], x2 in [0, beta] on the line
    beta x1 + alpha x2 = alpha beta; vertices evaluate to log 2 (limit on
    the face), with the 0 log 0 = 0 convention.
    """
    if alpha <= 0 or beta <= 0:
        raise InvalidArgumentError("alpha and beta must be positive")
    if abs(beta * x1 + alpha * x2 - alpha * beta) > 1e-9:
        return np.inf
    if x1 < -DOMAIN_TOL or x1 > alpha + DOMAIN_TOL:
        return np.inf
    if x2 < -DOMAIN_TOL or x2 > beta + DOMAIN_TOL:
        return np.inf
    x1 = min(max(x1, 0.0), alpha)
    x2 = min(max(x2, 0.0), beta)
    if x1 == 0.0 or x2 == 0.0:
        return float(np.log(2.0))
    return float(x1 * np.log(beta * x1) / alpha + x2 * np.log(alpha * x2) / beta
                 - np.log(0.5 * alpha * beta))


# ---------------------------------------------------------------------------
# lean interior evaluator for optimization loops (no LP; Newton only)

def lstar_interior(geom: SupportGeometry, x_mat: np.ndarray,
                   start: np.ndarray | None = None):
    """(value, lambda-coords) of the conjugate, +inf when Newton detects escape.

    Used inside descent loops where iterates stay in the relative interior;
    off-hull points and diverging duals report +inf instead of classifying
    via linear programs.  One row of lstar_interior_stack.
    """
    starts = np.zeros((1, geom.rank)) if start is None else start[None]
    vals, lams = lstar_interior_stack(geom, x_mat[None], starts)
    if not np.isfinite(vals[0]):
        return np.inf, None
    return float(vals[0]), (lams[0] if geom.rank else None)


def lstar_interior_stack(geom: SupportGeometry, x_mats: np.ndarray,
                         starts: np.ndarray):
    """lstar_interior on a (n, d, d) stack, row i warm-started at starts[i].

    Rows off the hull by more than DOMAIN_TOL, or whose dual diverges or
    stalls within 80 Newton steps, are +inf.  Returns (values,
    lambda-coords) with shapes (n,) and (n, r); the lambda-coords of a row
    whose value is +inf are meaningless.
    """
    n, d, _ = x_mats.shape
    r = geom.rank
    diff = (x_mats - geom.xbar).reshape(n, d * d, 1)
    flat = geom.frame.reshape(r, d * d)
    t = (flat @ diff)[..., 0]
    residual = _frobenius_norms((diff - flat.T @ t[..., None])[:, None, :, 0])
    vals = np.full(n, np.inf)
    lams = np.zeros((n, r))
    on = np.flatnonzero(residual <= DOMAIN_TOL)
    if r == 0:
        vals[on] = -geom.log_weights[0]
        return vals, lams
    val, c, _, _, ok = _dual_newton_stack(geom.atom_coords, geom.log_weights,
                                          t[on], starts[on], max_iter=80)
    vals[on[ok]] = val[ok]
    lams[on[ok]] = c[ok]
    return vals, lams
