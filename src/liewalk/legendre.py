"""Log moment generating function and its convex conjugate.

For a finitely supported law the log-MGF is everywhere finite and the
conjugate sup_lambda <lambda, x> - Lambda(lambda) is finite exactly on the
convex hull of the support.  SupportGeometry is the one chart of the
support's affine hull: it projects stacks of points into frame
coordinates, embeds coordinates back and holds the hull's facets, for
legendre(), the path quadrature and the discretized solver alike.  The
values come from one damped Newton iteration on the concave dual objective
in that chart (the objective is unbounded in directions the support cannot
see), which works on stacks of points; _dual_newton is one row of it.
legendre() classifies its point by linear programming (inside / boundary
/ outside, tolerance 1e-9) and computes boundary values on the minimal
face with the original sub-probability weights, matching the limit value
of the conjugate there.  The path quadrature settles its nodes by the
hull's facets: those more than DOMAIN_TOL inside every facet go through
Newton at once (lstar_interior_stack), and only the rest, and the nodes
whose dual diverges, reach legendre() and these LPs.

scipy is imported where it computes, so that importing liewalk loads none
of it: scipy.spatial inside SupportGeometry.facets, and scipy.optimize's
linprog inside this module's linprog shim, through which every LP runs.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    """The chart of the support's affine hull: x = xbar + sum_j t_j U_j.

    Every evaluator of the conjugate works in this chart, on one (d, d)
    matrix or a (..., d, d) stack: to_coords projects into it, span and
    points embed coordinates back, and facets and facet_margin bound the
    hull.  Rank 0 (a point mass) needs no branch: its frame, coordinates and
    facets are empty.
    """

    xbar: np.ndarray          # (d, d) weighted mean of the atoms
    frame: np.ndarray         # (r, d, d) orthonormal directions spanning the hull
    atom_coords: np.ndarray   # (k, r)
    log_weights: np.ndarray   # (k,)

    @property
    def rank(self) -> int:
        return self.frame.shape[0]

    def to_coords(self, x: np.ndarray):
        """(t, residual) of a (..., d, d) array: the (..., r) frame coordinates
        of x - xbar, and the Frobenius norm of what the frame leaves of it."""
        lead, (r, d, _) = x.shape[:-2], self.frame.shape
        diff = (x - self.xbar).reshape(*lead, d * d, 1)
        flat = self.frame.reshape(r, d * d)
        t = flat @ diff
        return t[..., 0], _frobenius_norms(np.swapaxes(diff - flat.T @ t, -1, -2))

    def span(self, c: np.ndarray) -> np.ndarray:
        """sum_j c_j U_j for every coordinate row of a (..., r) array: the
        product np.tensordot(c, frame, axes=1) takes, without its per-call
        axis bookkeeping."""
        lead, (r, d, _) = c.shape[:-1], self.frame.shape
        flat = np.dot(c.reshape(math.prod(lead), r), self.frame.reshape(r, d * d))
        return flat.reshape(*lead, d, d)

    def points(self, c: np.ndarray) -> np.ndarray:
        """xbar + span(c): the hull points at coordinates c."""
        return self.xbar + self.span(c)

    @cached_property
    def facets(self):
        """(normals, offsets) of the hull in frame coordinates: t lies in the
        hull where normals @ t + offsets <= 0.  Below rank 2 the hull is an
        interval or a point, which qhull does not take: its facets are a box."""
        if self.rank < 2:
            a, eye = self.atom_coords, np.eye(self.rank)
            return np.vstack([eye, -eye]), np.concatenate([-a.max(axis=0), a.min(axis=0)])
        from scipy import spatial

        facets = spatial.ConvexHull(self.atom_coords).equations
        return facets[:, :-1], facets[:, -1]

    def facet_margin(self, t: np.ndarray) -> np.ndarray:
        """max(normals @ t + offsets) of each row of a (..., r) array: below 0
        inside the hull, NaN for a NaN row, -inf for a point mass (no facets)."""
        normals, offsets = self.facets
        return (t @ normals.T + offsets).max(axis=-1, initial=-np.inf)


def _span_basis(centered: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of centered: its right singular
    vectors whose singular values exceed 1e-12 max(1, s_0)."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[s > 1e-12 * max(1.0, s[0] if s.size else 0.0)]


@lru_cache(maxsize=128)
def _support_geometry(dist: IncrementDistribution) -> SupportGeometry:
    stack = dist.atom_stack()
    w = np.array(dist.weights)
    xbar = np.tensordot(w, stack, axes=1)
    centered = (stack - xbar).reshape(len(w), -1)
    basis = _span_basis(centered)
    return SupportGeometry(xbar=xbar, frame=basis.reshape(-1, dist.dim, dist.dim),
                           atom_coords=centered @ basis.T + 0.0, log_weights=np.log(w))


# ---------------------------------------------------------------------------
# domain classification by linear programming

def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use so that importing
    liewalk loads no scipy.  It stays a module-level function of this module,
    not an import inside _representation_lp, so that every LP goes through
    the one name liewalk.legendre.linprog, where a profiler can wrap it."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _representation_lp(cost: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, extra=None):
    """linprog over atom weights nu >= 0 with sum nu = 1, then one more
    variable with bounds extra when given."""
    k = len(cost) - (extra is not None)
    return linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=[np.r_[np.ones(k), np.zeros(len(cost) - k)]],
                   b_eq=[1.0], bounds=[(0, None)] * k + ([extra] if extra else []), method="highs")


def _lp_feasibility_slack(geom: SupportGeometry, t: np.ndarray) -> float:
    """Minimal sup-norm slack s with sum nu = 1, |A^T nu - t|_inf <= s, nu >= 0."""
    a, ones = geom.atom_coords.T, np.ones((geom.rank, 1))
    res = _representation_lp(np.r_[np.zeros(a.shape[1]), 1.0],      # variables nu, s
                             np.block([[a, -ones], [-a, -ones]]), np.r_[t, -t], (0, None))
    if not res.success:
        raise NonConvergenceError(f"feasibility LP failed: {res.message}")
    return float(res.fun)


def _lp_min_weight(geom: SupportGeometry, t: np.ndarray, tol: float) -> float:
    """Max over representations of the minimum atom weight (relative-interior test)."""
    a, zeros = geom.atom_coords.T, np.zeros((geom.rank, 1))
    k = a.shape[1]
    # variables nu, tmin: maximize tmin subject to tmin - nu_i <= 0
    res = _representation_lp(np.r_[np.zeros(k), -1.0],
                             np.block([[a, zeros], [-a, zeros], [-np.eye(k), np.ones((k, 1))]]),
                             np.r_[t + tol, tol - t, np.zeros(k)], (None, None))
    if not res.success:
        raise NonConvergenceError(f"interior LP failed: {res.message}")
    return float(-res.fun)


def _lp_max_atom(geom: SupportGeometry, t: np.ndarray, tol: float, i: int) -> float:
    """Max of nu_i over representations of t (minimal-face membership test)."""
    a = geom.atom_coords.T
    cost = np.where(np.arange(a.shape[1]) == i, -1.0, 0.0)
    res = _representation_lp(cost, np.vstack([a, -a]), np.r_[t + tol, tol - t])
    return float(-res.fun) if res.success else 0.0


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
        return "inside"
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
    """One target of _dual_newton_stack, from start (zeros by default).

    Returns (value, c, grad_norm, iterations, converged) as Python scalars
    and one (r,) array.
    """
    starts = np.zeros((1, atom_coords.shape[1])) if start is None else start[None]
    val, c, gn, it, ok = _dual_newton_stack(atom_coords, log_weights, target[None],
                                            starts, max_iter)
    return float(val[0]), c[0], float(gn[0]), int(it[0]), bool(ok[0])


def _dual_newton_stack(atom_coords: np.ndarray, log_weights: np.ndarray,
                       targets: np.ndarray, starts: np.ndarray,
                       max_iter: int = 200):
    """Maximize c . t - logsumexp(log_w + A c) by damped Newton, for every
    row t of targets (n, r), row i started at starts[i].

    Each row stops on its own: at a gradient norm below GRAD_TOL / 100, when
    no backtracked step gains (ties within 1e-14 relative count as gains), or
    when a tie comes with a gradient norm below GRAD_TOL.  Diverging iterates
    (|c| beyond DIVERGENCE_NORM with the objective still climbing) report
    converged=False, which callers interpret as an infinite conjugate.
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
            # tie-tolerant: near the optimum value gains fall below float
            # resolution while the polishing step still shrinks the gradient
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
        lam = AlgebraVector(geom.span(c))
        return LegendreResult(val, lam, gn, it, "inside")
    face = minimal_face(dist, x)
    if len(face) == 0:
        return LegendreResult(np.inf, None, np.nan, 0, "outside")
    if len(face) == 1:
        return LegendreResult(float(-geom.log_weights[face[0]]), None, 0.0, 0,
                              "boundary", face=face)
    sub = geom.atom_coords[list(face)]
    center = sub.mean(axis=0)
    proj = _span_basis(sub - center)   # face frame inside the hull frame
    sub_coords = (sub - center) @ proj.T
    t_face = proj @ (t - center)
    val, c, gn, it, ok = _dual_newton(sub_coords, geom.log_weights[list(face)], t_face)
    if not ok:
        raise NonConvergenceError("face-restricted dual optimizer stalled")
    lam = AlgebraVector(geom.span(proj.T @ c))
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

def lstar_interior_stack(geom: SupportGeometry, x_mats: np.ndarray,
                         starts: np.ndarray):
    """(value, lambda-coords) of the conjugate on a (n, d, d) stack by Newton
    alone, row i warm-started at starts[i], for descent loops whose iterates
    stay in the relative interior.

    Rows off the hull by more than DOMAIN_TOL, or whose dual diverges or
    stalls within 80 Newton steps, are +inf.  Returns (values,
    lambda-coords) with shapes (n,) and (n, r); the lambda-coords of a row
    whose value is +inf are meaningless.
    """
    t, residual = geom.to_coords(x_mats)
    n, r = t.shape
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

