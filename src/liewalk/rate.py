"""Path-space rate function: quadrature along explicit paths and a
discretized variational minimum over products of exponentials.

A path cost is the integral over [0, 1] of the conjugate evaluated at the
logarithmic derivative gamma(t)^-1 gamma'(t) (identified with the algebra).
The discretized problem minimizes (1/m) sum_i Lstar(m x_i) over segment
lists subject to exp(x_1)...exp(x_m) = g, via quadratic-penalty iterations
with escalating rho, gradient descent with backtracking on the smooth part
(envelope gradient through the Legendre maximizer), and an exact
feasibility repair of the last segment.  Iterates are parameterized in the
affine hull of the support, where the conjugate has a relative interior.

The two-state closed forms (the constant-split path for equal rates, the
published final rate expression) are provided for side-by-side reporting.
The constant-split path is feasible, so its cost is an upper bound for the
variational minimum; it is not the minimizer unless M12 = M21 (c = 1/2).
A finite-cost path has velocity p(t) A + (1 - p(t)) B and reaches
M12 = int_0^1 alpha e^{-alpha (1 - t)} p(t) dt, a linear constraint on p
under a convex cost int h(p) dt with h(p) = p log p + (1 - p) log(1 - p)
+ log 2.  The minimizer therefore solves the Euler-Lagrange equation
h'(p(t)) = lambda alpha e^{-alpha (1 - t)}, i.e. p(t) is the logistic
function of lambda alpha e^{-alpha (1 - t)}, constant only at lambda = 0.
The discretized minimum lies between that minimizer's cost and the
constant-split cost (acceptance criterion 5 checks it against the former
at m = 32).  Reports carry the constant-split number.  The paper text at hand (abstract only) does not
settle whether the paper calls the constant split optimal, nor why its
displayed closed form goes negative.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import IncrementDistribution
from .errors import InvalidArgumentError, OutOfDomainError
from .legendre import (
    DOMAIN_TOL,
    SupportGeometry,
    _support_geometry,
    legendre,
    lstar_interior,
    lstar_interior_stack,
)
from .lie import (
    AlgebraVector,
    GroupElement,
    _expm,
    _logm,
    _logm_near_identity,
    log_matrix,
)

GL_NODES_DEFAULT = 8
GL_SUBINTERVALS_DEFAULT = 32


# ---------------------------------------------------------------------------
# path representations

@dataclass(frozen=True, eq=False)
class ClosedFormPath2:
    """Two-state group path [[1 - g1, g1], [g2, 1 - g2]] with analytic derivatives."""

    g1: Callable[[float], float]
    g2: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]

    dim = 2

    def point(self, t: float) -> np.ndarray:
        a, b = self.g1(t), self.g2(t)
        return np.array([[1.0 - a, a], [b, 1.0 - b]])

    def log_derivative(self, t: float) -> AlgebraVector:
        a, b = self.g1(t), self.g2(t)
        da, db = self.d1(t), self.d2(t)
        den = 1.0 - a - b
        if den <= 0:
            raise OutOfDomainError(f"path left the invertible region at t={t}")
        u1 = ((1.0 - b) * da + a * db) / den
        u2 = ((1.0 - a) * db + b * da) / den
        return AlgebraVector([[-u1, u1], [u2, -u2]])


class SampledPath:
    """Path given by samples (t_j, group matrix), log-linearly interpolated.

    Requires strictly increasing t_j covering [0, 1] with gamma(0) = I.
    Consecutive samples must be within log domain of each other.
    """

    def __init__(self, ts, mats):
        ts = np.asarray(ts, dtype=np.float64)
        mats = np.asarray(mats, dtype=np.float64)
        if ts.ndim != 1 or len(ts) != len(mats) or len(ts) < 2:
            raise InvalidArgumentError("need matching lists of at least two samples")
        if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
            raise InvalidArgumentError("samples must cover [0, 1]")
        if np.any(np.diff(ts) <= 0):
            raise InvalidArgumentError("sample times must be strictly increasing")
        if np.abs(mats[0] - np.eye(mats.shape[-1])).max() > 1e-12:
            raise InvalidArgumentError("path must start at the identity")
        self.ts = ts
        self.mats = mats
        self.dim = mats.shape[-1]
        self._seg_logs: dict[int, np.ndarray] = {}

    def _segment_log(self, i: int) -> np.ndarray:
        if i not in self._seg_logs:
            rel = np.linalg.solve(self.mats[i], self.mats[i + 1])
            self._seg_logs[i] = _logm(rel)
        return self._seg_logs[i]

    def point(self, t: float) -> np.ndarray:
        if not -1e-12 <= t <= 1.0 + 1e-12:
            raise InvalidArgumentError("t must lie in [0, 1]")
        t = min(max(t, 0.0), 1.0)
        i = int(np.searchsorted(self.ts, t, side="right") - 1)
        i = min(max(i, 0), len(self.ts) - 2)
        theta = (t - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        return self.mats[i] @ _expm(theta * self._segment_log(i))


def logarithmic_derivative(path, t: float, h: float = 1e-5) -> AlgebraVector:
    """gamma(t)^-1 gamma'(t) as an algebra element.

    Closed-form paths use their analytic derivative; sampled paths use the
    central difference log(gamma(t-h)^-1 gamma(t+h)) / (2h).
    """
    if hasattr(path, "log_derivative"):
        return path.log_derivative(t)
    if t - h < -1e-12 or t + h > 1.0 + 1e-12:
        raise InvalidArgumentError("t +- h must stay inside [0, 1]")
    rel = np.linalg.solve(path.point(t - h), path.point(t + h))
    lg = _logm(rel) / (2.0 * h)
    # roundoff projection back onto zero row sums
    lg = lg - np.diag(lg.sum(axis=1))
    return AlgebraVector(lg)


def rate_along_path(dist: IncrementDistribution, path,
                    quad_nodes: int = GL_NODES_DEFAULT,
                    subintervals: int = GL_SUBINTERVALS_DEFAULT,
                    h: float = 1e-5) -> float:
    """Composite Gauss-Legendre quadrature of Lstar along the path.

    Returns +inf as soon as one node's velocity leaves the conjugate domain.
    """
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    total = 0.0
    width = 1.0 / subintervals
    for j in range(subintervals):
        lo = j * width
        for xi, wi in zip(nodes, weights):
            t = lo + 0.5 * (xi + 1.0) * width
            u = logarithmic_derivative(path, t, h=h)
            val = legendre(dist, u).value
            if not np.isfinite(val):
                return float("inf")
            total += 0.5 * width * wi * val
    return float(total)


# ---------------------------------------------------------------------------
# two-state closed forms

def optimal_path_s2(alpha: float, m_end: GroupElement) -> ClosedFormPath2:
    """Constant-split path with gamma_12(t) = (M12 / (1 - e^-a)) (1 - e^-at).

    Requires M12 + M21 = 1 - e^-alpha within 1e-9; its velocity splits the
    off-diagonal transfer in the fixed ratio M12 : M21 while the total obeys
    psi' = alpha (1 - psi).

    Despite the name this is not the cost minimizer unless M12 = M21: its
    cost is an upper bound for the rate.  The minimizer's velocity
    p(t) A + (1 - p(t)) B has a time-varying split solving the
    Euler-Lagrange equation log(p / (1 - p)) = lambda alpha e^{-alpha (1 - t)}
    (see the module docstring).
    """
    if alpha <= 0:
        raise InvalidArgumentError("alpha must be positive")
    if m_end.dim != 2:
        raise InvalidArgumentError("endpoint must be 2x2")
    m12, m21 = float(m_end.entries[0, 1]), float(m_end.entries[1, 0])
    s = 1.0 - np.exp(-alpha)
    if abs(m12 + m21 - s) > 1e-9:
        raise InvalidArgumentError(
            f"infeasible endpoint: M12 + M21 = {m12 + m21:.12f} != 1 - e^-alpha = {s:.12f}")
    c1, c2 = m12 / s, m21 / s

    def psi(t): return 1.0 - np.exp(-alpha * t)
    def dpsi(t): return alpha * np.exp(-alpha * t)

    return ClosedFormPath2(
        g1=lambda t: c1 * psi(t), g2=lambda t: c2 * psi(t),
        d1=lambda t: c1 * dpsi(t), d2=lambda t: c2 * dpsi(t))


def closed_form_rate_s2(m_end: GroupElement, alpha: float) -> float:
    """Published final rate expression for the equal-parameter two-state model.

    Evaluated verbatim (alpha^2 prefactors and all) with the 0 log 0 = 0
    convention; +inf off the constraint set.  Known to disagree with both
    the quadrature along the constant-split path and the discretized
    minimum; reports show all three side by side.
    """
    if alpha <= 0:
        raise InvalidArgumentError("alpha must be positive")
    m12, m21 = float(m_end.entries[0, 1]), float(m_end.entries[1, 0])
    s = 1.0 - np.exp(-alpha)
    if abs(m12 + m21 - s) > 1e-9:
        return float("inf")
    if m12 < -1e-12 or m21 < -1e-12:
        return float("inf")
    m12, m21 = max(m12, 0.0), max(m21, 0.0)

    def xlog(m):
        return 0.0 if m == 0.0 else alpha ** 2 * m * np.log(alpha * m / s)

    return float(xlog(m12) + xlog(m21) + (1.0 - alpha) * np.exp(-alpha)
                 - np.log(0.5 * alpha ** 2) - 1.0)


# ---------------------------------------------------------------------------
# discretized variational minimum

@dataclass
class DiscretizedRate:
    m: int
    value: float
    segments: tuple[AlgebraVector, ...] | None
    constraint_residual: float
    diagnostics: dict = field(default_factory=dict)


def _hull_points(geom: SupportGeometry, coords: np.ndarray) -> np.ndarray:
    """xbar + sum_j t_j U_j for every coordinate row of a (..., r) array.

    The same product as np.tensordot(coords, geom.frame, axes=1), without
    its per-call axis bookkeeping.
    """
    lead, (r, d, _) = coords.shape[:-1], geom.frame.shape
    flat = np.dot(coords.reshape(math.prod(lead), r), geom.frame.reshape(r, d * d))
    return geom.xbar + flat.reshape(*lead, d, d)


def _penalty(prod: np.ndarray, g: np.ndarray) -> float:
    try:
        lg = _logm(np.linalg.solve(prod, g))
    except (OutOfDomainError, np.linalg.LinAlgError):
        return float("inf")
    return float(np.sum(lg * lg))


def _penalties(prods: np.ndarray, g: np.ndarray) -> np.ndarray:
    """_penalty of every matrix of a (..., d, d) stack, bit for bit.

    One solve covers the stack.  Matrices whose relative displacement takes
    no square root in _logm share one Mercator series; the others go through
    _penalty one by one, and so does every matrix of a stack that the solve
    finds singular.
    """
    flat = prods.reshape(-1, *prods.shape[-2:])
    try:
        rel = np.linalg.solve(flat, g)
    except np.linalg.LinAlgError:
        return np.array([_penalty(p, g) for p in flat]).reshape(prods.shape[:-2])
    near, lg = _logm_near_identity(rel)
    out = np.empty(len(flat))
    out[near] = np.sum(lg * lg, axis=(-2, -1))
    for i in np.flatnonzero(~near):
        out[i] = _penalty(flat[i], g)
    return out.reshape(prods.shape[:-2])


def _off_determinant_line(geom: SupportGeometry, g: np.ndarray) -> bool:
    """True when no product of hull segments can reach g.

    With every frame direction traceless, det Psi_m(x) = exp(tr xbar) for all
    segment lists x.  An endpoint with det g <= 0 or log det g off tr xbar by
    more than sqrt(d) DOMAIN_TOL is then unreachable at every m: the closing
    segment of the repair would sit at least m |log det g - tr xbar| / sqrt(d)
    off the hull.
    """
    if np.abs(np.trace(geom.frame, axis1=1, axis2=2)).max(initial=0.0) > 1e-12:
        return False
    sign, logdet = np.linalg.slogdet(g)
    return bool(sign <= 0
                or abs(logdet - np.trace(geom.xbar)) > np.sqrt(g.shape[0]) * DOMAIN_TOL)


def _initial_coords(dist, geom: SupportGeometry, g: GroupElement, m: int):
    candidates = []
    try:
        lg = log_matrix(g).entries
        for tau in (1.0, 0.9, 0.75, 0.5, 0.25):
            candidates.append(tau * lg + (1.0 - tau) * geom.xbar)
    except OutOfDomainError:
        pass
    candidates.append(geom.xbar.copy())
    for cand in candidates:
        t, residual = geom.to_coords(cand)
        if residual > 1e-7:
            continue
        val, _ = lstar_interior(geom, cand)
        if np.isfinite(val):
            return np.tile(t, (m, 1))
    return np.tile(geom.to_coords(geom.xbar)[0], (m, 1))


def discretized_rate(dist: IncrementDistribution, g: GroupElement, m: int,
                     seed_segments=None,
                     rho_schedule=(10.0, 1e2, 1e3, 1e4),
                     max_iter: int = 150,
                     fd_eps: float = 1e-6) -> DiscretizedRate:
    """Penalty-method minimum of (1/m) sum Lstar(m x_i) subject to Psi_m(x) = g.

    Segments are parameterized in the affine hull of the support.  After each
    penalty stage the last segment is replaced by the exact log that restores
    feasibility, and the best exactly-feasible candidate seen is reported, so
    warm-started refinements can only improve.  An endpoint off the
    determinant line of the hull is +inf at once, with diagnostics reason
    "determinant" and no iterations.

    Each iterate takes its m segment exponentials, its 2 m r finite-difference
    products and their penalties as stacks, and its m conjugates from one
    batched dual Newton.
    """
    if m < 1:
        raise InvalidArgumentError("m must be a positive integer")
    if g.dim != dist.dim:
        raise InvalidArgumentError("dimension mismatch between endpoint and support")
    geom = _support_geometry(dist)
    r = geom.rank
    d = dist.dim
    g_mat = g.entries

    if seed_segments is not None:
        seed_segments = list(seed_segments)
        if len(seed_segments) != m:
            raise InvalidArgumentError("seed path must have exactly m segments")
        rows = []
        for x in seed_segments:
            t, residual = geom.to_coords(m * x.entries)
            if residual > 1e-7:
                raise InvalidArgumentError("seed segment leaves the support's affine hull")
            rows.append(t)
        coords_t = np.array(rows).reshape(m, r)

    diag = {"iterations": 0, "rho_schedule": list(rho_schedule)}
    if _off_determinant_line(geom, g_mat):
        diag.update(feasible=False, reason="determinant")
        return DiscretizedRate(m=m, value=float("inf"), segments=None,
                               constraint_residual=float("inf"), diagnostics=diag)
    if seed_segments is None:
        coords_t = _initial_coords(dist, geom, g, m)

    warm = np.zeros((m, r))

    def smooth_and_grad(tc):
        vals, lams = lstar_interior_stack(geom, _hull_points(geom, tc), warm)
        bad = np.flatnonzero(~np.isfinite(vals))
        first = bad[0] if bad.size else m
        # rows past the first infinite one keep their old warm start
        warm[:first] = lams[:first]
        if first < m:
            return np.inf, None
        return float(vals.mean()), lams / m

    def segment_exps(tc):
        return _expm(_hull_points(geom, tc) / m)

    def prefix_products(exps):
        out = np.empty((len(exps) + 1, d, d))
        out[0] = np.eye(d)
        for i, e in enumerate(exps):
            out[i + 1] = out[i] @ e
        return out

    def suffix_products(exps):
        out = np.empty((len(exps) + 1, d, d))
        out[-1] = np.eye(d)
        for i in range(len(exps) - 1, -1, -1):
            out[i] = exps[i] @ out[i + 1]
        return out

    def repair(tc, exps):
        """Exact-feasibility candidate: last segment set to the closing log."""
        head = prefix_products(exps[:m - 1])[-1]
        try:
            closing = _logm(np.linalg.solve(head, g_mat))
        except (OutOfDomainError, np.linalg.LinAlgError):
            return np.inf, None, np.inf
        points = _hull_points(geom, tc[:m - 1])
        vals, _ = lstar_interior_stack(geom, np.concatenate([points, m * closing[None]]),
                                       np.zeros((m, r)))
        if not np.all(np.isfinite(vals)):
            return np.inf, None, np.inf
        segs = [AlgebraVector(p / m) for p in points]
        segs.append(AlgebraVector(closing))
        residual = float(np.sqrt(_penalty(head @ _expm(closing), g_mat)))
        return float(np.mean(vals)), tuple(segs), residual

    # central differences: up[i, j] is row i with coordinate j moved by
    # +fd_eps, and dn[i, j] is that point moved by -2 fd_eps
    bump = np.eye(r) * fd_eps
    exps = segment_exps(coords_t)
    best_val, best_segs, best_res = repair(coords_t, exps)
    total_iters = 0
    for rho in rho_schedule:
        step = 0.05
        for _ in range(max_iter):
            total_iters += 1
            sm, grad = smooth_and_grad(coords_t)
            if grad is None:
                break
            # the iterate's product and its 2 m r bumped products, one stack
            prefixes = prefix_products(exps)
            suffixes = suffix_products(exps)
            up = coords_t[:, None, :] + bump
            dn = up - 2 * bump
            bumped = (prefixes[:m, None, None] @ segment_exps(np.stack([up, dn], axis=2))
                      @ suffixes[1:, None, None])                   # (m, r, 2, d, d)
            pens = _penalties(np.concatenate([prefixes[m:], bumped.reshape(-1, d, d)]),
                              g_mat)
            pen0, pens = pens[0], pens[1:].reshape(m, r, 2)
            if not np.isfinite(pen0):
                break
            f0 = sm + rho * pen0
            ok = np.isfinite(pens).all(axis=2)
            grad[ok] += rho * (pens[..., 0][ok] - pens[..., 1][ok]) / (2 * fd_eps)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-10:
                break
            moved = False
            for _ in range(40):
                cand = coords_t - step * grad
                sm_c, _ = smooth_and_grad(cand)
                if np.isfinite(sm_c):
                    exps_c = segment_exps(cand)
                    fc = sm_c + rho * _penalty(prefix_products(exps_c)[m], g_mat)
                    if np.isfinite(fc) and fc < f0 - 1e-15:
                        coords_t, exps = cand, exps_c
                        moved = True
                        break
                step *= 0.5
            if not moved:
                break
            step *= 1.7
        val, segs, res = repair(coords_t, exps)
        if val < best_val:
            best_val, best_segs, best_res = val, segs, res

    diag["iterations"] = total_iters
    diag["feasible"] = bool(np.isfinite(best_val))
    if not np.isfinite(best_val):
        return DiscretizedRate(m=m, value=float("inf"), segments=None,
                               constraint_residual=float("inf"), diagnostics=diag)
    return DiscretizedRate(m=m, value=best_val, segments=best_segs,
                           constraint_residual=best_res, diagnostics=diag)


def refinement_ladder(dist: IncrementDistribution, g: GroupElement, ms,
                      **kwargs) -> dict[int, DiscretizedRate]:
    """Run discretized_rate along increasing m, warm-starting each level by
    splitting the previous minimizer (a cost-preserving embedding, so values
    are non-increasing along the ladder)."""
    ms = sorted(set(int(m) for m in ms))
    out: dict[int, DiscretizedRate] = {}
    prev: DiscretizedRate | None = None
    for m in ms:
        seed = None
        if prev is not None and prev.segments is not None and m % prev.m == 0:
            k = m // prev.m
            seed = [x * (1.0 / k) for x in prev.segments for _ in range(k)]
        out[m] = discretized_rate(dist, g, m, seed_segments=seed, **kwargs)
        prev = out[m]
    return out


# ---------------------------------------------------------------------------
# bundled report

@dataclass
class RateReport:
    """Discretized ladder beside the two-state reference numbers.

    quadrature_optimal_path holds the quadrature along the constant-split
    path (an upper bound on the rate, not its minimizer off c = 1/2); the
    key keeps its name for existing readers.  diagnostics["reasons"] names,
    per m, why a value is +inf when the solver did not run ("determinant").
    """

    endpoint: list
    alpha: float | None
    m_values: list[int]
    discretized: dict[int, float]
    constraint_residuals: dict[int, float]
    quadrature_optimal_path: float | None
    closed_form_paper: float | None
    minimizer_mixture: list | None
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "alpha": self.alpha,
            "m_values": self.m_values,
            "discretized": {str(k): v for k, v in self.discretized.items()},
            "constraint_residuals": {str(k): v for k, v in self.constraint_residuals.items()},
            "quadrature_optimal_path": self.quadrature_optimal_path,
            "closed_form_paper": self.closed_form_paper,
            "minimizer_mixture": self.minimizer_mixture,
            "diagnostics": self.diagnostics,
        }


def rate_report(dist: IncrementDistribution, g: GroupElement, ms,
                alpha: float | None = None, **kwargs) -> RateReport:
    """Discretized ladder plus, when alpha is given and the endpoint is on the
    constraint set, the quadrature along the constant-split path and the
    published closed form."""
    ladder = refinement_ladder(dist, g, ms, **kwargs)
    quad = None
    paper = None
    notes = {}
    if alpha is not None:
        try:
            path = optimal_path_s2(alpha, g)
            quad = rate_along_path(dist, path)
        except InvalidArgumentError as exc:
            notes["optimal_path"] = str(exc)
        paper = closed_form_rate_s2(g, alpha)
        if quad is not None and np.isfinite(quad) and np.isfinite(paper):
            if abs(paper - quad) > 0.01 * max(1.0, abs(quad)):
                notes["closed_form_discrepancy"] = (
                    f"published closed form {paper:.6f} differs from the "
                    f"path quadrature {quad:.6f}; both reported")
        largest = max(ladder)
        disc = ladder[largest].value
        if quad is not None and np.isfinite(quad) and np.isfinite(disc):
            if disc < quad - 0.01 * max(1.0, abs(quad)):
                notes["variational_gap"] = (
                    f"discretized minimum {disc:.6f} lies below the "
                    f"constant-split path cost (an upper bound) {quad:.6f}: "
                    f"ordered exponentials reach the endpoint with cheaper mixes")
    largest = max(ladder)
    segs = ladder[largest].segments
    mixture = None
    if segs is not None:
        mixture = [s.entries.tolist() for s in segs]
    return RateReport(
        endpoint=g.entries.tolist(),
        alpha=alpha,
        m_values=sorted(ladder),
        discretized={m: ladder[m].value for m in ladder},
        constraint_residuals={m: ladder[m].constraint_residual for m in ladder},
        quadrature_optimal_path=quad,
        closed_form_paper=paper,
        minimizer_mixture=mixture,
        diagnostics={"notes": notes,
                     "iterations": {m: ladder[m].diagnostics.get("iterations")
                                    for m in ladder},
                     "reasons": {m: ladder[m].diagnostics.get("reason")
                                 for m in ladder}},
    )
