"""Path-space rate function: quadrature along explicit paths and a
discretized variational minimum over products of exponentials.

A path cost is the integral over [0, 1] of the conjugate evaluated at the
logarithmic derivative gamma(t)^-1 gamma'(t) (identified with the algebra).
The discretized problem minimizes (1/m) sum_i Lstar(m x_i) over segment
lists subject to exp(x_1)...exp(x_m) = g, by sequential quadratic
programming (scipy's SLSQP; Kraft, DFVLR 1988) with exact derivatives: the
objective's gradient is the Legendre maximizer (the envelope theorem), and
the constraint's Jacobian comes from prefix and suffix products around the
Frechet derivative of each segment's exponential (Higham, Functions of
Matrices, 10.6).  Segments are parameterized in the support's hull chart
(legendre.SupportGeometry), where the conjugate has a relative interior:
the chart projects the seed and start segments, embeds the iterates and
supplies the hull's facets, which bound every segment.  Every relative
position, a sampled path's segment step and the residual Psi_m^-1 g, is a
row of lie._divide, and its log a row of lie._logs.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import partial_products
from .distributions import IncrementDistribution
from .errors import (
    InvalidArgumentError,
    OutOfDomainError,
    SingularMatrixError,
    _positive_int,
)
from .legendre import (
    DOMAIN_TOL,
    SupportGeometry,
    _support_geometry,
    legendre,
    lstar_interior_stack,
)
from .lie import (
    AlgebraVector,
    GroupElement,
    _divide,
    _expm,
    _logm,
    _logs,
    log_matrix,
)

GL_NODES_DEFAULT = 8
GL_SUBINTERVALS_DEFAULT = 32
RESIDUAL_TOL = 1e-12   # largest accepted |log(Psi_m^-1 g)|_F of a discretized minimizer
FACET_MARGIN = 1e-7    # how far the solver keeps segments inside the hull's facets


# ---------------------------------------------------------------------------
# path representations

class SampledPath:
    """Path given by samples (t_j, group matrix), log-linearly interpolated.

    Requires strictly increasing t_j covering [0, 1] with gamma(0) = I.
    Consecutive samples must be within log domain of each other.  On segment
    j the path is mats[j] exp(theta L_j), L_j = log(mats[j]^-1 mats[j + 1]),
    so its velocity there is exactly L_j / (t_{j+1} - t_j).
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
        # every segment's step mats[i]^-1 mats[i + 1], in one division and one stacked log
        steps = _divide(mats[:-1], mats[1:], lambda j: f"sample {j} (t={ts[j]})")
        self._segment_logs = _logs(steps, lambda j: f"segment {j} has no principal log: ")

    def _segment(self, times: np.ndarray) -> np.ndarray:
        """Index of the segment that holds each of times; t = 1 is in the last."""
        return np.clip(np.searchsorted(self.ts, times, side="right") - 1, 0, len(self.ts) - 2)

    def _points(self, times: np.ndarray) -> np.ndarray:
        """gamma at each of times, all in [0, 1] up to 1e-12."""
        times = np.clip(times, 0.0, 1.0)
        i = self._segment(times)
        theta = (times - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        return self.mats[i] @ _expm(theta[:, None, None] * self._segment_logs[i])

    def point(self, t: float) -> np.ndarray:
        if not -1e-12 <= t <= 1.0 + 1e-12:
            raise InvalidArgumentError("t must lie in [0, 1]")
        return self._points(np.array([t], dtype=np.float64))[0]

    def _velocities(self, ts: np.ndarray) -> np.ndarray:
        """The exact velocity at each t of ts, its segment's log over the
        segment's length: the (n, d, d) stack."""
        if ts.min() < -1e-12 or ts.max() > 1.0 + 1e-12:
            raise InvalidArgumentError("t must lie in [0, 1]")
        i = self._segment(ts)
        return self._segment_logs[i] / (self.ts[i + 1] - self.ts[i])[:, None, None]


def logarithmic_derivative(path, t: float) -> AlgebraVector:
    """gamma(t)^-1 gamma'(t) as an algebra element: row 0 of the velocity stack.

    A path is any object whose _velocities(ts) returns the (n, d, d) stack of
    its exact velocities, NaN on the rows where it leaves the invertible
    region; a SampledPath's is its segment log over the segment's length.  At
    a sample time inside (0, 1) a sampled path takes the segment that starts
    there.
    """
    velocity = path._velocities(np.array([t], dtype=np.float64))[0]
    if np.isnan(velocity).any():
        raise OutOfDomainError(f"path left the invertible region at t={t}")
    return AlgebraVector(velocity)


def rate_along_path(dist: IncrementDistribution, path,
                    quad_nodes: int = GL_NODES_DEFAULT,
                    subintervals: int = GL_SUBINTERVALS_DEFAULT) -> float:
    """Composite Gauss-Legendre quadrature of Lstar along the path.

    The node velocities are one exact stack (see logarithmic_derivative).  Nodes on
    the support's affine hull and more than DOMAIN_TOL inside every facet go
    through one lstar_interior_stack.  The rest, and inside nodes whose Newton
    value is not finite, go in node order: a NaN velocity raises, any other
    goes through legendre(), and the first +inf is returned at once.
    """
    quad_nodes = _positive_int("quad_nodes", quad_nodes)
    subintervals = _positive_int("subintervals", subintervals)
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    width = 1.0 / subintervals
    ts = ((np.arange(subintervals) * width)[:, None] + 0.5 * (nodes + 1.0) * width).ravel()
    velocities = path._velocities(ts)
    if velocities.shape[-1] != dist.dim:
        raise InvalidArgumentError("dimension mismatch between path and support")
    geom = _support_geometry(dist)
    t, residual = geom.to_coords(velocities)
    inside = (residual <= DOMAIN_TOL) & (geom.facet_margin(t) < -DOMAIN_TOL)
    vals = np.full(len(ts), np.nan)
    vals[inside], _ = lstar_interior_stack(geom, velocities[inside], np.zeros_like(t[inside]))
    for i in np.flatnonzero(~np.isfinite(vals)):
        if np.isnan(velocities[i]).any():
            raise OutOfDomainError(f"path left the invertible region at t={ts[i]}")
        vals[i] = legendre(dist, AlgebraVector(velocities[i])).value
        if not np.isfinite(vals[i]):
            return float("inf")
    total = 0.0
    for term in (0.5 * width * np.tile(weights, subintervals) * vals).tolist():
        total += term  # node by node, rounded as the per-node loop rounded it
    return total


# ---------------------------------------------------------------------------
# discretized variational minimum

@dataclass
class DiscretizedRate:
    m: int
    value: float
    segments: tuple[AlgebraVector, ...] | None
    constraint_residual: float
    diagnostics: dict = field(default_factory=dict)


def _penalty(prod: np.ndarray, g: np.ndarray) -> float:
    """|log(prod^-1 g)|_F^2, +inf where prod is singular or prod^-1 g has no
    principal log."""
    try:
        lg = _logm(_divide(prod[None], g[None], lambda i: "product")[0])
    except (OutOfDomainError, SingularMatrixError):
        return float("inf")
    return float(np.sum(lg * lg))


def _off_determinant_line(geom: SupportGeometry, g: np.ndarray) -> bool:
    """True when no product of hull segments can reach g.

    With every frame direction traceless, det Psi_m(x) = exp(tr xbar) for all
    segment lists x.  An endpoint with det g <= 0 or log det g off tr xbar by
    more than sqrt(d) DOMAIN_TOL is then unreachable at every m: some scaled
    segment m x_i would sit at least |log det g - tr xbar| / sqrt(d) off the hull.
    """
    if np.abs(np.trace(geom.frame, axis1=1, axis2=2)).max(initial=0.0) > 1e-12:
        return False
    sign, logdet = np.linalg.slogdet(g)
    return bool(sign <= 0
                or abs(logdet - np.trace(geom.xbar)) > np.sqrt(g.shape[0]) * DOMAIN_TOL)


def _initial_coords(geom: SupportGeometry, g: GroupElement, m: int) -> np.ndarray:
    """m copies of the first start with a finite conjugate among log g, its
    blends 0.9, 0.75, 0.5 and 0.25 toward xbar, and xbar; of xbar's
    coordinates when none has one."""
    candidates = [geom.xbar[None]]
    try:
        tau = np.array([1.0, 0.9, 0.75, 0.5, 0.25])[:, None, None]
        candidates.insert(0, tau * log_matrix(g).entries + (1.0 - tau) * geom.xbar)
    except OutOfDomainError:
        pass
    candidates = np.concatenate(candidates)
    t, _ = geom.to_coords(candidates)
    vals, _ = lstar_interior_stack(geom, candidates, np.zeros_like(t))
    finite = np.flatnonzero(np.isfinite(vals))
    return np.tile(t[finite[0] if finite.size else -1], (m, 1))


def discretized_rate(dist: IncrementDistribution, g: GroupElement, m: int,
                     seed_segments=None) -> DiscretizedRate:
    """Minimum of (1/m) sum Lstar(m x_i) subject to Psi_m(x) = g, by SLSQP.

    The variables are the segments' m x r hull coordinates, started at
    seed_segments when given.  The objective's exact gradient is the
    Legendre duals over m.  The equality constraint is offdiag(Psi_m - g),
    projected onto the directions its starting Jacobian spans (at d = 2 with
    a traceless frame the determinant ties M12 to M21); its Jacobian is
    prefix_i Dexp(x_i)[U_j / m] suffix_i, where Dexp is the upper-right block
    of the exponential of [[x_i, U_j / m], [0, x_i]].  The hull's facets,
    pulled in by FACET_MARGIN, bound every segment.

    The final iterate is accepted, whatever SLSQP's status, when its
    conjugates are finite and sqrt(_penalty(Psi_m, g)) is at most
    RESIDUAL_TOL.  A feasible start that costs less is reported instead, so
    warm-started ladders cannot rise.  With neither, the value is +inf with
    diagnostics reason "slsqp: <message>".  An endpoint off the determinant
    line of the hull is +inf at once, with reason "determinant" and no
    iterations.  A point mass has no variables: its value is the conjugate at
    the mean when exp(mean) is g.
    """
    m = _positive_int("m", m)
    if g.dim != dist.dim:
        raise InvalidArgumentError("dimension mismatch between endpoint and support")
    geom = _support_geometry(dist)
    r = geom.rank
    d = dist.dim
    g_mat = g.entries

    if seed_segments is not None:
        seeds = np.array([x.entries for x in seed_segments])
        if len(seeds) != m:
            raise InvalidArgumentError("seed path must have exactly m segments")
        start, residual = geom.to_coords(m * seeds)
        if (residual > 1e-7).any():
            raise InvalidArgumentError("seed segment leaves the support's affine hull")

    diag = {"iterations": 0}
    if _off_determinant_line(geom, g_mat):
        diag.update(feasible=False, reason="determinant")
        return DiscretizedRate(m=m, value=float("inf"), segments=None,
                               constraint_residual=float("inf"), diagnostics=diag)
    if seed_segments is None:
        start = _initial_coords(geom, g, m)

    off = ~np.eye(d, dtype=bool)
    warm = np.zeros((m, r))
    normals, offsets = geom.facets

    def segments(flat):
        """Hull points, exponentials and prefix products of the m x r coordinates."""
        points = geom.points(flat.reshape(m, r))
        exps = _expm(points / m)
        return points, exps, partial_products(exps)

    def objective(flat):
        coords = flat.reshape(m, r)
        if (geom.facet_margin(coords) > 0).any():   # off the hull, where the dual diverges
            return np.inf, np.zeros_like(flat)
        vals, lams = lstar_interior_stack(geom, geom.points(coords), warm)
        if not np.isfinite(vals).all():
            return np.inf, np.zeros_like(flat)
        warm[:] = lams
        return float(vals.mean()), lams.ravel() / m

    def jacobian(flat):
        """d offdiag(Psi_m) / d coordinates, as (d^2 - d, m r)."""
        points, exps, prefixes = segments(flat)
        # the suffixes exps[i+1] ... exps[m-1] are prefixes of the reversed, transposed list
        suffixes = np.swapaxes(partial_products(np.swapaxes(exps[::-1], 1, 2))[m - 1::-1], 1, 2)
        blocks = np.zeros((m, r, 2 * d, 2 * d))
        blocks[:, :, :d, :d] = blocks[:, :, d:, d:] = points[:, None] / m
        blocks[:, :, :d, d:] = geom.frame / m
        dexp = _expm(blocks.reshape(m * r, 2 * d, 2 * d))[:, :d, d:].reshape(m, r, d, d)
        return (prefixes[:m, None] @ dexp @ suffixes[:, None])[..., off].reshape(m * r, -1).T

    def settle(coords):
        """(value, hull points, residual) of one segment list."""
        points, _, prefixes = segments(coords.ravel())
        vals, _ = lstar_interior_stack(geom, points, warm)
        # on a face Newton only approaches the value that legendre() gives
        for i in np.flatnonzero(np.abs(geom.facet_margin(coords)) <= DOMAIN_TOL):
            vals[i] = legendre(dist, AlgebraVector(points[i])).value
        return float(np.mean(vals)), points, float(np.sqrt(_penalty(prefixes[m], g_mat)))

    if r:
        from scipy import optimize

        u, sv, _ = np.linalg.svd(jacobian(start.ravel()), full_matrices=False)
        basis = u[:, sv > 1e-9 * sv[0]]
        inner_jac = np.kron(np.eye(m), -normals)
        res = optimize.minimize(
            objective, start.ravel(), jac=True, method="SLSQP",
            constraints=[
                {"type": "eq", "fun": lambda x: basis.T @ (segments(x)[2][m] - g_mat)[off],
                 "jac": lambda x: basis.T @ jacobian(x)},
                {"type": "ineq",
                 "fun": lambda x: -(x.reshape(m, r) @ normals.T + offsets + FACET_MARGIN).ravel(),
                 "jac": lambda x: inner_jac}],
            options={"ftol": 1e-14})
        coords = res.x.reshape(m, r)
        diag.update(iterations=int(res.nit), status=int(res.status), message=res.message)
        failure = f"slsqp: {res.message}"
    else:  # a point mass: the one segment list there is
        coords = start
        failure = "point mass: the endpoint is not the exponential of the mean"

    value, points, residual = settle(coords)
    diag["residual"] = residual
    accepted = np.isfinite(value) and residual <= RESIDUAL_TOL
    initial = settle(start)
    if (np.isfinite(initial[0]) and initial[2] <= RESIDUAL_TOL
            and (not accepted or initial[0] < value)):
        (value, points, residual), accepted = initial, True
    diag["feasible"] = bool(accepted)
    if not accepted:
        diag["reason"] = failure
        return DiscretizedRate(m=m, value=float("inf"), segments=None,
                               constraint_residual=float("inf"), diagnostics=diag)
    return DiscretizedRate(m=m, value=value,
                           segments=tuple(AlgebraVector(p / m) for p in points),
                           constraint_residual=residual, diagnostics=diag)


def refinement_ladder(dist: IncrementDistribution, g: GroupElement,
                      ms) -> dict[int, DiscretizedRate]:
    """Run discretized_rate along increasing m, warm-starting each level by
    splitting the previous minimizer (a cost-preserving embedding, so values
    are non-increasing along the ladder)."""
    ms = sorted({_positive_int("m", m) for m in ms})
    if not ms:
        raise InvalidArgumentError("the ladder needs at least one m")
    out: dict[int, DiscretizedRate] = {}
    prev: DiscretizedRate | None = None
    for m in ms:
        seed = None
        if prev is not None and prev.segments is not None and m % prev.m == 0:
            k = m // prev.m
            seed = [x * (1.0 / k) for x in prev.segments for _ in range(k)]
        out[m] = discretized_rate(dist, g, m, seed_segments=seed)
        prev = out[m]
    return out


# ---------------------------------------------------------------------------
# bundled report

@dataclass
class RateReport:
    """The discretized ladder at one endpoint.

    minimizer_mixture holds the segments of the largest m's minimizer, None
    where its value is +inf.  diagnostics["reasons"] names, per m, why a
    value is +inf: "determinant" when the solver did not run, "slsqp:
    <message>" when its final iterate was not accepted.
    diagnostics["iterations"] and ["status"] carry SLSQP's iteration count
    and exit status per m.
    """

    endpoint: list
    m_values: list[int]
    discretized: dict[int, float]
    constraint_residuals: dict[int, float]
    minimizer_mixture: list | None
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "m_values": self.m_values,
            "discretized": {str(k): v for k, v in self.discretized.items()},
            "constraint_residuals": {str(k): v for k, v in self.constraint_residuals.items()},
            "minimizer_mixture": self.minimizer_mixture,
            "diagnostics": self.diagnostics,
        }


def rate_report(dist: IncrementDistribution, g: GroupElement, ms) -> RateReport:
    """refinement_ladder over ms, with the largest m's minimizer and each
    level's solver diagnostics."""
    ladder = refinement_ladder(dist, g, ms)
    segs = ladder[max(ladder)].segments
    return RateReport(
        endpoint=g.entries.tolist(),
        m_values=sorted(ladder),
        discretized={m: ladder[m].value for m in ladder},
        constraint_residuals={m: ladder[m].constraint_residual for m in ladder},
        minimizer_mixture=None if segs is None else [s.entries.tolist() for s in segs],
        diagnostics={"iterations": {m: ladder[m].diagnostics.get("iterations")
                                    for m in ladder},
                     "status": {m: ladder[m].diagnostics.get("status") for m in ladder},
                     "reasons": {m: ladder[m].diagnostics.get("reason")
                                 for m in ladder}},
    )
