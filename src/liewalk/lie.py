"""Matrix Lie group/algebra primitives for the unit-row-sum family.

Group elements are invertible d x d matrices with unit row sums; algebra
elements are d x d matrices with zero row sums, carrying the Frobenius
inner product.  The module provides the exponential (scaling-and-squaring
with a degree-7 Pade core), the principal logarithm (inverse scaling and
squaring: Denman-Beavers square roots until ||g - I||_F < 0.25, then a
truncated Mercator series with an explicit tail bound), brackets, adjoint
operators, conjugation, and the left-invariant distance proxy
|log(g^-1 h)|_F.

An adjoint operator is a plain (D, D) array, D = d^2 - d, in the frame of
algebra_basis(d): ad_operator(x) maps coords(y) to coords([x, y]), and
operator_norm bounds its largest singular value from above.  The one-element
functions (exp_matrix, log_matrix, from_coords, ad_operator) are one-row
cases of the stacked bodies (_expm, _logm_stack, _coords_to_matrices,
_ad_stack), so a stack gives each row bit for bit as its element alone.

Group and algebra elements are immutable and all operations are pure
functions, so everything here is safe to share across parallel workers.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    MembershipError,
    OutOfDomainError,
    SingularMatrixError,
)

# Fixed, documented thresholds; tests rely on these exact values.
MEMBERSHIP_TOL = 1e-9
SINGULARITY_TOL = 1e-12

# Certified injectivity neighborhood for exp/log (Frobenius units):
# ||g - I||_F <= INJECTIVITY_EPS guarantees |log g| <= INJECTIVITY_RADIUS.
# Conservative for d <= 6; validated empirically by validate_injectivity.
INJECTIVITY_EPS = 0.4
INJECTIVITY_RADIUS = 0.7

_MERCATOR_SWITCH = 0.25  # take square roots until ||g - I||_F drops below this


def _as_matrix(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("matrix has non-finite entries")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AlgebraVector:
    """Element of the zero-row-sum matrix algebra with Frobenius norm."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        a = _as_matrix(self.entries)
        rs = np.abs(a.sum(axis=1)).max()
        if rs > MEMBERSHIP_TOL:
            raise MembershipError("zero_row_sum", float(rs))
        object.__setattr__(self, "entries", _freeze(a))
        object.__setattr__(self, "dim", a.shape[0])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        return AlgebraVector(self.entries + other.entries)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return AlgebraVector(self.entries - other.entries)

    def __neg__(self) -> "AlgebraVector":
        return AlgebraVector(-self.entries)

    def __mul__(self, c: float) -> "AlgebraVector":
        return AlgebraVector(self.entries * float(c))

    __rmul__ = __mul__

    def inner(self, other: "AlgebraVector") -> float:
        """Frobenius inner product <X, Y> = tr(X^T Y)."""
        return float(np.sum(self.entries * other.entries))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Invertible matrix with unit row sums."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        a = _as_matrix(self.entries)
        rs = np.abs(a.sum(axis=1) - 1.0).max()
        if rs > MEMBERSHIP_TOL:
            raise MembershipError("unit_row_sum", float(rs))
        det = float(np.linalg.det(a))
        if abs(det) <= SINGULARITY_TOL:
            raise MembershipError("invertible", abs(det), "determinant below threshold")
        object.__setattr__(self, "entries", _freeze(a))
        object.__setattr__(self, "dim", a.shape[0])

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.entries @ other.entries)


def operator_norm(m: np.ndarray):
    """Largest singular value of one matrix (a float) or of each of a (..., D, D) stack,
    raised by 1 + 4 D eps to bound it from above: against mpmath at 40 digits,
    plain SVD understates ad operators at D = 2 to 12 by up to 2.7 eps."""
    m = np.asarray(m, dtype=np.float64)
    top = np.linalg.svd(m, compute_uv=False)[..., 0] * (1 + 4 * m.shape[-1] * np.finfo(float).eps)
    return float(top) if m.ndim == 2 else top


# ---------------------------------------------------------------------------
# orthonormal basis of the zero-row-sum algebra

@lru_cache(maxsize=None)
def _basis_stack(d: int) -> np.ndarray:
    if d < 2:
        raise InvalidDimensionError(f"algebra dimension requires d >= 2, got {d}")
    span = []
    for i in range(d):
        for j in range(d):
            if i != j:
                m = np.zeros((d, d))
                m[i, j] = 1.0
                m[i, i] = -1.0
                span.append(m.ravel())
    a = np.array(span).T  # (d^2, d^2 - d)
    q, _ = np.linalg.qr(a)
    # fix sign convention: first component of magnitude > 1e-12 made positive
    for k in range(q.shape[1]):
        col = q[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            q[:, k] = -col
    stack = q.T.reshape(-1, d, d)
    stack.flags.writeable = False
    return stack


def algebra_basis(d: int) -> list[AlgebraVector]:
    """Orthonormal (Frobenius) basis of the zero-row-sum algebra; length d^2 - d."""
    return [AlgebraVector(b) for b in _basis_stack(d)]


def algebra_dim(d: int) -> int:
    return d * d - d


def coords(x: AlgebraVector) -> np.ndarray:
    """Coordinates of x in the orthonormal basis for its dimension."""
    stack = _basis_stack(x.dim)
    return stack.reshape(stack.shape[0], -1) @ x.entries.ravel()


def _ball_coords(d: int, radius: float, rng: np.random.Generator,
                 surface: bool = False) -> np.ndarray:
    """Coordinates of a random direction, norm uniform on [0, radius] (radius if surface)."""
    c = rng.standard_normal(algebra_dim(d))
    r = radius if surface else radius * rng.random()
    return c * (r / np.sqrt(c @ c))


def _coords_to_matrices(c: np.ndarray, d: int) -> np.ndarray:
    """Algebra matrices of the coordinate rows of a (..., d^2 - d) array, one
    vector-matrix product per row; from_coords is its one-row case."""
    basis = _basis_stack(d)
    return (c[..., None, :] @ basis.reshape(len(basis), -1)).reshape(*c.shape[:-1], d, d)


def from_coords(c: np.ndarray, d: int) -> AlgebraVector:
    stack = _basis_stack(d)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (stack.shape[0],):
        raise InvalidArgumentError(f"expected {stack.shape[0]} coordinates, got {c.shape}")
    return AlgebraVector(_coords_to_matrices(c, d))


# ---------------------------------------------------------------------------
# matrix exponential: scaling and squaring with a degree-7 Pade core

_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (..., d, d) stack.

    Each norm is one dot product, as np.linalg.norm takes it for a single
    matrix, so thresholds on these norms decide exactly as they do there.
    """
    flat = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0])


def _pade7(x: np.ndarray) -> np.ndarray:
    ident = np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    b = _PADE7
    u = x @ (b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix or of a (..., d, d) stack.

    Each matrix gets its own scaling exponent, so every matrix of a stack
    comes out bit for bit as it does on its own; one matrix is a one-row
    stack.
    """
    stack = a if a.ndim > 2 else a[None]
    norms = _frobenius_norms(stack)
    s = np.zeros(norms.shape, dtype=np.int64)
    big = norms >= 0.5
    s[big] = np.ceil(np.log2(norms[big] / 0.5))
    r = _pade7(stack / np.ldexp(1.0, s)[..., None, None])
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r if a.ndim > 2 else r[0]


def exp_matrix(x: AlgebraVector) -> GroupElement:
    """Matrix exponential of an algebra element; lands in the group."""
    return GroupElement(_expm(x.entries))


# ---------------------------------------------------------------------------
# matrix logarithm: inverse scaling and squaring, on stacks

def _sqrtm_db(a: np.ndarray, max_iter: int = 80, tol: float = 1e-14):
    """Principal square roots of a (n, d, d) stack by Denman-Beavers iteration.

    Returns (roots, reasons): reasons maps each matrix without a root to why,
    and its root is NaN.  Each matrix stops where the iteration on it alone
    stops.  One inverse per step serves both iterates of every live matrix,
    or each matrix in turn when one of them is singular.
    """
    yz = np.stack((a, np.broadcast_to(np.eye(a.shape[-1]), a.shape)), axis=1)
    roots, reasons, live = np.full(a.shape, np.nan), {}, np.arange(len(a))
    for _ in range(max_iter):
        try:
            inv = np.linalg.inv(yz)
        except np.linalg.LinAlgError:
            inv = np.full_like(yz, np.nan)  # a singular row diverges below, keeping its reason
            for j, i in enumerate(live.tolist()):
                try:
                    inv[j] = np.linalg.inv(yz[j])
                except np.linalg.LinAlgError as exc:
                    reasons[i] = f"square root iteration hit a singular iterate: {exc}"
        nxt = 0.5 * (yz + inv[:, ::-1])  # y <- (y + z^-1) / 2, z <- (z + y^-1) / 2
        y = nxt[:, 0]
        done = _frobenius_norms(y - yz[:, 0]) <= tol * np.fmax(1.0, _frobenius_norms(y))
        stop = done | ~np.isfinite(y).all(axis=(1, 2))
        roots[live[done]] = y[done]
        for i in live[stop & ~done].tolist():
            reasons.setdefault(i, "square root iteration diverged (matrix outside principal-log domain)")
        yz, live = nxt[~stop], live[~stop]
        if not live.size:
            break
    reasons.update(dict.fromkeys(live.tolist(), "matrix outside the principal-log domain: "
                                 "Denman-Beavers square root did not converge"))
    return roots, reasons


def _logm_stack(g: np.ndarray, max_sqrt: int = 60):
    """Principal logarithm of each matrix of a (n, d, d) stack.

    Returns (logs, ok, reasons).  A matrix takes k square roots until
    a = g^(1/2^k) has ||a - I||_F < _MERCATOR_SWITCH, and its log is 2^k times
    the Mercator series log(I + E) = sum_m (-1)^{m+1} E^m / m, E = a - I, up to
    the first m >= 2 whose tail bound ||E||^{m+1} / ((m+1)(1 - ||E||)) is below
    1e-17, or m = 81.  Where a matrix has a non-finite entry, has no principal
    log, or is not that close to I after max_sqrt roots, ok is False, its log
    is NaN and reasons[i] says why.
    """
    ident = np.eye(g.shape[-1])
    a = np.array(g, dtype=np.float64)
    e = a - ident
    norm_e = _frobenius_norms(e)
    k = np.zeros(len(a), dtype=np.int64)
    finite = np.isfinite(a).all(axis=(-2, -1))
    reasons = {int(i): "matrix logarithm: non-finite entries" for i in np.nonzero(~finite)[0]}
    live = np.nonzero(finite & (norm_e >= _MERCATOR_SWITCH))[0]
    while live.size:  # every live matrix has taken the same number of roots
        if k[live[0]] >= max_sqrt:
            for i in live.tolist():
                reasons[i] = ("matrix logarithm: square-root reduction did not contract "
                              f"(||g - I|| = {norm_e[i]:.3e} after {k[i]} roots)")
            break
        a[live], why = _sqrtm_db(a[live])
        reasons.update((int(live[j]), msg) for j, msg in why.items())
        e[live] = a[live] - ident
        norm_e[live] = _frobenius_norms(e[live])
        k[live] += 1
        live = live[norm_e[live] >= _MERCATOR_SWITCH]  # NaN rows (no root) drop out
    ok = np.ones(len(a), dtype=bool)
    if reasons:
        ok[list(reasons)] = False
        e[~ok] = norm_e[~ok] = 0.0  # a one-term series; their logs are set to NaN below
    logs = np.empty_like(e)
    rows, total, term, gap, m = np.arange(len(a)), e.copy(), e, 1.0 - norm_e, 1
    while rows.size:  # a matrix leaves the series where its tail bound says
        m += 1
        term = term @ e
        total += ((-1.0) ** (m + 1) / m) * term
        stop = (norm_e ** (m + 1) / ((m + 1) * gap) < 1e-17) | (m > 80)
        if stop.any():
            logs[rows[stop]] = total[stop] * np.ldexp(1.0, k[stop])[:, None, None]
            if stop.all():
                break
            rows, e, term, total, norm_e, gap, k = (
                v[~stop] for v in (rows, e, term, total, norm_e, gap, k))
    if reasons:
        logs[~ok] = np.nan
    return logs, ok, reasons


def _logm(g: np.ndarray) -> np.ndarray:
    """Principal log of one matrix: row 0 of a one-row _logm_stack, raising its reason."""
    logs, ok, reasons = _logm_stack(g[None])
    if not ok[0]:
        raise OutOfDomainError(reasons[0])
    return logs[0]


def log_matrix(g: GroupElement) -> AlgebraVector:
    """Principal matrix logarithm; raises OutOfDomainError outside its domain."""
    return AlgebraVector(_logm(g.entries))


# ---------------------------------------------------------------------------
# bracket, adjoint, conjugation, distance proxy

def bracket(x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
    """Lie bracket [X, Y] = XY - YX."""
    if x.dim != y.dim:
        raise InvalidArgumentError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return AlgebraVector(x.entries @ y.entries - y.entries @ x.entries)


def _ad_stack(x: np.ndarray) -> np.ndarray:
    """Ad matrices of a (..., d, d) stack, each in the basis of algebra_basis(d)."""
    d = x.shape[-1]
    stack = _basis_stack(d)
    x = x[..., None, :, :]
    xb = x @ stack - stack @ x  # (..., D, d, d), bracket with each basis element
    xb = np.swapaxes(xb.reshape(*xb.shape[:-2], d * d), -1, -2)
    return stack.reshape(len(stack), -1) @ xb  # column j = coords of [X, B_j]


def ad_operator(x: AlgebraVector) -> np.ndarray:
    """(D, D) matrix of Y -> [X, Y] in the orthonormal basis of algebra_basis(d)."""
    return _ad_stack(x.entries)


def conjugate(g: GroupElement, x: AlgebraVector) -> AlgebraVector:
    """Adjoint action g X g^-1; preserves zero row sums."""
    a = g.entries
    if abs(np.linalg.det(a)) <= SINGULARITY_TOL:
        raise SingularMatrixError("conjugation requires an invertible group element")
    gx = a @ x.entries
    res = np.linalg.solve(a.T, gx.T).T
    # row sums of g X g^-1 vanish exactly in exact arithmetic; clean roundoff
    return AlgebraVector(res - np.diag(res.sum(axis=1)))


def distance_proxy(g: GroupElement, h: GroupElement) -> float:
    """|log(g^-1 h)|_F, a left-invariant surrogate for the Riemannian distance."""
    rel = np.linalg.solve(g.entries, h.entries)
    return float(np.linalg.norm(_logm(rel)))


# ---------------------------------------------------------------------------
# empirical validation of the configured injectivity neighborhood

@dataclass(frozen=True)
class InjectivityReport:
    dim: int
    eps: float
    radius: float
    samples: int
    max_roundtrip_error: float
    max_log_norm: float
    passed: bool


def _check_sampling(n_samples: int, radius: float, max_radius: float = np.inf) -> None:
    """Reject fewer than one sample and a radius not positive, finite and in range."""
    if n_samples < 1:
        raise InvalidArgumentError(f"need at least one sample, got {n_samples}")
    if not 0.0 < radius < np.inf:
        raise InvalidArgumentError(f"radius must be positive and finite, got {radius}")
    if radius > max_radius + 1e-12:
        raise OutOfDomainError(f"radius {radius} exceeds {max_radius}")


def validate_injectivity(d: int, eps: float = INJECTIVITY_EPS,
                         radius: float = INJECTIVITY_RADIUS,
                         n_samples: int = 200, seed: int = 0) -> InjectivityReport:
    """Round-trip sampling check of the (eps, radius) neighborhood constants.

    Verifies that exp/log invert each other on the ball |X| <= radius and that
    group elements with ||g - I||_F <= eps have |log g| <= radius.
    """
    _check_sampling(n_samples, radius)
    rng = np.random.default_rng(seed)
    x = _coords_to_matrices(np.array([_ball_coords(d, radius, rng) for _ in range(n_samples)]), d)
    g = _expm(x)
    back, ok, reasons = _logm_stack(g)
    if not ok.all():
        raise OutOfDomainError(reasons[int(np.argmin(ok))])
    max_rt = float(_frobenius_norms(back - x).max())
    inside = _frobenius_norms(g - np.eye(d)) <= eps
    max_log = float(_frobenius_norms(back[inside]).max(initial=0.0))
    passed = max_rt < 1e-10 and max_log <= radius
    return InjectivityReport(d, eps, radius, n_samples, max_rt, max_log, passed)
