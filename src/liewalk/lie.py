"""Matrix Lie group/algebra primitives for the unit-row-sum family.

Group elements are invertible d x d matrices with unit row sums; algebra
elements are d x d matrices with zero row sums, carrying the Frobenius
inner product.  The module provides the exponential (scaling-and-squaring
with a degree-7 Pade core), the principal logarithm (inverse scaling and
squaring: Denman-Beavers square roots until ||g - I||_F < 0.25, then a
truncated Mercator series with an explicit tail bound), brackets, adjoint
operators, conjugation, and the left-invariant distance proxy
|log(g^-1 h)|_F.

All values are immutable and all operations are pure functions, so
everything here is safe to share across parallel workers.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    MembershipError,
    NonConvergenceError,
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

    def inverse(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.entries))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.entries @ other.entries)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Linear map on the algebra, stored in the orthonormal basis of algebra_basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply_coords(self, c: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(c, dtype=np.float64)

    def norm(self, iters: int = 30, tol: float = 1e-12) -> float:
        """Operator norm (largest singular value) by power iteration on M^T M."""
        return operator_norm(self.matrix, iters=iters, tol=tol)

    def norm_svd(self) -> float:
        """Exact operator norm via dense SVD; used by tests to cross-check."""
        return float(np.linalg.svd(self.matrix, compute_uv=False)[0])


def operator_norm(m: np.ndarray, iters: int = 30, tol: float = 1e-12) -> float:
    """Largest singular value: power iteration on M^T M, deterministic start.

    Near-degenerate top singular pairs make fixed-count power iteration
    arbitrarily slow, so when the Rayleigh increments have not dropped below
    tol relative to the quotient by the last iteration the exact symmetric
    eigenvalue of the small Gram matrix is returned instead.  The stop is
    relative so that small operators are not cut off at their first quotient.
    """
    m = np.asarray(m, dtype=np.float64)
    v = 1.0 + 0.01 * np.arange(m.shape[1])
    v /= np.linalg.norm(v)
    mtm = m.T @ m
    lam = 0.0
    for _ in range(iters):
        w = mtm @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        lam_new = float(v_new @ (mtm @ v_new))
        if abs(lam_new - lam) <= tol * lam_new:
            return float(np.sqrt(max(lam_new, 0.0)))
        v, lam = v_new, lam_new
    return float(np.sqrt(max(np.linalg.eigvalsh(mtm)[-1], 0.0)))


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


def from_coords(c: np.ndarray, d: int) -> AlgebraVector:
    stack = _basis_stack(d)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (stack.shape[0],):
        raise InvalidArgumentError(f"expected {stack.shape[0]} coordinates, got {c.shape}")
    return AlgebraVector(np.tensordot(c, stack, axes=1))


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

    A stack gives each matrix its own scaling exponent; every matrix comes
    out bit for bit as it does on its own.
    """
    if a.ndim == 2:
        norm = np.linalg.norm(a)
        s = 0
        if norm >= 0.5:
            s = int(np.ceil(np.log2(norm / 0.5)))
        r = _pade7(a / (2.0 ** s))
        for _ in range(s):
            r = r @ r
        return r
    norms = _frobenius_norms(a)
    s = np.zeros(norms.shape, dtype=np.int64)
    big = norms >= 0.5
    s[big] = np.ceil(np.log2(norms[big] / 0.5))
    r = _pade7(a / np.ldexp(1.0, s)[..., None, None])
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def exp_matrix(x: AlgebraVector) -> GroupElement:
    """Matrix exponential of an algebra element; lands in the group."""
    return GroupElement(_expm(x.entries))


# ---------------------------------------------------------------------------
# matrix logarithm: inverse scaling and squaring

def _sqrtm_db(a: np.ndarray, max_iter: int = 80, tol: float = 1e-14) -> np.ndarray:
    """Principal square root by Denman-Beavers iteration."""
    y = a.copy()
    z = np.eye(a.shape[0])
    for _ in range(max_iter):
        try:
            yi = np.linalg.inv(y)
            zi = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise OutOfDomainError(f"square root iteration hit a singular iterate: {exc}")
        y_next = 0.5 * (y + zi)
        z_next = 0.5 * (z + yi)
        delta = np.linalg.norm(y_next - y)
        y, z = y_next, z_next
        if delta <= tol * max(1.0, np.linalg.norm(y)):
            return y
        if not np.all(np.isfinite(y)):
            raise OutOfDomainError("square root iteration diverged (matrix outside principal-log domain)")
    raise NonConvergenceError("Denman-Beavers square root did not converge")


def _logm(g: np.ndarray, max_sqrt: int = 60) -> np.ndarray:
    a = g.copy()
    d = g.shape[0]
    ident = np.eye(d)
    k = 0
    while np.linalg.norm(a - ident) >= _MERCATOR_SWITCH:
        if k >= max_sqrt:
            raise OutOfDomainError(
                "matrix logarithm: square-root reduction did not contract "
                f"(||g - I|| = {np.linalg.norm(a - ident):.3e} after {k} roots)")
        try:
            a = _sqrtm_db(a)
        except NonConvergenceError as exc:
            raise OutOfDomainError(f"matrix outside the principal-log domain: {exc}")
        k += 1
    e = a - ident
    norm_e = np.linalg.norm(e)
    # Mercator series log(I + E) = sum (-1)^{m+1} E^m / m, tail bound
    # ||tail_M|| <= ||E||^{M+1} / ((M+1)(1 - ||E||))
    total = e.copy()
    term = e.copy()
    m = 1
    while True:
        m += 1
        term = term @ e
        total += ((-1.0) ** (m + 1) / m) * term
        tail = norm_e ** (m + 1) / ((m + 1) * (1.0 - norm_e))
        if tail < 1e-17 or m > 80:
            break
    return total * (2.0 ** k)


def _logm_near_identity(g: np.ndarray):
    """_logm on the matrices of a (n, d, d) stack that take no square root.

    Returns (near, logs): the mask of matrices with ||g - I||_F below
    _MERCATOR_SWITCH and their logs, from one Mercator series in which each
    matrix stops where its own tail bound does, as _logm stops on it alone.
    """
    e = g - np.eye(g.shape[-1])
    norm_e = _frobenius_norms(e)
    near = norm_e < _MERCATOR_SWITCH
    e, norm_e = e[near], norm_e[near]
    total = e.copy()
    term = e.copy()
    live = np.arange(len(e))
    m = 1
    while live.size:
        m += 1
        term[live] = term[live] @ e[live]
        total[live] += ((-1.0) ** (m + 1) / m) * term[live]
        tail = norm_e[live] ** (m + 1) / ((m + 1) * (1.0 - norm_e[live]))
        live = live[(tail >= 1e-17) & (m <= 80)]
    return near, total


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


def ad_operator(x: AlgebraVector) -> LinearOperator:
    """Matrix of Y -> [X, Y] in the orthonormal basis of algebra_basis(d)."""
    stack = _basis_stack(x.dim)
    big = stack.shape[0]
    flat = stack.reshape(big, -1)
    xb = x.entries @ stack - stack @ x.entries  # (D, d, d), bracket with each basis el
    m = flat @ xb.reshape(big, -1).T            # column j = coords of [X, B_j]
    return LinearOperator(m)


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


def validate_injectivity(d: int, eps: float = INJECTIVITY_EPS,
                         radius: float = INJECTIVITY_RADIUS,
                         n_samples: int = 200, seed: int = 0) -> InjectivityReport:
    """Round-trip sampling check of the (eps, radius) neighborhood constants.

    Verifies that exp/log invert each other on the ball |X| <= radius and that
    group elements with ||g - I||_F <= eps have |log g| <= radius.
    """
    rng = np.random.default_rng(seed)
    big = algebra_dim(d)
    max_rt = 0.0
    max_log = 0.0
    count = 0
    while count < n_samples:
        c = rng.standard_normal(big)
        c *= rng.uniform(0, radius) / np.linalg.norm(c)
        x = from_coords(c, d)
        g = exp_matrix(x)
        back = log_matrix(g)
        max_rt = max(max_rt, (back - x).norm)
        if np.linalg.norm(g.entries - np.eye(d)) <= eps:
            max_log = max(max_log, back.norm)
        count += 1
    passed = max_rt < 1e-10 and max_log <= radius
    return InjectivityReport(d, eps, radius, n_samples, max_rt, max_log, passed)
