"""Integral-form Baker-Campbell-Hausdorff evaluation and bound certificates.

The central objects are the operator series

    f(ad_X) = sum_{m>=0} (-1)^m / (m+1)!  ad_X^m        (entire)
    g(W)    = I + sum_{m>=1} (-1)^{m+1} / (m(m+1)) (W - I)^m,   ||W - I|| < 1

with W = e^{ad_X} e^{s ad_Y}, and the integral formula

    log(exp(X) exp(Y)) = X + (int_0^1 g(e^{ad_X} e^{s ad_Y}) ds) Y,

evaluated by Gauss-Legendre quadrature.  Both series stop once their tail
bound drops below SERIES_TOL and raise NonConvergenceError if
SERIES_MAX_ORDER terms do not get there; f_operator and g_operator return
(D, D) arrays in the frame of lie.algebra_basis.  Certificates compare the
measured deviation |log(exp X exp Y) - X - Y| against C(||ad_X||) |Y| where
C(a) = (e^a - 1) * sum_{m>=1} (sqrt(2)-1)^{m-1} / (m(m+1)).

Every certificate is computed on stacks of pairs, with norms from
lie.operator_norm: a single-pair check (verify_log_product,
verify_lipschitz) is one row of the body its suite runs on.  Sampling-based
verifiers take explicit seeds and derive one child stream per pair, so
suites can be sharded by seed offset and merged; they run in blocks of up
to _BLOCK pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NonConvergenceError, OutOfDomainError
from .lie import (
    AlgebraVector,
    _ad_stack,
    _ball_coords,
    _check_sampling,
    _coords_to_matrices,
    _expm,
    _frobenius_norms,
    _logs,
    ad_operator,
    coords,
    from_coords,
    operator_norm,
)

CERT_TOL = 1e-12            # pass margin for bound certificates
SQRT2M1 = math.sqrt(2.0) - 1.0
R_BCH = 0.2                 # operational radius (Frobenius) for d <= 4
_BLOCK = 256                # pairs per stacked block; any suite peaks near 4 MiB at d = 3
SERIES_MAX_ORDER = 60       # most terms the f and g series take
SERIES_TOL = 1e-14          # a series stops once its tail bound is below this


def _series_constant() -> float:
    # sum_{m>=1} (sqrt(2)-1)^{m-1} / (m(m+1)), summed until increments vanish
    total = 0.0
    power = 1.0
    m = 1
    while True:
        inc = power / (m * (m + 1))
        total += inc
        if inc < 1e-16:
            return total
        power *= SQRT2M1
        m += 1


C_SERIES = _series_constant()


def c_constant(ad_norm: float) -> float:
    """Deviation constant C(a) = (e^a - 1) * C_SERIES; zero at a = 0, increasing."""
    if ad_norm < 0:
        raise InvalidArgumentError("ad_norm must be nonnegative")
    return float(np.expm1(ad_norm) * C_SERIES)


def g_tail(q: float, m: int) -> float:
    """Geometric tail of the g-series after m terms at contraction q."""
    return q ** (m + 1) / ((m + 1) * (m + 2) * (1.0 - q))


def _not_converged(series: str, norm: str, tail: float) -> NonConvergenceError:
    return NonConvergenceError(
        f"{series}-series not converged at order {SERIES_MAX_ORDER}: {norm}, "
        f"tail bound {tail:.3e} >= {SERIES_TOL:g}")


@dataclass(frozen=True)
class BoundCertificate:
    lhs: float
    rhs: float
    constant: float
    passed: bool

    @classmethod
    def compare(cls, lhs: float, rhs: float, constant: float) -> "BoundCertificate":
        return cls(lhs=lhs, rhs=rhs, constant=constant,
                   passed=bool(lhs <= rhs + CERT_TOL))


def f_operator(x: AlgebraVector) -> np.ndarray:
    """Series for (I - e^{-ad_X}) / ad_X, cut by a factorial tail bound."""
    ad = ad_operator(x)
    a = operator_norm(ad)
    big = ad.shape[0]
    term = np.eye(big)
    total = np.eye(big)
    m = 0
    while True:
        m += 1
        term = term @ ad * (-1.0 / (m + 1))
        total += term
        # tail <= a^m / (m+2)! * 1/(1 - a/(m+3)) once m + 3 > a
        denom = max(1.0 - a / (m + 3), 0.5)
        tail = a ** (m + 1) / math.factorial(m + 2) / denom
        if tail < SERIES_TOL:
            return total
        if m == SERIES_MAX_ORDER:
            raise _not_converged("f", f"||ad_X|| = {a:.6f}", tail)


def _g_series(w: np.ndarray) -> np.ndarray:
    big = w.shape[0]
    e = w - np.eye(big)
    q = operator_norm(e)
    if q >= 1.0:
        raise OutOfDomainError(
            f"g-series contraction violated: ||e^ad_X e^s ad_Y - I|| = {q:.6f} >= 1")
    total = np.eye(big) + 0.5 * e
    term = e.copy()
    m = 1
    while (tail := g_tail(q, m)) >= SERIES_TOL:
        if m == SERIES_MAX_ORDER:
            raise _not_converged("g", f"||e^ad_X e^s ad_Y - I|| = {q:.6f}", tail)
        m += 1
        term = term @ e
        total += ((-1.0) ** (m + 1) / (m * (m + 1))) * term
    return total


def g_operator(x: AlgebraVector, y: AlgebraVector, s: float) -> np.ndarray:
    """g(e^{ad_X} e^{s ad_Y}) as an operator on the algebra."""
    if not 0.0 <= s <= 1.0:
        raise InvalidArgumentError("s must lie in [0, 1]")
    return _g_series(_expm(ad_operator(x)) @ _expm(s * ad_operator(y)))


def _check_radius(name: str, x: AlgebraVector, y: AlgebraVector) -> None:
    if x.norm > R_BCH + 1e-12 or y.norm > R_BCH + 1e-12:
        raise OutOfDomainError(
            f"{name} radius exceeded: |X| = {x.norm:.4f}, |Y| = {y.norm:.4f}, "
            f"allowed {R_BCH}")


def bch_log(x: AlgebraVector, y: AlgebraVector, quad_nodes: int = 16) -> AlgebraVector:
    """Quadrature of the integral formula for log(exp(X) exp(Y)).

    Requires |X|, |Y| <= R_BCH so the contraction condition of the series
    holds along the whole integration path.
    """
    _check_radius("bch_log", x, y)
    ad_x = _expm(ad_operator(x))
    ad_y = ad_operator(y)
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    y_coords = coords(y)
    acc = np.zeros_like(y_coords)
    for xi, wi in zip(nodes, weights):
        s = 0.5 * (xi + 1.0)
        w = ad_x @ _expm(s * ad_y)
        acc += 0.5 * wi * (_g_series(w) @ y_coords)
    return from_coords(coords(x) + acc, x.dim)


def verify_log_product(x: AlgebraVector, y: AlgebraVector) -> BoundCertificate:
    """Certificate for |log(exp X exp Y) - X - Y| <= C(||ad_X||) |Y|."""
    _check_radius("verify_log_product", x, y)
    lhs, ad_norm, rhs = _log_product_bounds(x.entries[None], y.entries[None])
    return BoundCertificate.compare(float(lhs[0]), float(rhs[0]), c_constant(float(ad_norm[0])))


def verify_lipschitz(x: AlgebraVector, y: AlgebraVector, c: float) -> BoundCertificate:
    """Certificate for |log(exp X exp(-Y))| <= C |X - Y| at a supplied constant."""
    _check_radius("verify_lipschitz", x, y)
    lhs, gap = _lipschitz_parts(x.entries[None], y.entries[None])
    return BoundCertificate.compare(float(lhs[0]), c * float(gap[0]), c)


# ---------------------------------------------------------------------------
# sampling helpers and suites

def sample_ball(d: int, radius: float, rng: np.random.Generator,
                surface: bool = False) -> AlgebraVector:
    """Uniform random direction with norm <= radius (= radius if surface)."""
    return from_coords(_ball_coords(d, radius, rng, surface), d)


def _pair_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _pair_blocks(d: int, radius: float, n_pairs: int, seed: int, surface: bool = False):
    """Yield (start, x, y), (k, d, d) stacks of pairs start, start + 1, ... (as sample_ball)."""
    for start in range(0, n_pairs, _BLOCK):
        rngs = [_pair_rng(seed, i) for i in range(start, min(start + _BLOCK, n_pairs))]
        c = [[_ball_coords(d, radius, rng, surface) for _ in range(2)] for rng in rngs]
        xy = _coords_to_matrices(np.array(c), d)  # (k, 2, d, d)
        yield start, xy[:, 0], xy[:, 1]


def _log_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(exp X exp Y) for each pair of two (k, d, d) stacks."""
    e = _expm(np.stack((x, y), axis=1))
    return _logs(e[:, 0] @ e[:, 1], lambda i: "")


def _log_product_bounds(x: np.ndarray, y: np.ndarray):
    """(lhs, ||ad_X||, rhs) of the deviation bound for each pair of two (k, d, d) stacks."""
    ad_norm = operator_norm(_ad_stack(x))
    lhs = _frobenius_norms(_log_products(x, y) - x - y)
    return lhs, ad_norm, np.expm1(ad_norm) * C_SERIES * _frobenius_norms(y)


def _lipschitz_parts(x: np.ndarray, y: np.ndarray):
    """(|log(exp X exp(-Y))|, |X - Y|) for each pair of two (k, d, d) stacks."""
    return _frobenius_norms(_log_products(x, -y)), _frobenius_norms(x - y)


def empirical_lipschitz_constant(d: int, radius: float, n_pairs: int,
                                 seed: int) -> float:
    """Max observed |log(exp X exp(-Y))| / |X - Y| over a seeded sample."""
    _check_sampling(n_pairs, radius, R_BCH)
    worst = 0.0
    for _, x, y in _pair_blocks(d, radius, n_pairs, seed):
        lhs, gap = _lipschitz_parts(x, y)
        far = gap >= 1e-12
        worst = max(worst, float((lhs[far] / gap[far]).max(initial=0.0)))
    return worst


def run_log_product_suite(d: int, radius: float, n_pairs: int, seed: int):
    """Per-pair certificate rows for the deviation bound.

    Yields (pair_seed, |X|, |Y|, ad_norm, lhs, rhs, passed) as Python
    scalars; pair i is drawn from the child stream spawn_key=(i,) of the
    base seed, so disjoint index ranges shard the suite.
    """
    _check_sampling(n_pairs, radius, R_BCH)
    return _log_product_rows(d, radius, n_pairs, seed)


def _log_product_rows(d: int, radius: float, n_pairs: int, seed: int):
    for start, x, y in _pair_blocks(d, radius, n_pairs, seed):
        lhs, ad_norm, rhs = _log_product_bounds(x, y)
        yield from zip(range(start, start + len(x)), _frobenius_norms(x).tolist(),
                       _frobenius_norms(y).tolist(), ad_norm.tolist(), lhs.tolist(),
                       rhs.tolist(), (lhs <= rhs + CERT_TOL).tolist())


@dataclass(frozen=True)
class RadiusReport:
    dim: int
    radius: float
    samples: int
    max_contraction_norm: float   # max ||e^{ad_X} e^{s ad_Y} - I|| observed
    series_converges: bool        # max norm < 1, so the g-series is usable
    within_proof_constant: bool   # max norm <= sqrt(2) - 1


def validate_bch_radius(d: int, radius: float = R_BCH, n_samples: int = 200,
                        seed: int = 0) -> RadiusReport:
    """Measure the contraction norm on boundary pairs at the given radius.

    The g-series only needs ||W - I|| < 1, here an operator_norm (a bound from
    above) at s = 1/4, 1/2, 3/4 and 1.  The sharper sqrt(2)-1 threshold
    (under which the closed-form deviation constant is airtight) fails for
    aligned boundary pairs already in the 2x2 algebra, so it is reported
    rather than enforced; the deviation bound itself is checked directly by
    run_log_product_suite.
    """
    _check_sampling(n_samples, radius)
    s = np.array([0.25, 0.5, 0.75, 1.0])[:, None, None]
    worst = 0.0
    for _, x, y in _pair_blocks(d, radius, n_samples, seed, surface=True):
        ad_x, ad_y = _ad_stack(x)[:, None], _ad_stack(y)[:, None]
        e = _expm(np.concatenate((ad_x, s * ad_y), axis=1))  # e^{ad_X}, then e^{s ad_Y}
        w = e[:, :1] @ e[:, 1:] - np.eye(ad_x.shape[-1])
        worst = max(worst, float(operator_norm(w).max()))
    return RadiusReport(d, radius, n_samples, worst,
                        series_converges=worst < 1.0,
                        within_proof_constant=worst <= SQRT2M1)
