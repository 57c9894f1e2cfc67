"""Simulation of the rescaled random walk and its segment decomposition.

A trajectory multiplies one-step maps exp(X_k / n) for i.i.d. increments
X_k drawn from a finitely supported law.  Segment decompositions cut the
walk into m blocks whose displacements stay inside the logarithm domain,
and the replacement certificate compares prefix logs against the running
increment average.

Reproducibility: a trajectory is a pure function of (distribution, n,
seed); increments are drawn by inverse CDF from a PCG64 stream seeded with
``numpy.random.SeedSequence(seed)``.  Parallel chains should use child
seeds from ``SeedSequence(seed).spawn(k)``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import partial_products
from .bch import BoundCertificate, c_constant
from .distributions import IncrementDistribution
from .errors import InvalidArgumentError, OutOfDomainError
from .lie import (
    AlgebraVector,
    GroupElement,
    _expm,
    _logm,
    ad_operator,
    distance_proxy,
    from_coords,
    algebra_dim,
)

POINT_STORAGE_LIMIT = 100_000  # keep all points up to this n, checkpoint above
CHECKPOINT_COUNT = 1_000


@dataclass(frozen=True, eq=False)
class WalkTrajectory:
    """Realized rescaled walk: n increments and the n+1 partial products.

    For n above POINT_STORAGE_LIMIT only every ``stride``-th point is kept;
    ``point(k)`` recomputes intermediate products from the nearest stored
    checkpoint.
    """

    dist: IncrementDistribution
    n: int
    seed: int
    atom_indices: np.ndarray          # (n,) unsigned, sized to the atom count
    _points: np.ndarray               # stored points, (n_stored, d, d)
    stride: int

    @property
    def dim(self) -> int:
        return self.dist.dim

    @cached_property
    def _step_mats(self) -> np.ndarray:
        return np.array([_expm(a.entries / self.n) for a in self.dist.atoms])

    @property
    def increments(self) -> np.ndarray:
        """Realized increments X_1..X_n as an (n, d, d) array."""
        return self.dist.atom_stack()[self.atom_indices]

    @property
    def points(self) -> np.ndarray:
        if self.stride != 1:
            raise InvalidArgumentError(
                "full point storage unavailable for this n; use point(k)")
        return self._points

    def point(self, k: int) -> np.ndarray:
        """Partial product after k steps (k = 0 is the identity)."""
        if not 0 <= k <= self.n:
            raise InvalidArgumentError(f"k must lie in [0, {self.n}]")
        if self.stride == 1:
            return self._points[k]
        base = k // self.stride
        acc = self._points[base].copy()
        mats = self._step_mats
        for j in range(base * self.stride, k):
            acc = acc @ mats[self.atom_indices[j]]
        return acc

    @property
    def endpoint(self) -> GroupElement:
        return GroupElement(self.point(self.n))


def simulate_walk(dist: IncrementDistribution, n: int, seed: int) -> WalkTrajectory:
    """Simulate the rescaled walk; deterministic given (dist, n, seed)."""
    if n < 1:
        raise InvalidArgumentError("n must be a positive integer")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = dist.sample_indices(rng, n)
    step_mats = np.array([_expm(a.entries / n) for a in dist.atoms])
    points = partial_products(step_mats[idx])
    if n <= POINT_STORAGE_LIMIT:
        stored, stride = points, 1
    else:
        stride = int(np.ceil(n / CHECKPOINT_COUNT))
        stored = points[::stride].copy()
    stored.flags.writeable = False
    idx.flags.writeable = False
    return WalkTrajectory(dist=dist, n=n, seed=seed, atom_indices=idx,
                          _points=stored, stride=stride)


# ---------------------------------------------------------------------------
# segment decomposition

@dataclass(frozen=True, eq=False)
class SegmentDecomposition:
    """Block logs of the walk at boundaries l * floor(n/m) (last block to n)."""

    traj: WalkTrajectory
    m: int
    boundaries: tuple[int, ...]
    segment_logs: tuple[AlgebraVector, ...]

    def log_at(self, l: int, k: int) -> AlgebraVector:
        """Log of the displacement k steps into segment l (1-based l)."""
        if not 1 <= l <= self.m:
            raise InvalidArgumentError(f"segment index must lie in [1, {self.m}]")
        lo = self.boundaries[l - 1]
        hi = self.boundaries[l]
        if not 1 <= k <= hi - lo:
            raise InvalidArgumentError(f"k must lie in [1, {hi - lo}] for segment {l}")
        rel = np.linalg.solve(self.traj.point(lo), self.traj.point(lo + k))
        return AlgebraVector(_logm(rel))


def segment_decomposition(traj: WalkTrajectory, m: int) -> SegmentDecomposition:
    if not 1 <= m <= traj.n:
        raise InvalidArgumentError("segment count must lie in [1, n]")
    block = traj.n // m
    bounds = tuple(l * block for l in range(m)) + (traj.n,)
    logs = []
    for l in range(1, m + 1):
        rel = np.linalg.solve(traj.point(bounds[l - 1]), traj.point(bounds[l]))
        try:
            logs.append(AlgebraVector(_logm(rel)))
        except OutOfDomainError as exc:
            raise OutOfDomainError(
                f"segment {l} displacement is outside the log domain; "
                f"increase m (currently {m}): {exc}")
    return SegmentDecomposition(traj=traj, m=m, boundaries=bounds,
                                segment_logs=tuple(logs))


def psi_m(segments) -> GroupElement:
    """Ordered product of exponentials exp(x_1) ... exp(x_m)."""
    segments = list(segments)
    if not segments:
        raise InvalidArgumentError("need at least one segment")
    acc = _expm(segments[0].entries)
    for x in segments[1:]:
        acc = acc @ _expm(x.entries)
    return GroupElement(acc)


# ---------------------------------------------------------------------------
# replacement certificate

def kappa_support(dist: IncrementDistribution) -> float:
    """Max of ||ad_X|| / |X| over the support atoms (norm-to-adjoint conversion)."""
    worst = 0.0
    for a in dist.atoms:
        if a.norm > 0:
            worst = max(worst, ad_operator(a).norm_svd() / a.norm)
    return worst


@dataclass(frozen=True)
class ReplacementCertificate:
    m: int
    checked_steps: int
    max_deviation: float
    argmax_k: int
    bound: float
    kappa: float
    support_bound: float
    passed: bool


def replacement_deviation(traj: WalkTrajectory, m: int) -> ReplacementCertificate:
    """Max over k <= floor(n/m) of |log(sigma_k) - (1/n) sum_{i<=k} X_i| vs its bound.

    The bound is C(kappa * B / m) * (B / m) with B the support bound and
    kappa the measured norm-to-adjoint constant of the support.
    """
    n = traj.n
    k_max = n // m
    if k_max < 1:
        raise InvalidArgumentError("m exceeds n; no steps to check")
    b = traj.dist.support_bound
    kappa = kappa_support(traj.dist)
    cums = np.cumsum(traj.dist.atom_stack()[traj.atom_indices[:k_max]], axis=0) / n
    worst, arg = -1.0, 0
    for k in range(1, k_max + 1):
        try:
            lg = _logm(traj.point(k))
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"prefix log undefined at k={k}: {exc}")
        dev = float(np.linalg.norm(lg - cums[k - 1]))
        if dev > worst:
            worst, arg = dev, k
    bound = c_constant(kappa * b / m) * (b / m)
    return ReplacementCertificate(m=m, checked_steps=k_max, max_deviation=worst,
                                  argmax_k=arg, bound=bound, kappa=kappa,
                                  support_bound=b, passed=bool(worst <= bound + 1e-12))


# ---------------------------------------------------------------------------
# continuity of the repeated exponential

def psi_m_continuity_check(xs, ys, r: float, c_emp: float) -> BoundCertificate:
    """Compare d(Psi(x), Psi(y)) against c_emp * sum |x_i - y_i|.

    Preconditions: equal segment counts and |x_i|, |y_i| <= r / m.
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise InvalidArgumentError("segment lists must have equal length")
    m = len(xs)
    cap = r / m + 1e-12
    if any(x.norm > cap for x in xs) or any(y.norm > cap for y in ys):
        raise InvalidArgumentError(f"segment norms must not exceed r/m = {r / m:.4g}")
    lhs = distance_proxy(psi_m(xs), psi_m(ys))
    gap = sum((x - y).norm for x, y in zip(xs, ys))
    return BoundCertificate.compare(lhs, c_emp * gap, c_emp)


def estimate_continuity_constant(d: int, r: float, m: int, n_pairs: int,
                                 seed: int) -> float:
    """Empirical constant: max of d(Psi(x), Psi(y)) / sum |x_i - y_i| by sampling."""
    big = algebra_dim(d)
    worst = 0.0
    for i in range(n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        xs, ys, gap = [], [], 0.0
        for _ in range(m):
            c = rng.standard_normal(big)
            c *= rng.uniform(0, r / m) / np.linalg.norm(c)
            delta = rng.standard_normal(big)
            delta *= rng.uniform(0, 0.2 * r / m) / np.linalg.norm(delta)
            cy = c + delta
            ny = np.linalg.norm(cy)
            if ny > r / m:
                cy *= (r / m) / ny
            x = from_coords(c, d)
            y = from_coords(cy, d)
            xs.append(x)
            ys.append(y)
            gap += (x - y).norm
        if gap < 1e-14:
            continue
        lhs = distance_proxy(psi_m(xs), psi_m(ys))
        worst = max(worst, lhs / gap)
    return worst
