"""Simulation of the rescaled random walk and its segment decomposition.

A trajectory multiplies one-step maps exp(X_k / n) for i.i.d. increments
X_k drawn from a finitely supported law.  Segment decompositions cut the
walk into m blocks whose displacements stay inside the logarithm domain,
and the replacement certificate compares prefix logs against the running
increment average.  A trajectory stores all n + 1 partial products, built
by one doubling scan (``_kernels.partial_products``): on the 2x2
unit-row-sum group, from 128 steps on, a scan of the steps' affine maps of
the first column, and otherwise a scan of stacked matmuls.

Reproducibility: a trajectory is a pure function of (distribution, n,
seed); increments are drawn by inverse CDF from a PCG64 stream seeded with
``numpy.random.SeedSequence(seed)``.  Parallel chains should use child
seeds from ``SeedSequence(seed).spawn(k)``.
"""

import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import partial_products
from .bch import BoundCertificate, c_constant
from .distributions import IncrementDistribution
from .errors import InvalidArgumentError, OutOfDomainError, _positive_int
from .lie import (
    AlgebraVector,
    GroupElement,
    _ball_coords,
    _expm,
    _frobenius_norms,
    _logm,
    _logm_stack,
    ad_operator,
    distance_proxy,
    from_coords,
)

@dataclass(frozen=True, eq=False)
class WalkTrajectory:
    """Realized rescaled walk: n increments and all n+1 partial products."""

    dist: IncrementDistribution
    n: int
    seed: int
    atom_indices: np.ndarray          # (n,) unsigned, sized to the atom count
    points: np.ndarray                # (n + 1, d, d), read-only

    @property
    def dim(self) -> int:
        return self.dist.dim

    @property
    def increments(self) -> np.ndarray:
        """Realized increments X_1..X_n as an (n, d, d) array."""
        return self.dist.atom_stack()[self.atom_indices]

    def point(self, k: int) -> np.ndarray:
        """Partial product after k steps (k = 0 is the identity)."""
        try:
            k = operator.index(k)
        except TypeError:
            raise InvalidArgumentError(f"k must be an integer, got {k!r}") from None
        if not 0 <= k <= self.n:
            raise InvalidArgumentError(f"k must lie in [0, {self.n}]")
        return self.points[k]

    def prefix_points(self, k: int) -> np.ndarray:
        """Partial products after 0..k steps as a (k + 1, d, d) stack."""
        return self.points[:k + 1]

    def step_logs(self) -> np.ndarray:
        """Logs of the n one-step displacements point(k-1)^-1 point(k)."""
        pts = self.points
        return _logs_or_raise(np.linalg.solve(pts[:-1], pts[1:]), lambda k: "")

    @property
    def endpoint(self) -> GroupElement:
        return GroupElement(self.point(self.n))


def _logs_or_raise(mats: np.ndarray, context) -> np.ndarray:
    """Logs of a (n, d, d) stack, raising at the first matrix without one.

    The OutOfDomainError carries that matrix's reason from _logm_stack after
    context(i), where i is the matrix's 1-based position in the stack.
    """
    logs, ok, reasons = _logm_stack(mats)
    if not ok.all():
        i = int(np.argmin(ok))
        raise OutOfDomainError(f"{context(i + 1)}{reasons[i]}")
    return logs


def simulate_walk(dist: IncrementDistribution, n: int, seed: int) -> WalkTrajectory:
    """Simulate the rescaled walk; deterministic given (dist, n, seed)."""
    n = _positive_int("n", n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = dist.sample_indices(rng, n)
    points = partial_products(_expm(dist.atom_stack() / n)[idx])
    points.flags.writeable = False
    idx.flags.writeable = False
    return WalkTrajectory(dist=dist, n=n, seed=seed, atom_indices=idx, points=points)


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
    m = _positive_int("segment count m", m, ("n", traj.n))
    block = traj.n // m
    bounds = tuple(l * block for l in range(m)) + (traj.n,)
    pts = traj.points[list(bounds)]
    logs = _logs_or_raise(
        np.linalg.solve(pts[:-1], pts[1:]),
        lambda l: (f"segment {l} displacement is outside the log domain; "
                   f"increase m (currently {m}): "))
    return SegmentDecomposition(traj=traj, m=m, boundaries=bounds,
                                segment_logs=tuple(AlgebraVector(x) for x in logs))


def psi_m(segments) -> GroupElement:
    """Ordered product of exponentials exp(x_1) ... exp(x_m)."""
    segments = list(segments)
    if not segments:
        raise InvalidArgumentError("need at least one segment")
    return GroupElement(partial_products(_expm(np.array([x.entries for x in segments])))[-1])


# ---------------------------------------------------------------------------
# replacement certificate

def kappa_support(dist: IncrementDistribution) -> float:
    """Max of ||ad_X|| / |X| over the support atoms (norm-to-adjoint conversion)."""
    worst = 0.0
    for a in dist.atoms:
        if a.norm > 0:
            worst = max(worst, ad_operator(a).norm() / a.norm)
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
    m = _positive_int("segment count m", m, ("n", n))
    k_max = n // m
    b = traj.dist.support_bound
    kappa = kappa_support(traj.dist)
    cums = np.cumsum(traj.dist.atom_stack()[traj.atom_indices[:k_max]], axis=0) / n
    logs = _logs_or_raise(traj.prefix_points(k_max)[1:],
                         lambda k: f"prefix log undefined at k={k}: ")
    devs = _frobenius_norms(logs - cums)
    arg = int(np.argmax(devs)) + 1
    worst = float(devs[arg - 1])
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
    worst = 0.0
    for i in range(n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        xs, ys, gap = [], [], 0.0
        for _ in range(m):
            c = _ball_coords(d, r / m, rng)
            cy = c + _ball_coords(d, 0.2 * r / m, rng)
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
