"""Simulation of the rescaled random walk and its segment decomposition.

A trajectory multiplies one-step maps exp(X_k / n) for i.i.d. increments
X_k drawn from a finitely supported law.  Segment decompositions cut the
walk into m blocks whose displacements stay inside the logarithm domain,
and the replacement certificate compares prefix logs against the running
increment average.  A trajectory stores all n + 1 partial products, built
by one doubling scan (``_kernels.partial_products``): on the 2x2
unit-row-sum group, from 128 steps on, a scan of the steps' affine maps of
the first column, and otherwise a scan of stacked matmuls.

Prefix, step and segment logs are taken a stack at a time.  On the 2x2
unit-row-sum group each log is the closed form log(s)/(s - 1) * (M - I)
(``_kernels.stoch2_logs``), and the step displacements come from the
explicit 2x2 inverse (``_kernels.displacements``).  Larger groups, stacks
off the group and stacks with a matrix outside the closed form's domain
take the Denman-Beavers and Mercator log (``lie._logm_stack``), whose
reason names the first matrix without a log.

Reproducibility: a trajectory is a pure function of (distribution, n,
seed); increments are drawn by inverse CDF from a PCG64 stream seeded with
``numpy.random.SeedSequence(seed)``.  Parallel chains should use child
seeds from ``SeedSequence(seed).spawn(k)``.
"""

import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import _row_sum_error, displacements, partial_products, stoch2_logs
from .bch import BoundCertificate, _pair_rng, c_constant
from .distributions import IncrementDistribution
from .errors import InvalidArgumentError, OutOfDomainError, _positive_int
from .lie import (
    AlgebraVector,
    GroupElement,
    MEMBERSHIP_TOL,
    _ad_stack,
    _ball_coords,
    _coords_to_matrices,
    _expm,
    _frobenius_norms,
    _logm,
    _logm_stack,
    algebra_dim,
    distance_proxy,
    operator_norm,
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
        return _logs_or_raise(displacements(self.points), lambda k: "")

    @property
    def endpoint(self) -> GroupElement:
        return GroupElement(self.point(self.n))


def _logs_or_raise(mats: np.ndarray, context) -> np.ndarray:
    """Logs of a (n, d, d) stack, raising at the first matrix without one.

    A 2x2 stack with unit row sums within MEMBERSHIP_TOL takes the closed
    form stoch2_logs if every matrix has its log there; every other stack
    takes _logm_stack.  The OutOfDomainError carries the matrix's reason from
    _logm_stack after context(i), where i is the matrix's 1-based position
    in the stack.
    """
    if mats.shape[-1] == 2 and _row_sum_error(mats) <= MEMBERSHIP_TOL:
        logs, ok = stoch2_logs(mats)
        if ok.all():
            return logs
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
    # m displacements, too few for the explicit inverse to save time
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
    return _psi(np.array([x.entries for x in segments]))


def _psi(xs: np.ndarray) -> GroupElement:
    """Psi_m of a (m, d, d) segment stack."""
    return GroupElement(partial_products(_expm(xs))[-1])


# ---------------------------------------------------------------------------
# replacement certificate

def kappa_support(dist: IncrementDistribution) -> float:
    """Max of ||ad_X|| / |X| over the nonzero support atoms (norm-to-adjoint
    conversion); 0.0 when every atom is zero."""
    atoms = dist.atom_stack()
    norms = _frobenius_norms(atoms)
    ratios = operator_norm(_ad_stack(atoms))[norms > 0] / norms[norms > 0]
    return float(ratios.max(initial=0.0))


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

def _continuity_parts(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """(d(Psi(x), Psi(y)), sum |x_i - y_i|) for two (m, d, d) segment stacks;
    the gap is summed left to right, as a loop over segment pairs sums it."""
    return distance_proxy(_psi(xs), _psi(ys)), sum(_frobenius_norms(xs - ys).tolist())


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
    lhs, gap = _continuity_parts(np.array([x.entries for x in xs]),
                                 np.array([y.entries for y in ys]))
    return BoundCertificate.compare(lhs, c_emp * gap, c_emp)


def estimate_continuity_constant(d: int, r: float, m: int, n_pairs: int,
                                 seed: int) -> float:
    """Empirical constant: max of d(Psi(x), Psi(y)) / sum |x_i - y_i| by sampling.

    Pair i is drawn from the child stream spawn_key=(i,) of the base seed.
    """
    worst = 0.0
    for i in range(n_pairs):
        rng = _pair_rng(seed, i)
        c = np.empty((2, m, algebra_dim(d)))
        for j in range(m):
            c[0, j] = _ball_coords(d, r / m, rng)
            c[1, j] = c[0, j] + _ball_coords(d, 0.2 * r / m, rng)
            ny = np.linalg.norm(c[1, j])
            if ny > r / m:
                c[1, j] *= (r / m) / ny
        lhs, gap = _continuity_parts(*_coords_to_matrices(c, d))
        if gap >= 1e-14:
            worst = max(worst, lhs / gap)
    return worst
