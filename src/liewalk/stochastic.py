"""The unit-row-sum (stochastic) matrix group, its algebra and positive cone.

The group membership predicate with its residual report (AlgebraVector
checks algebra membership itself), the nonnegativity certificate for
exponentials of positive-cone elements, and the built-in two-state
reference model.  The model's closed forms (its one-step maps among them)
live in the tests, as oracles for the general routines.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution
from .errors import InvalidArgumentError
from .lie import MEMBERSHIP_TOL, SINGULARITY_TOL, AlgebraVector, _expm

CONE_TOL = -1e-12  # off-diagonal entries >= CONE_TOL count as in the closed cone


def is_group_member(m, tol: float = MEMBERSHIP_TOL):
    """Check unit row sums and invertibility; returns (ok, residual report)."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    row_residual = float(np.abs(a.sum(axis=1) - 1.0).max())
    det = float(np.linalg.det(a))
    ok = row_residual <= tol and abs(det) > SINGULARITY_TOL
    return ok, {"row_sum_residual": row_residual, "det": det}


def is_positive_cone(x: AlgebraVector, tol: float = CONE_TOL) -> bool:
    """True iff every off-diagonal entry is >= tol (closed cone under floating point)."""
    a = x.entries
    off = a[~np.eye(x.dim, dtype=bool)]
    return bool(off.min() >= tol)


@dataclass(frozen=True)
class ConeCertificate:
    """Witness that exp(A) is an invertible transition matrix for cone A."""

    shift: float                # k = max_i |A_ii|
    identity_residual: float    # max |exp(A) - e^{-k} exp(A + kI)|
    min_shifted_entry: float    # min entry of exp(A + kI), nonnegative up to roundoff
    min_exp_entry: float
    passed: bool


def exp_cone_certificate(x: AlgebraVector) -> ConeCertificate:
    """Certify exp(A) = e^{-k} exp(A + kI) with exp(A + kI) entrywise nonnegative."""
    if not is_positive_cone(x):
        raise InvalidArgumentError("matrix is not in the positive cone")
    a = x.entries
    k = float(np.abs(np.diag(a)).max())
    shifted = _expm(a + k * np.eye(x.dim))
    direct = _expm(a)
    residual = float(np.abs(direct - np.exp(-k) * shifted).max())
    min_shifted = float(shifted.min())
    cert = ConeCertificate(
        shift=k,
        identity_residual=residual,
        min_shifted_entry=min_shifted,
        min_exp_entry=float(direct.min()),
        passed=residual <= 1e-10 and min_shifted >= CONE_TOL,
    )
    return cert


# ---------------------------------------------------------------------------
# two-state reference model

@dataclass(frozen=True, eq=False)
class ExampleModel:
    """Two-state model: increments A = [[-a, a], [0, 0]], B = [[0, 0], [b, -b]],
    each with probability 1/2.  Its walks take their steps exp(A/n), exp(B/n)
    from the matrix exponential, as every other law's do.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise InvalidArgumentError("alpha and beta must be positive and finite")

    @property
    def dim(self) -> int:
        return 2

    @property
    def atom_a(self) -> AlgebraVector:
        return AlgebraVector([[-self.alpha, self.alpha], [0.0, 0.0]])

    @property
    def atom_b(self) -> AlgebraVector:
        return AlgebraVector([[0.0, 0.0], [self.beta, -self.beta]])

    @property
    def weights(self) -> tuple[float, float]:
        return (0.5, 0.5)

    def distribution(self) -> IncrementDistribution:
        return IncrementDistribution(atoms=(self.atom_a, self.atom_b),
                                     weights=self.weights)

    @property
    def mean_increment(self) -> AlgebraVector:
        return 0.5 * (self.atom_a + self.atom_b)


def example_model(alpha: float, beta: float) -> ExampleModel:
    return ExampleModel(alpha=float(alpha), beta=float(beta))
