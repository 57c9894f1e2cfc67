"""Finitely supported increment laws on the matrix algebra."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .lie import AlgebraVector


@dataclass(frozen=True, eq=False)
class IncrementDistribution:
    """Probability measure with finitely many atoms in the algebra.

    Weights must be strictly positive and sum to one within 1e-12; the
    support bound B = max |atom| is finite by construction, which keeps the
    log moment generating function everywhere finite.
    """

    atoms: tuple[AlgebraVector, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(atoms) == 0:
            raise InvalidArgumentError("distribution needs at least one atom")
        if len(atoms) != len(weights):
            raise InvalidArgumentError("atoms and weights must have equal length")
        if any(w <= 0 for w in weights):
            raise InvalidArgumentError("weights must be strictly positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise InvalidArgumentError(f"weights sum to {sum(weights)!r}, not 1")
        d = atoms[0].dim
        if any(a.dim != d for a in atoms):
            raise InvalidArgumentError("all atoms must share one dimension")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point_mass(cls, x: AlgebraVector) -> "IncrementDistribution":
        return cls(atoms=(x,), weights=(1.0,))

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def support_bound(self) -> float:
        return max(a.norm for a in self.atoms)

    @property
    def mean(self) -> AlgebraVector:
        acc = self.weights[0] * self.atoms[0]
        for w, a in zip(self.weights[1:], self.atoms[1:]):
            acc = acc + w * a
        return acc

    def atom_stack(self) -> np.ndarray:
        """Atoms as a (k, d, d) array."""
        return np.array([a.entries for a in self.atoms])

    def sample_indices(self, rng: np.random.Generator, size,
                       weights=None) -> np.ndarray:
        """Inverse-CDF atom sampling; `weights` overrides the stored law (tilting).

        Indices come in the smallest unsigned type that holds n_atoms - 1.
        """
        w = np.asarray(self.weights if weights is None else weights, dtype=np.float64)
        cum = np.cumsum(w)
        cum[-1] = 1.0
        u = rng.random(size)
        idx = np.searchsorted(cum, u, side="right")
        return idx.astype(np.min_scalar_type(self.n_atoms - 1))
