"""Finitely supported increment laws on the matrix algebra."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .lie import AlgebraVector

SAMPLE_CHUNK = 65536    # uniform draws per chunk of sample_indices


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
        Uniform draws come in flat chunks of SAMPLE_CHUNK, from the same
        stream as one rng.random(size) call; each index counts the
        cumulative weights at or below its draw, which is
        searchsorted(cum, u, side="right") without the search.  The first
        comparison writes the chunk's indices itself (through a bool view of
        8-bit indices), and each further one adds its mask.  Override
        weights must have one finite, nonnegative entry per atom and sum to
        one within 1e-12.
        """
        if weights is None:
            w = np.asarray(self.weights)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (self.n_atoms,):
                raise InvalidArgumentError(
                    f"weights need shape ({self.n_atoms},), got {w.shape}")
            if not (np.isfinite(w).all() and (w >= 0).all()):
                raise InvalidArgumentError("weights must be finite and nonnegative")
            if abs(w.sum() - 1.0) > 1e-12:
                raise InvalidArgumentError(f"weights sum to {w.sum()!r}, not 1")
        # the last cumulative weight is 1 and u < 1, so it is never counted;
        # a point mass compares with inf, which no draw reaches
        cum = np.cumsum(w)[:-1] if self.n_atoms > 1 else np.array([np.inf])
        out = np.empty(size, dtype=np.min_scalar_type(self.n_atoms - 1))
        flat = out.reshape(-1)
        first = flat.view(bool) if flat.dtype == np.uint8 else flat
        u = np.empty(min(SAMPLE_CHUNK, flat.size))
        below = np.empty(u.size, dtype=bool)
        for start in range(0, flat.size, SAMPLE_CHUNK):
            part = flat[start:start + SAMPLE_CHUNK]
            draws, mask = u[:part.size], below[:part.size]
            rng.random(out=draws)
            np.greater_equal(draws, cum[0], out=first[start:start + SAMPLE_CHUNK])
            for c in cum[1:]:
                np.greater_equal(draws, c, out=mask)
                part += mask
        return out
