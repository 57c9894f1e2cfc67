"""Finitely supported increment laws on the matrix algebra.

Monte Carlo draws a walk's steps in blocks: with k atoms, B steps are one
code in [0, k^B), their atom indices read as base-k digits with the first
step most significant.  B is the largest width with k^B <= 256 (8, 5 and 4
at k = 2, 3 and 4, 1 above 16 atoms, 8 for a point mass), so a code is one
byte up to 256 atoms.  A walk of n steps is ceil(n / B) codes; the last
codes the 1 <= r <= B remaining steps.  The steps are i.i.d., so a block is
a single draw from the product law on its codes, which ``sample_codes``
makes from one uniform through an alias table.  ``block_width``,
``code_columns`` and ``code_digits`` fix this layout for the sampler and for
the product kernel ``_kernels.indexed_products``.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _positive_int
from .lie import AlgebraVector

SAMPLE_CHUNK = 65536    # uniform draws per chunk of sample_indices and sample_codes


def block_width(k: int) -> int:
    """Steps per code for a law of k atoms: the largest B with k^B <= 256,
    and 8 for a point mass."""
    width = 1
    while width < 8 and k ** (width + 1) <= 256:
        width += 1
    return width


def code_columns(n: int, width: int) -> tuple[int, int]:
    """Codes per sample for n >= 1 steps in blocks of width, and the steps
    1 <= r <= width of the last code."""
    cols = -(-n // width)
    return cols, n - (cols - 1) * width


def code_digits(k: int, width: int) -> np.ndarray:
    """The (k^width, width) base-k digits of every code, first step most
    significant: row c lists the atom index of each step of code c."""
    return np.arange(k ** width)[:, None] // k ** np.arange(width - 1, -1, -1) % k


def _alias_table(p: np.ndarray, dtype):
    """Vose's alias table (IEEE TSE 1991) for Walker's method over len(p) outcomes.

    Returns (cut, outcomes): a uniform u, scaled to x = u len(p), draws
    i = floor(x) when x < cut[i] = i + threshold[i], and alias[i] otherwise;
    outcomes[2 i] = i and outcomes[2 i + 1] = alias[i], in the given integer
    dtype, so the draw is one gather at 2 i + (x >= cut[i]).  Outcome c then
    has probability (threshold[c] + sum of 1 - threshold[i] over the i
    aliased to c) / len(p).  An entry left without a partner at the end
    keeps threshold 1, so its scaled probability, 1 up to rounding, is
    taken as 1.  Exact zeros are paired first, while the entries above 1
    still hold all the excess, so rounding never leaves a zero-probability
    outcome with threshold 1: its threshold is 0, no entry aliases to it,
    and it is never drawn.
    """
    size = len(p)
    scaled = np.asarray(p, dtype=np.float64) * size
    threshold = np.ones(size)
    alias = np.arange(size)
    small = deque(np.flatnonzero(scaled == 0.0).tolist()
                  + np.flatnonzero((scaled > 0.0) & (scaled < 1.0)).tolist())
    large = np.flatnonzero(scaled >= 1.0).tolist()
    while small and large:
        s, big = small.popleft(), large.pop()
        threshold[s], alias[s] = scaled[s], big
        scaled[big] -= 1.0 - scaled[s]
        (small if scaled[big] < 1.0 else large).append(big)
    outcomes = np.stack([np.arange(size), alias], axis=1).ravel().astype(dtype)
    return np.arange(size) + threshold, outcomes


def _alias_draw(u: np.ndarray, cut: np.ndarray, outcomes: np.ndarray, out: np.ndarray) -> None:
    """Write the alias draws of uniforms u into out, scaling u in place."""
    u *= len(cut)
    i = u.astype(np.intp)       # floor(x): u < 1 keeps x below len(cut) after rounding
    above = u >= np.take(cut, i)
    i <<= 1
    i += above
    np.take(outcomes, i, out=out, mode="clip")    # i is in range; "clip" skips a buffer


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

    def sample_indices(self, rng: np.random.Generator, size) -> np.ndarray:
        """Inverse-CDF atom sampling, one index per step (walks draw this way).

        Indices come in the smallest unsigned type that holds n_atoms - 1.
        Uniform draws come in flat chunks of SAMPLE_CHUNK, from the same
        stream as one rng.random(size) call; each index counts the
        cumulative weights at or below its draw, which is
        searchsorted(cum, u, side="right") without the search.  The first
        comparison writes the chunk's indices itself (through a bool view of
        8-bit indices), and each further one adds its mask.
        """
        # the last cumulative weight is 1 and u < 1, so it is never counted;
        # a point mass compares with inf, which no draw reaches
        cum = np.cumsum(self.weights)[:-1] if self.n_atoms > 1 else np.array([np.inf])
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

    def sample_codes(self, rng: np.random.Generator, samples: int, n: int,
                     weights=None) -> np.ndarray:
        """Block codes of `samples` walks of n steps, as (samples, ceil(n / B)).

        Row s holds walk s's codes in step order, in the layout of the
        module docstring: uint8, or uint16 above 256 atoms.  `weights`
        overrides the stored law (tilting); it must have one finite,
        nonnegative entry per atom and sum to one within 1e-12, and an atom
        of weight 0 is never drawn.  Each code takes one uniform, in
        row-major order and in chunks of about SAMPLE_CHUNK, from the same
        stream as one rng.random((samples, ceil(n / B))) call, through an
        alias table over the k^B code probabilities (k^r for the last
        column): a code costs a fixed handful of array passes, whatever k.
        """
        n = _positive_int("n", n)
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
        k = self.n_atoms
        width = block_width(k)
        cols, tail = code_columns(n, width)
        out = np.empty((samples, cols), dtype=np.min_scalar_type(k ** width - 1))
        main = _alias_table(w[code_digits(k, width)].prod(axis=1), out.dtype)
        last = main if tail == width else _alias_table(
            w[code_digits(k, tail)].prod(axis=1), out.dtype)
        rows = max(1, SAMPLE_CHUNK // cols)
        u = np.empty((min(rows, samples), cols))
        for start in range(0, samples, rows):
            part = out[start:start + rows]
            draws = u[:len(part)]
            rng.random(out=draws)
            # the whole chunk goes through the main table in one contiguous
            # pass; a last column of r < B steps is then drawn again from
            # its own uniforms, set aside first
            tail_u = draws[:, -1].copy()
            _alias_draw(draws, *main, part)
            if last is not main:
                _alias_draw(tail_u, *last, part[:, -1])
        return out
